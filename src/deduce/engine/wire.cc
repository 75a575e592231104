#include "deduce/engine/wire.h"

#include <algorithm>
#include <string>
#include <type_traits>

#include "deduce/net/codec.h"

namespace deduce {

namespace {

// Each wire struct has one field list, `Fields(io, w)`, that names its
// fields in wire order. FieldWriter runs it for Encode and FieldReader for
// Decode, so the two cannot drift apart.

/// Encodes fields through a PayloadWriter.
class FieldWriter {
 public:
  static constexpr bool kEncodes = true;

  explicit FieldWriter(PayloadWriter w) : w_(std::move(w)) {}

  void Int(int64_t v) { w_.WriteInt(v); }
  void Uint(uint64_t v) { w_.WriteUint(v); }
  void Bool(bool v) { w_.WriteUint(v ? 1 : 0); }
  void Symbol(SymbolId s) { w_.WriteSymbol(s); }
  void Term(const deduce::Term& t) { w_.WriteTerm(t); }
  void Fact(const deduce::Fact& f) { w_.WriteFact(f); }
  void Id(const TupleId& id) { w_.WriteTupleId(id); }
  void Bytes(const std::vector<uint8_t>& b) {
    w_.WriteBytes(
        std::string_view(reinterpret_cast<const char*>(b.data()), b.size()));
  }
  /// An optional last field: written only when nonzero.
  void TrailingUint(uint64_t v) {
    if (v != 0) w_.WriteUint(v);
  }
  /// A count, then each item through `each(io, item)`.
  template <typename T, typename Each>
  void List(const std::vector<T>& items, Each each) {
    w_.WriteUint(items.size());
    for (const T& item : items) each(*this, item);
  }
  /// A count, then each node id as Int writes it, in one run.
  void Nodes(const std::vector<NodeId>& nodes) {
    w_.WriteUint(nodes.size());
    w_.WriteNodeIds(nodes);
  }
  /// A count, then (variable, term) pairs in ascending variable id.
  void Bindings(const Subst& s) {
    w_.WriteUint(s.size());
    for (const auto& [var, term] : s.bindings()) {
      w_.WriteSymbol(var);
      w_.WriteTerm(term);
    }
  }

  std::vector<uint8_t> Take() { return w_.Take(); }

 private:
  PayloadWriter w_;
};

/// Decodes fields through a PayloadReader. The first failed read is kept
/// and every later read is skipped, so a field list needs no checks of its
/// own; `status()` reports the outcome.
class FieldReader {
 public:
  static constexpr bool kEncodes = false;

  explicit FieldReader(const std::vector<uint8_t>& payload) : r_(payload) {}

  template <typename T>
  void Int(T& v) {
    int64_t x = 0;
    if (Get<&PayloadReader::ReadInt>(&x)) v = static_cast<T>(x);
  }
  template <typename T>
  void Uint(T& v) {
    uint64_t x = 0;
    if (Get<&PayloadReader::ReadUint>(&x)) v = static_cast<T>(x);
  }
  void Bool(bool& v) {
    uint64_t x = 0;
    if (Get<&PayloadReader::ReadUint>(&x)) v = x != 0;
  }
  void Symbol(SymbolId& s) { Get<&PayloadReader::ReadSymbol>(&s); }
  void Term(deduce::Term& t) { Get<&PayloadReader::ReadTerm>(&t); }
  void Fact(deduce::Fact& f) { Get<&PayloadReader::ReadFact>(&f); }
  void Id(TupleId& id) { Get<&PayloadReader::ReadTupleId>(&id); }
  void Bytes(std::vector<uint8_t>& b) {
    std::string_view s;
    if (Get<&PayloadReader::ReadBytes>(&s)) b.assign(s.begin(), s.end());
  }
  /// Read only when bytes remain (frames without it decode as 0).
  template <typename T>
  void TrailingUint(T& v) {
    if (status_.ok() && r_.remaining() > 0) Uint(v);
  }
  template <typename T, typename Each>
  void List(std::vector<T>& items, Each each) {
    uint64_t n = Count();
    items.reserve(n);
    for (uint64_t i = 0; i < n && status_.ok(); ++i) {
      each(*this, items.emplace_back());
    }
  }
  /// Accepts and rejects exactly what List over Int would.
  void Nodes(std::vector<NodeId>& nodes) {
    uint64_t n = Count();
    if (status_.ok()) status_ = r_.ReadNodeIds(n, &nodes);
  }
  /// Binds through Subst::Bind: a repeated variable keeps its first term.
  /// The term comes straight from the codec, not through a default Term,
  /// which would cost two more refcount updates per binding.
  void Bindings(Subst& s) {
    uint64_t n = Count();
    s.reserve(n);
    for (uint64_t i = 0; i < n && status_.ok(); ++i) {
      SymbolId var = 0;
      Symbol(var);
      if (!status_.ok()) return;
      StatusOr<deduce::Term> term = r_.ReadTerm();
      if (!term.ok()) {
        status_ = term.status();
        return;
      }
      s.Bind(var, *term);
    }
  }

  const Status& status() const { return status_; }

 private:
  template <auto Read, typename T>
  bool Get(T* out) {
    if (!status_.ok()) return false;
    auto got = (r_.*Read)();
    if (!got.ok()) {
      status_ = got.status();
      return false;
    }
    *out = std::move(got).value();
    return true;
  }

  /// A list length; every element takes at least one byte, so a length
  /// beyond the bytes left is refused before anything is allocated.
  uint64_t Count() {
    uint64_t n = 0;
    if (!Get<&PayloadReader::ReadUint>(&n)) return 0;
    if (n > r_.remaining()) {
      status_ = Status::InvalidArgument("list length exceeds payload");
      return 0;
    }
    return n;
  }

  PayloadReader r_;
  Status status_;
};

/// The struct a field list sees: const when encoding, mutable when
/// decoding.
template <typename Io, typename T>
using FieldsOf = std::conditional_t<Io::kEncodes, const T&, T&>;

template <typename Io>
void Fields(Io& io, FieldsOf<Io, StoreWire> w) {
  io.Int(w.final_target);
  io.Symbol(w.pred);
  io.Fact(w.fact);
  io.Id(w.id);
  io.Int(w.gen_ts);
  io.Bool(w.deletion);
  io.Int(w.del_ts);
  io.Nodes(w.path_remaining);
  io.Int(w.flood_ttl);
}

template <typename Io>
void Fields(Io& io, FieldsOf<Io, JoinPassWire> w) {
  io.Int(w.final_target);
  io.Uint(w.delta_index);
  io.Bool(w.removal);
  io.Int(w.update_ts);
  io.Id(w.update_id);
  io.Uint(w.pass_index);
  io.Nodes(w.path_remaining);
  io.List(w.partials, [](auto& io, auto& p) {
    io.Uint(p.matched_mask);
    io.Bindings(p.bindings);
    io.List(p.support, [](auto& io, auto& s) {
      io.Uint(s.first);
      io.Id(s.second);
    });
  });
  io.Bool(w.degraded);
}

template <typename Io>
void Fields(Io& io, FieldsOf<Io, ResultWire> w) {
  io.Int(w.final_target);
  io.Symbol(w.pred);
  io.Fact(w.fact);
  io.Bool(w.removal);
  io.Int(w.rule_id);
  io.List(w.support, [](auto& io, auto& id) { io.Id(id); });
  io.Int(w.update_ts);
  io.Bool(w.degraded);
  io.TrailingUint(w.tenant);
}

template <typename Io>
void Fields(Io& io, FieldsOf<Io, AggWire> w) {
  io.Int(w.final_target);
  io.Uint(w.plan_index);
  io.Bool(w.removal);
  io.List(w.group, [](auto& io, auto& t) { io.Term(t); });
  io.Term(w.value);
  io.Id(w.contributor);
  io.Int(w.update_ts);
}

template <typename Io>
void Fields(Io& io, FieldsOf<Io, AckWire> w) {
  io.Int(w.final_target);
  io.Int(w.acker);
  io.Uint(w.seq);
}

template <typename Io>
void Fields(Io& io, FieldsOf<Io, ReliableWire> w) {
  io.Int(w.final_target);
  io.Int(w.origin);
  io.Uint(w.seq);
  io.Uint(w.inner_type);
  io.Bytes(w.inner_payload);
}

template <typename Io>
void Fields(Io& io, FieldsOf<Io, DigestRequestWire> w) {
  io.Int(w.final_target);
  io.Int(w.requester);
  io.Uint(w.round);
  io.Bool(w.anti_entropy);
}

template <typename Io>
void Fields(Io& io, FieldsOf<Io, DigestReplyWire> w) {
  io.Int(w.final_target);
  io.Int(w.replier);
  io.Uint(w.round);
  io.List(w.digests, [](auto& io, auto& d) {
    io.Symbol(d.pred);
    io.Uint(d.count);
    io.Uint(d.fingerprint);
  });
}

template <typename Io>
void Fields(Io& io, FieldsOf<Io, RepairPullWire> w) {
  io.Int(w.final_target);
  io.Int(w.requester);
  io.Uint(w.round);
  io.Bool(w.reverse);
  io.List(w.preds, [](auto& io, auto& p) { io.Symbol(p); });
  io.List(w.known, [](auto& io, auto& k) {
    io.Symbol(k.pred);
    io.Id(k.id);
    io.Bool(k.have_insert);
    io.Bool(k.has_del);
  });
}

template <typename Io>
void Fields(Io& io, FieldsOf<Io, RepairPushWire> w) {
  io.Int(w.final_target);
  io.Int(w.replier);
  io.Uint(w.round);
  io.List(w.entries, [](auto& io, auto& e) {
    io.Symbol(e.pred);
    io.Fact(e.fact);
    io.Id(e.id);
    io.Int(e.gen_ts);
    io.Bool(e.have_insert);
    io.Bool(e.has_del);
    io.Int(e.del_ts);
  });
}

template <typename W>
Message EncodeFields(const W& w, uint16_t type) {
  // The frame is written into a buffer this thread reuses, then copied
  // out at its exact size: one allocation per frame, and no slack
  // capacity in frames that wait in queues.
  thread_local std::vector<uint8_t> buffer;
  FieldWriter io(PayloadWriter(std::move(buffer)));
  Fields(io, w);
  buffer = io.Take();
  Message m;
  m.type = type;
  m.payload.assign(buffer.begin(), buffer.end());
  return m;
}

template <typename W>
StatusOr<W> DecodeFields(const Message& msg) {
  FieldReader io(msg.payload);
  W out;
  Fields(io, out);
  if (!io.status().ok()) return StatusOr<W>(io.status());
  return out;
}

/// DecodeFields into the EngineWire alternative W, built in place: the
/// one return of `out` lets it live in the caller's storage, so the
/// decoded struct is never moved.
template <typename W>
StatusOr<EngineWire> DecodeAlternative(const std::vector<uint8_t>& payload) {
  StatusOr<EngineWire> out(std::in_place, std::in_place_type<W>);
  FieldReader io(payload);
  Fields(io, std::get<W>(*out));
  if (!io.status().ok()) out = io.status();
  return out;
}

}  // namespace

Message StoreWire::Encode() const { return EncodeFields(*this, kStoreMsg); }
StatusOr<StoreWire> StoreWire::Decode(const Message& msg) {
  return DecodeFields<StoreWire>(msg);
}

Message JoinPassWire::Encode() const {
  return EncodeFields(*this, kJoinPassMsg);
}
StatusOr<JoinPassWire> JoinPassWire::Decode(const Message& msg) {
  return DecodeFields<JoinPassWire>(msg);
}

Message ResultWire::Encode() const { return EncodeFields(*this, kResultMsg); }
StatusOr<ResultWire> ResultWire::Decode(const Message& msg) {
  return DecodeFields<ResultWire>(msg);
}

Message AggWire::Encode() const { return EncodeFields(*this, kAggMsg); }
StatusOr<AggWire> AggWire::Decode(const Message& msg) {
  return DecodeFields<AggWire>(msg);
}

Message AckWire::Encode() const { return EncodeFields(*this, kAckMsg); }
StatusOr<AckWire> AckWire::Decode(const Message& msg) {
  return DecodeFields<AckWire>(msg);
}

Message ReliableWire::Encode() const {
  return EncodeFields(*this, kReliableMsg);
}
StatusOr<ReliableWire> ReliableWire::Decode(const Message& msg) {
  return DecodeFields<ReliableWire>(msg);
}

Message DigestRequestWire::Encode() const {
  return EncodeFields(*this, kDigestRequestMsg);
}
StatusOr<DigestRequestWire> DigestRequestWire::Decode(const Message& msg) {
  return DecodeFields<DigestRequestWire>(msg);
}

Message DigestReplyWire::Encode() const {
  return EncodeFields(*this, kDigestReplyMsg);
}
StatusOr<DigestReplyWire> DigestReplyWire::Decode(const Message& msg) {
  return DecodeFields<DigestReplyWire>(msg);
}

Message RepairPullWire::Encode() const {
  return EncodeFields(*this, kRepairPullMsg);
}
StatusOr<RepairPullWire> RepairPullWire::Decode(const Message& msg) {
  return DecodeFields<RepairPullWire>(msg);
}

Message RepairPushWire::Encode() const {
  return EncodeFields(*this, kRepairPushMsg);
}
StatusOr<RepairPushWire> RepairPushWire::Decode(const Message& msg) {
  return DecodeFields<RepairPushWire>(msg);
}

StatusOr<EngineWire> DecodeEngineMessage(uint16_t type,
                                         const std::vector<uint8_t>& payload) {
  switch (type) {
    case kStoreMsg:
      return DecodeAlternative<StoreWire>(payload);
    case kJoinPassMsg:
      return DecodeAlternative<JoinPassWire>(payload);
    case kResultMsg:
      return DecodeAlternative<ResultWire>(payload);
    case kAggMsg:
      return DecodeAlternative<AggWire>(payload);
    case kAckMsg:
      return DecodeAlternative<AckWire>(payload);
    case kReliableMsg:
      return DecodeAlternative<ReliableWire>(payload);
    case kDigestRequestMsg:
      return DecodeAlternative<DigestRequestWire>(payload);
    case kDigestReplyMsg:
      return DecodeAlternative<DigestReplyWire>(payload);
    case kRepairPullMsg:
      return DecodeAlternative<RepairPullWire>(payload);
    case kRepairPushMsg:
      return DecodeAlternative<RepairPushWire>(payload);
  }
  std::string what = "unknown engine message type ";
  what += std::to_string(type);
  return Status::InvalidArgument(what);
}

StatusOr<NodeId> PeekFinalTarget(const Message& msg) {
  PayloadReader r(msg.payload);
  DEDUCE_ASSIGN_OR_RETURN(int64_t target, r.ReadInt());
  return static_cast<NodeId>(target);
}

namespace {

void CollectTraceIdsInto(uint16_t type, const std::vector<uint8_t>& payload,
                         bool in_envelope, std::vector<uint64_t>* out) {
  StatusOr<EngineWire> wire = DecodeEngineMessage(type, payload);
  if (!wire.ok()) return;
  auto add = [out](const TupleId& id) { out->push_back(TraceIdFor(id)); };
  std::visit(
      Overloaded{
          [&](const StoreWire& w) { add(w.id); },
          [&](const JoinPassWire& w) {
            add(w.update_id);
            for (const PartialWire& p : w.partials) {
              for (const auto& [literal, id] : p.support) add(id);
            }
          },
          [&](const ResultWire& w) {
            for (const TupleId& id : w.support) add(id);
          },
          [&](const AggWire& w) { add(w.contributor); },
          [&](const RepairPullWire& w) {
            for (const RepairPullWire::Known& k : w.known) add(k.id);
          },
          [&](const RepairPushWire& w) {
            for (const RepairPushWire::Entry& e : w.entries) add(e.id);
          },
          [&](const ReliableWire& w) {
            if (in_envelope) return;  // envelopes never nest; guard anyway
            CollectTraceIdsInto(w.inner_type, w.inner_payload, true, out);
          },
          [](const auto&) {},  // acks, digests: no tuples on board
      },
      *wire);
}

}  // namespace

std::vector<uint64_t> CollectTraceIds(const Message& msg) {
  std::vector<uint64_t> out;
  CollectTraceIdsInto(msg.type, msg.payload, false, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- frame integrity --------------------------------------------------------

namespace {

uint32_t Fnv1a(const uint8_t* data, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

}  // namespace

void SealFrame(Message* msg) {
  uint32_t h = Fnv1a(msg->payload.data(), msg->payload.size());
  for (int i = 0; i < 4; ++i) {
    msg->payload.push_back(static_cast<uint8_t>((h >> (8 * i)) & 0xff));
  }
}

bool CheckAndStripFrame(Message* msg) {
  if (msg->payload.size() < 4) return false;
  size_t n = msg->payload.size() - 4;
  uint32_t want = 0;
  for (int i = 0; i < 4; ++i) {
    want |= static_cast<uint32_t>(msg->payload[n + static_cast<size_t>(i)])
            << (8 * i);
  }
  if (Fnv1a(msg->payload.data(), n) != want) return false;
  msg->payload.resize(n);
  return true;
}

}  // namespace deduce

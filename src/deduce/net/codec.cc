#include "deduce/net/codec.h"

#include <algorithm>
#include <cstring>

namespace deduce {

namespace {

constexpr uint8_t kTagInt = 0;
constexpr uint8_t kTagDouble = 1;
constexpr uint8_t kTagSymbol = 2;
constexpr uint8_t kTagVariable = 3;
constexpr uint8_t kTagFunction = 4;

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Writes `v` as a varint at `p`; returns the end. WriteUint's loop, for
/// runs written through a pointer. WriteUint keeps its own loop: routed
/// through here (a small buffer, then an insert) it cost about 40 ns more
/// per store frame.
uint8_t* EncodeVarint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

/// Decodes one varint at `p`, advancing it; nullptr on success, else the
/// error's message. Every varint the reader takes goes through here.
const char* DecodeVarint(const uint8_t*& p, const uint8_t* end,
                         uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    if (p == end) return "truncated varint in payload";
    uint8_t b = *p++;
    if (shift >= 64) return "overlong varint in payload";
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return nullptr;
    }
  }
}

}  // namespace

void PayloadWriter::WriteUint(uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<uint8_t>(v));
}

void PayloadWriter::WriteInt(int64_t v) { WriteUint(ZigZag(v)); }

void PayloadWriter::WriteDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

void PayloadWriter::WriteBytes(std::string_view bytes) {
  WriteUint(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void PayloadWriter::WriteSymbol(SymbolId id) { WriteBytes(SymbolName(id)); }

void PayloadWriter::WriteTerm(const Term& term) {
  switch (term.kind()) {
    case Term::Kind::kConstant: {
      const Value& v = term.value();
      switch (v.kind()) {
        case Value::Kind::kInt:
          buffer_.push_back(kTagInt);
          WriteInt(v.as_int());
          return;
        case Value::Kind::kDouble:
          buffer_.push_back(kTagDouble);
          WriteDouble(v.as_double());
          return;
        case Value::Kind::kSymbol:
          buffer_.push_back(kTagSymbol);
          WriteSymbol(v.symbol());
          return;
      }
      return;
    }
    case Term::Kind::kVariable:
      buffer_.push_back(kTagVariable);
      WriteSymbol(term.var());
      return;
    case Term::Kind::kFunction:
      buffer_.push_back(kTagFunction);
      WriteSymbol(term.functor());
      WriteUint(term.args().size());
      for (const Term& a : term.args()) WriteTerm(a);
      return;
  }
}

void PayloadWriter::WriteFact(const Fact& fact) {
  WriteSymbol(fact.predicate());
  WriteUint(fact.args().size());
  for (const Term& a : fact.args()) WriteTerm(a);
}

void PayloadWriter::WriteTupleId(const TupleId& id) {
  WriteInt(id.source);
  WriteInt(id.timestamp);
  WriteUint(id.seq);
}

void PayloadWriter::WriteNodeIds(std::span<const NodeId> ids) {
  // A zigzagged int32 takes at most five varint bytes.
  size_t at = buffer_.size();
  buffer_.resize(at + 5 * ids.size());
  uint8_t* p = buffer_.data() + at;
  for (NodeId id : ids) p = EncodeVarint(p, ZigZag(id));
  buffer_.resize(static_cast<size_t>(p - buffer_.data()));
}

StatusOr<uint64_t> PayloadReader::ReadUint() {
  const uint8_t* p = data_ + pos_;
  uint64_t v = 0;
  const char* error = DecodeVarint(p, data_ + size_, &v);
  pos_ = static_cast<size_t>(p - data_);
  if (error != nullptr) {
    return StatusOr<uint64_t>(Status::InvalidArgument(error));
  }
  return v;
}

StatusOr<int64_t> PayloadReader::ReadInt() {
  DEDUCE_ASSIGN_OR_RETURN(uint64_t v, ReadUint());
  return UnZigZag(v);
}

StatusOr<double> PayloadReader::ReadDouble() {
  if (pos_ + 8 > size_) {
    return StatusOr<double>(
        Status::InvalidArgument("truncated double in payload"));
  }
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
            << (8 * i);
  }
  pos_ += 8;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

StatusOr<std::string_view> PayloadReader::ReadBytes() {
  DEDUCE_ASSIGN_OR_RETURN(uint64_t len, ReadUint());
  if (len > remaining()) {
    return StatusOr<std::string_view>(
        Status::InvalidArgument("truncated string in payload"));
  }
  std::string_view out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

StatusOr<SymbolId> PayloadReader::ReadSymbol() {
  DEDUCE_ASSIGN_OR_RETURN(std::string_view name, ReadBytes());
  return Intern(name);
}

StatusOr<Term> PayloadReader::ReadTerm() {
  if (pos_ >= size_) {
    return StatusOr<Term>(Status::InvalidArgument("truncated term tag"));
  }
  uint8_t tag = data_[pos_++];
  switch (tag) {
    case kTagInt: {
      DEDUCE_ASSIGN_OR_RETURN(int64_t v, ReadInt());
      return Term::Int(v);
    }
    case kTagDouble: {
      DEDUCE_ASSIGN_OR_RETURN(double v, ReadDouble());
      return Term::Real(v);
    }
    case kTagSymbol: {
      DEDUCE_ASSIGN_OR_RETURN(SymbolId s, ReadSymbol());
      return Term::FromValue(Value::SymbolFromId(s));
    }
    case kTagVariable: {
      DEDUCE_ASSIGN_OR_RETURN(SymbolId s, ReadSymbol());
      return Term::VarFromId(s);
    }
    case kTagFunction: {
      DEDUCE_ASSIGN_OR_RETURN(SymbolId f, ReadSymbol());
      DEDUCE_ASSIGN_OR_RETURN(uint64_t n, ReadUint());
      if (n > remaining()) {
        return StatusOr<Term>(
            Status::InvalidArgument("function arity exceeds payload"));
      }
      std::vector<Term> args;
      args.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        DEDUCE_ASSIGN_OR_RETURN(Term a, ReadTerm());
        args.push_back(std::move(a));
      }
      return Term::Function(f, std::move(args));
    }
    default:
      return StatusOr<Term>(
          Status::InvalidArgument("unknown term tag in payload"));
  }
}

StatusOr<Fact> PayloadReader::ReadFact() {
  DEDUCE_ASSIGN_OR_RETURN(SymbolId pred, ReadSymbol());
  DEDUCE_ASSIGN_OR_RETURN(uint64_t n, ReadUint());
  if (n > remaining()) {
    return StatusOr<Fact>(
        Status::InvalidArgument("fact arity exceeds payload"));
  }
  std::vector<Term> args;
  args.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    DEDUCE_ASSIGN_OR_RETURN(Term a, ReadTerm());
    if (!a.is_ground()) {
      return StatusOr<Fact>(
          Status::InvalidArgument("non-ground term in serialized fact"));
    }
    args.push_back(std::move(a));
  }
  return Fact(pred, std::move(args));
}

StatusOr<TupleId> PayloadReader::ReadTupleId() {
  TupleId id;
  DEDUCE_ASSIGN_OR_RETURN(int64_t src, ReadInt());
  DEDUCE_ASSIGN_OR_RETURN(int64_t ts, ReadInt());
  DEDUCE_ASSIGN_OR_RETURN(uint64_t seq, ReadUint());
  id.source = static_cast<NodeId>(src);
  id.timestamp = ts;
  id.seq = static_cast<uint32_t>(seq);
  return id;
}

Status PayloadReader::ReadNodeIds(size_t n, std::vector<NodeId>* ids) {
  // Every id takes at least one byte, so no more than the bytes left can
  // decode; sizing for those bounds what a damaged count allocates.
  ids->resize(std::min(n, remaining()));
  const uint8_t* p = data_ + pos_;
  const uint8_t* end = data_ + size_;
  const char* error = nullptr;
  for (NodeId& id : *ids) {
    uint64_t v = 0;
    error = DecodeVarint(p, end, &v);
    if (error != nullptr) break;
    id = static_cast<NodeId>(UnZigZag(v));
  }
  // A count beyond the bytes left has used every byte by now: the next id
  // is a truncated varint.
  if (error == nullptr && ids->size() < n) {
    error = "truncated varint in payload";
  }
  pos_ = static_cast<size_t>(p - data_);
  if (error != nullptr) return Status::InvalidArgument(error);
  return Status::OK();
}

}  // namespace deduce

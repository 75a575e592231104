#include "deduce/engine/runtime.h"

#include <algorithm>

#include "deduce/common/logging.h"
#include "deduce/common/strings.h"
#include "deduce/eval/monoid.h"
#include "deduce/eval/rule_eval.h"

namespace deduce {

namespace {

/// Retraction-protocol requeue rounds per deletion-critical message; each
/// round is a full fresh reliable send (1 + max_retries attempts), so
/// quiescence stays guaranteed even toward a permanently dead destination.
constexpr int kRetractionRounds = 8;

bool IsFilter(const Literal& lit) {
  return lit.kind == Literal::Kind::kComparison ||
         lit.kind == Literal::Kind::kBuiltin;
}

}  // namespace

void EngineStats::ExportTo(MetricsRegistry* registry) const {
  if (registry == nullptr || !registry->enabled()) return;
  registry->Add(-1, "engine", "tuples_injected", tuples_injected);
  registry->Add(-1, "engine", "join_passes", join_passes);
  registry->Add(-1, "engine", "pass_messages", pass_messages);
  registry->Add(-1, "engine", "results_emitted", results_emitted);
  registry->Add(-1, "engine", "derivations_added", derivations_added);
  registry->Add(-1, "engine", "derivations_removed", derivations_removed);
  registry->Add(-1, "engine", "derived_generations", derived_generations);
  registry->Add(-1, "engine", "derived_deletions", derived_deletions);
  registry->Add(-1, "engine", "replicas_stored", replicas_stored);
  registry->Set(-1, "engine", "max_partials_in_message",
                static_cast<int64_t>(max_partials_in_message));
  registry->Add(-1, "engine", "retransmissions", retransmissions);
  registry->Add(-1, "engine", "acks_sent", acks_sent);
  registry->Add(-1, "engine", "acks_received", acks_received);
  registry->Add(-1, "engine", "duplicates_suppressed", duplicates_suppressed);
  registry->Add(-1, "engine", "gave_up_messages", gave_up_messages);
  registry->Add(-1, "engine", "rerouted_hops", rerouted_hops);
  registry->Add(-1, "engine", "skipped_sweep_nodes", skipped_sweep_nodes);
  registry->Add(-1, "engine", "skipped_store_nodes", skipped_store_nodes);
  registry->Add(-1, "engine", "repaired_messages", repaired_messages);
  registry->Add(-1, "engine", "retraction_requeues", retraction_requeues);
  registry->Add(-1, "engine", "retraction_obligations",
                retraction_obligations);
  registry->Add(-1, "engine", "repair_digest_rounds", repair_digest_rounds);
  registry->Add(-1, "engine", "repair_digest_replies", repair_digest_replies);
  registry->Add(-1, "engine", "repair_replicas_pulled",
                repair_replicas_pulled);
  registry->Add(-1, "engine", "repair_replicas_pushed",
                repair_replicas_pushed);
  registry->Add(-1, "engine", "resyncs_started", resyncs_started);
  registry->Add(-1, "engine", "resyncs_completed", resyncs_completed);
  registry->Add(-1, "engine", "resyncs_abandoned", resyncs_abandoned);
  registry->Add(-1, "engine", "resync_time_us", resync_time_us);
  registry->Add(-1, "engine", "degraded_results", degraded_results);
  registry->Set(-1, "engine", "liveness_epoch",
                static_cast<int64_t>(liveness_epoch));
  registry->Add(-1, "engine", "decode_errors", decode_errors);
  registry->Add(-1, "engine", "sheds", sheds);
  registry->Add(-1, "engine", "ingress_rejects", ingress_rejects);
  registry->Add(-1, "engine", "budget_evictions", budget_evictions);
  registry->Add(-1, "engine", "budget_squeezes", budget_squeezes);
  registry->Set(-1, "engine", "errors",
                static_cast<int64_t>(errors.size()));
}

NodeRuntime::NodeRuntime(EngineShared* shared, NodeId id)
    : shared_(shared), id_(id) {
  if (shared_->provenance.enabled) {
    prov_ = std::make_unique<ProvenanceStore>(shared_->provenance.ring_capacity);
  }
}

void NodeRuntime::RecordProvenance(ProvenanceEdge edge) {
  if (shared_->metrics != nullptr && edge.kind != ProvenanceEdge::Kind::kGen) {
    shared_->metrics->Observe(-1, "prov", SymbolName(edge.pred) + ".e2e_us",
                              edge.latency_us);
  }
  if (shared_->trace != nullptr && shared_->trace->on()) {
    shared_->trace->Emit(edge.ToTraceRecord());
  }
  uint64_t dropped_before = prov_->dropped();
  prov_->Push(std::move(edge));
  if (prov_->dropped() != dropped_before) {
    // The ring models bounded mote RAM: an eviction means ring-resident
    // lineage (ProvenanceEdges / in-engine explain) is now incomplete.
    // Count every eviction, warn once per node.
    if (shared_->metrics != nullptr) {
      shared_->metrics->Add(-1, "prov", "evictions");
    }
    if (!prov_evict_warned_) {
      prov_evict_warned_ = true;
      DEDUCE_LOG(kWarning)
          << "node " << id_ << ": provenance ring full (capacity "
          << prov_->capacity() << "), evicting lineage; explain trees over "
          << "ring-resident edges will report truncation";
    }
  }
}

void NodeRuntime::Start(NodeContext* ctx) {
  // Program facts are seeded at their home node. Derived-predicate facts
  // (e.g. the SPT root j(0, 0)) become permanent axioms of the home store;
  // input-predicate facts are injected as ordinary generations.
  for (const Fact& f : shared_->plan.program.facts()) {
    const PredicatePlan& pp = shared_->plan.pred_plan(f.predicate());
    if (HomeOf(pp, f) != id_) continue;
    if (!pp.derived) {
      Status st = Inject(ctx, StreamOp::kInsert, f);
      if (!st.ok()) Fault("seeding " + f.ToString() + ": " + st.message());
      continue;
    }
    HomeRel& rel = home_[f.predicate()];
    auto [it, inserted] = rel.map.emplace(f, HomeEntry{});
    if (inserted) rel.order.push_back(f);
    HomeEntry& e = it->second;
    if (e.alive) continue;
    Timestamp now = ctx->LocalTime();
    e.alive = true;
    e.id = TupleId{id_, now, seq_++};
    e.gen_ts = now;
    e.derivs.insert(Derivation{-1, {}});  // permanent axiom
    ++shared_->stats.derived_generations;
    // Multi-tenant fan-out for seeded axioms: alias home relations are
    // co-located with the canonical one (see ApplyResult), so the
    // relabeled copy is a local insert here too.
    if (!shared_->result_fanout.empty()) {
      auto fit = shared_->result_fanout.find(f.predicate());
      if (fit != shared_->result_fanout.end()) {
        for (const auto& [tenant, alias] : fit->second) {
          (void)tenant;
          Fact af(alias, f.args());
          HomeRel& arel = home_[alias];
          auto [ait, ains] = arel.map.emplace(af, HomeEntry{});
          if (ains) arel.order.push_back(af);
          HomeEntry& ae = ait->second;
          if (ae.alive) continue;
          ae.alive = true;
          ae.id = TupleId{id_, now, seq_++};
          ae.gen_ts = now;
          ae.derivs.insert(Derivation{-1, {}});
        }
      }
    }
    if (provenance_on()) {
      ProvenanceEdge pe;
      pe.kind = ProvenanceEdge::Kind::kGen;
      pe.time = now;
      pe.node = id_;
      pe.pred = f.predicate();
      pe.fact = f;
      pe.tid = TraceIdFor(e.id);
      RecordProvenance(std::move(pe));
    }
    GenerateDerivedUpdate(ctx, f.predicate(), f, e.id, StreamOp::kInsert, now);
  }
}

void NodeRuntime::Fault(const std::string& what) {
  shared_->stats.errors.push_back(
      StrFormat("node %d: %s", id_, what.c_str()));
}

void NodeRuntime::DropFrame() {
  ++shared_->stats.decode_errors;
  if (shared_->metrics != nullptr) {
    shared_->metrics->Add(id_, "engine", "decode_errors");
  }
}

void NodeRuntime::SendEngineMessage(NodeContext* ctx, NodeId final_target,
                                    Message msg) {
  if (final_target == id_) {
    Fault("SendEngineMessage to self");
    return;
  }
  // A target outside the topology can only come from a damaged frame that
  // decoded anyway (checksum off): drop it before it reaches the routing
  // tables, which index by node id.
  if (final_target < 0 || final_target >= shared_->topology->node_count()) {
    DropFrame();
    return;
  }
  if (transport_on() && msg.type != kAckMsg && msg.type != kReliableMsg) {
    SendReliable(ctx, final_target, std::move(msg));
    return;
  }
  ForwardEngineMessage(ctx, final_target, std::move(msg));
}

bool NodeRuntime::ForwardEngineMessage(NodeContext* ctx, NodeId final_target,
                                       Message msg) {
  if (final_target < 0 || final_target >= shared_->topology->node_count()) {
    DropFrame();
    return false;
  }
  NodeId plain = shared_->routing->GeoNextHop(id_, final_target);
  NodeId next = plain;
  if (transport_on() && shared_->liveness.down_count > 0) {
    NodeId detour = shared_->routing->NextHopAvoiding(
        id_, final_target, shared_->liveness.down, shared_->liveness.version);
    if (detour != kNoNode) next = detour;
  }
  if (next == kNoNode) {
    Fault(StrFormat("no route to %d", final_target));
    return false;
  }
  if (next != plain) ++shared_->stats.rerouted_hops;
  bool acked = Transmit(ctx, {&next, 1}, std::move(msg));
  // No MAC ack: every link-layer attempt toward `next` was lost, or `next`
  // is dead. Suspect it; a pure-loss false suspicion is cleared as soon as
  // anyone hears from it, and in the meantime routing detours around it.
  if (!acked && transport_on()) MarkDown(next);
  return acked;
}

bool NodeRuntime::Transmit(NodeContext* ctx, std::span<const NodeId> hops,
                           Message msg) {
  if (checksum_on()) SealFrame(&msg);
  bool acked = false;
  for (size_t i = 0; i < hops.size(); ++i) {
    acked = i + 1 < hops.size() ? ctx->Send(hops[i], msg)
                                : ctx->Send(hops[i], std::move(msg));
  }
  return acked;
}

void NodeRuntime::OnMessage(NodeContext* ctx, const Message& msg) {
  // Hearing anything from a node proves it is up (the link header is
  // never corrupted in the fault model, so src is trustworthy even for a
  // frame that fails its checksum).
  if (transport_on()) MarkUp(msg.src);
  if (checksum_on()) {
    Message frame = msg;
    if (!CheckAndStripFrame(&frame)) {
      DropFrame();
      return;
    }
    RouteOrDispatch(ctx, frame);
    return;
  }
  RouteOrDispatch(ctx, msg);
}

void NodeRuntime::RouteOrDispatch(NodeContext* ctx, const Message& msg) {
  // Forward unicast engine messages not addressed to us (routing layer).
  StatusOr<NodeId> target = PeekFinalTarget(msg);
  if (!target.ok()) {
    DropFrame();
    return;
  }
  if (*target != kNoNode && *target != id_) {
    ForwardEngineMessage(ctx, *target, msg);
    return;
  }
  DispatchEngineMessage(ctx, msg.type, msg.payload);
}

void NodeRuntime::DispatchEngineMessage(NodeContext* ctx, uint16_t type,
                                        const std::vector<uint8_t>& payload) {
  // A frame that fails to decode — or decodes to a predicate the plan
  // never compiled — is damaged (or stale garbage), not an engine bug: it
  // is dropped and counted, never Fault()ed. The pred checks matter when
  // the checksum is off: a bit-flipped SymbolId that slipped through
  // decoding must not reach pred_plan(), which indexes by predicate.
  StatusOr<EngineWire> wire = DecodeEngineMessage(type, payload);
  if (!wire.ok()) {
    DropFrame();
    return;
  }
  auto known = [this](SymbolId pred) {
    return shared_->plan.preds.count(pred) != 0;
  };
  std::visit(
      Overloaded{
          [&](AckWire& w) { HandleAck(w); },
          [&](ReliableWire& w) { HandleReliable(ctx, w); },
          [&](StoreWire& w) {
            if (!known(w.pred)) return DropFrame();
            HandleStore(ctx, std::move(w));
          },
          [&](JoinPassWire& w) { HandleJoinPass(ctx, std::move(w)); },
          [&](ResultWire& w) {
            if (!known(w.pred)) return DropFrame();
            HandleResult(ctx, std::move(w));
          },
          [&](AggWire& w) { HandleAgg(ctx, std::move(w)); },
          [&](DigestRequestWire& w) { repair_.HandleDigestRequest(ctx, w); },
          [&](DigestReplyWire& w) {
            for (const PredDigest& d : w.digests) {
              if (!known(d.pred)) return DropFrame();
            }
            repair_.HandleDigestReply(ctx, w);
          },
          [&](RepairPullWire& w) {
            for (SymbolId p : w.preds) {
              if (!known(p)) return DropFrame();
            }
            for (const RepairPullWire::Known& k : w.known) {
              if (!known(k.pred)) return DropFrame();
            }
            repair_.HandleRepairPull(ctx, w);
          },
          [&](RepairPushWire& w) {
            for (const RepairPushWire::Entry& e : w.entries) {
              if (!known(e.pred)) return DropFrame();
            }
            repair_.HandleRepairPush(ctx, w);
          },
      },
      *wire);
}

// --- reliable transport ----------------------------------------------------

SimTime NodeRuntime::RtoFor(NodeId dest, size_t envelope_bytes) const {
  const LinkModel& link = *shared_->link;
  int hops = shared_->routing->HopDistance(id_, dest);
  if (hops < 1) hops = 1;
  // Worst-case forward hop (the envelope) plus worst-case return hop (a
  // small ack), times the hop count plus slack for detours: on a loss-free
  // run the ack always arrives before this fires.
  SimTime round = link.MaxHopDelay(envelope_bytes) + link.MaxHopDelay(64);
  return round * static_cast<SimTime>(hops + 2);
}

bool NodeRuntime::SheddableEnvelope(uint16_t type,
                                    const std::vector<uint8_t>& payload) {
  StatusOr<EngineWire> wire = DecodeEngineMessage(type, payload);
  if (!wire.ok()) return false;
  return std::visit(
      Overloaded{
          [](const StoreWire& w) { return !w.deletion; },
          [](const JoinPassWire& w) { return !w.removal; },
          [](const ResultWire& w) { return !w.removal; },
          [](const ReliableWire& w) {
            return SheddableEnvelope(w.inner_type, w.inner_payload);
          },
          // Aggregate, repair and control traffic is never shed: losing a
          // contribution would skew an undegradable aggregate value, and
          // losing a deletion leaves a phantom standing.
          [](const auto&) { return false; },
      },
      *wire);
}

void NodeRuntime::SendReliable(NodeContext* ctx, NodeId dest, Message inner,
                               int retraction_rounds) {
  if (budget_on() && shared_->budget.max_inflight > 0 &&
      pending_.size() >= shared_->budget.max_inflight) {
    bool new_sheddable = SheddableEnvelope(inner.type, inner.payload);
    bool evicted = false;
    if (shared_->budget.policy == ShedPolicy::kShedFarthestWindow) {
      // Drop the oldest sheddable unacked envelope to admit the new one
      // (map order: lowest dest, then lowest seq = oldest toward it).
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        const Message& envelope = it->second.envelope;
        if (SheddableEnvelope(envelope.type, envelope.payload)) {
          pending_.erase(it);
          RecordShed(ctx, "inflight");
          evicted = true;
          break;
        }
      }
    }
    if (!evicted && new_sheddable) {
      RecordShed(ctx, "inflight");
      return;
    }
    // Nothing sheddable (all pending and the newcomer are
    // deletion-critical or aggregate traffic): admit over the cap —
    // correctness outranks the budget.
  }
  ReliableWire rw;
  rw.final_target = dest;
  rw.origin = id_;
  rw.seq = tx_seq_[dest]++;
  rw.inner_type = inner.type;
  rw.inner_payload = std::move(inner.payload);
  PendingMsg pm;
  pm.dest = dest;
  pm.seq = rw.seq;
  pm.envelope = rw.Encode();
  pm.retries_left = shared_->transport.max_retries;
  pm.rto = RtoFor(dest, pm.envelope.WireSize());
  pm.rto_cap = shared_->transport.rto_max > 0 ? shared_->transport.rto_max
               : shared_->transport.rto_max < 0 ? pm.rto * 64
                                                : 0;
  pm.retraction_rounds =
      retraction_rounds >= 0
          ? retraction_rounds
          : (retraction_on() ? kRetractionRounds : 0);
  uint64_t key = PendingKey(dest, pm.seq);
  pending_.emplace(key, std::move(pm));
  TransmitPending(ctx, key);
}

void NodeRuntime::TransmitPending(NodeContext* ctx, uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;  // acked in the meantime
  PendingMsg& pm = it->second;
  ForwardEngineMessage(ctx, pm.dest, pm.envelope);
  SimTime rto = pm.rto;
  // Randomized slack (TransportOptions::rto_jitter) desynchronizes the
  // retransmit bursts of origins that lost frames to the same event; the
  // draw comes from the node's deterministic RNG, so runs stay
  // reproducible per seed.
  if (shared_->transport.rto_jitter > 0) {
    rto += static_cast<SimTime>(
        static_cast<double>(rto) *
        ctx->rng().UniformDouble(0.0, shared_->transport.rto_jitter));
  }
  SimTime backed_off = static_cast<SimTime>(
      static_cast<double>(pm.rto) * shared_->transport.rto_backoff);
  if (pm.rto_cap > 0 && backed_off > pm.rto_cap) backed_off = pm.rto_cap;
  pm.rto = backed_off;
  ctx->SetTimer(rto, [this, ctx, key]() {
    auto it2 = pending_.find(key);
    if (it2 == pending_.end()) return;  // acked
    if (it2->second.retries_left <= 0) {
      GiveUp(ctx, key);
      return;
    }
    --it2->second.retries_left;
    ++shared_->stats.retransmissions;
    if (shared_->metrics != nullptr) {
      shared_->metrics->Add(id_, "transport", "retransmissions");
    }
    if (shared_->trace != nullptr && shared_->trace->on()) {
      TraceRecord r;
      r.time = ctx->LocalTime();
      r.node = id_;
      r.kind = "retransmit";
      r.phase = "retransmit";
      r.dst = it2->second.dest;
      r.bytes = it2->second.envelope.WireSize();
      r.seq = it2->second.seq;
      shared_->trace->Emit(r);
    }
    TransmitPending(ctx, key);
  });
}

void NodeRuntime::HandleReliable(NodeContext* ctx, const ReliableWire& rw) {
  // Always (re-)ack, even for duplicates — the previous ack may have been
  // lost, and the origin keeps retransmitting until it hears one.
  AckWire ack;
  ack.final_target = rw.origin;
  ack.acker = id_;
  ack.seq = rw.seq;
  ++shared_->stats.acks_sent;
  ForwardEngineMessage(ctx, rw.origin, ack.Encode());
  if (!rx_seen_.insert({rw.origin, rw.seq}).second) {
    ++shared_->stats.duplicates_suppressed;
    return;
  }
  if (rw.inner_type == kReliableMsg || rw.inner_type == kAckMsg) {
    DropFrame();  // nested envelope: only a damaged frame produces one
    return;
  }
  DispatchEngineMessage(ctx, rw.inner_type, rw.inner_payload);
}

void NodeRuntime::HandleAck(const AckWire& ack) {
  ++shared_->stats.acks_received;
  MarkUp(ack.acker);
  pending_.erase(PendingKey(ack.acker, ack.seq));
}

void NodeRuntime::GiveUp(NodeContext* ctx, uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  PendingMsg pm = std::move(it->second);
  pending_.erase(it);
  ++shared_->stats.gave_up_messages;
  MarkDown(pm.dest);
  StatusOr<EngineWire> envelope =
      DecodeEngineMessage(pm.envelope.type, pm.envelope.payload);
  if (!envelope.ok()) return;
  const ReliableWire& rw = std::get<ReliableWire>(*envelope);
  StatusOr<EngineWire> inner =
      DecodeEngineMessage(rw.inner_type, rw.inner_payload);
  if (!inner.ok()) return;
  // Path repair salvages the *rest* of a walk or sweep, never the failed
  // destination itself. For a deletion that destination matters: a replica
  // that keeps an unmarked tuple (or a home that keeps an unremoved
  // derivation) serves phantom results forever. Keep retrying those
  // point-to-point on a slow bounded-rounds backoff — if the node is merely
  // lossy or briefly partitioned the mark eventually lands; if it is truly
  // dead its state died with it and the budget caps the traffic. The retry
  // is built before TryRepair, which moves the walk out of `inner`.
  std::optional<Message> retry;
  if (retraction_on() && pm.retraction_rounds > 0) {
    retry = RetractionPayload(pm.dest, rw, *inner);
  }
  TryRepair(ctx, std::move(*inner));
  if (retry.has_value()) {
    ++shared_->stats.retraction_requeues;
    QueueRetractionRetry(ctx, pm.dest, std::move(*retry),
                         pm.retraction_rounds - 1);
  }
}

std::optional<Message> NodeRuntime::RetractionPayload(
    NodeId dest, const ReliableWire& envelope, const EngineWire& inner) const {
  // Removal results and aggregates are owed to one home node: re-send the
  // frame as it was.
  auto as_sent = [&envelope]() {
    Message m;
    m.type = envelope.inner_type;
    m.payload = envelope.inner_payload;
    return std::optional<Message>(std::move(m));
  };
  return std::visit(
      Overloaded{
          [&](const StoreWire& w) -> std::optional<Message> {
            if (!w.deletion) return std::nullopt;
            // TryRepair already continued the walk behind the failed node;
            // only its own copy of the deletion mark is still owed.
            StoreWire direct = w;
            direct.final_target = dest;
            direct.path_remaining.clear();
            return direct.Encode();
          },
          [&](const JoinPassWire& w) -> std::optional<Message> {
            if (!w.removal || w.delta_index >= shared_->plan.deltas.size()) {
              return std::nullopt;
            }
            // A lost removal pass strands every derivation its join step at
            // the failed node would have retracted. RepairJoinPass re-routes
            // sweeps *around* that node (and cannot re-route centroid/local
            // routes at all), so the failed node's own step is what is
            // still owed.
            JoinPassWire direct = w;
            direct.final_target = dest;
            const DeltaPlan& delta = shared_->plan.deltas[direct.delta_index];
            if (delta.strategy == JoinStrategy::kColumnSweep ||
                delta.strategy == JoinStrategy::kSerpentine) {
              direct.path_remaining.clear();  // tail already salvaged
            }
            return direct.Encode();
          },
          [&](const ResultWire& w) {
            return w.removal ? as_sent() : std::nullopt;
          },
          [&](const AggWire& w) {
            return w.removal ? as_sent() : std::nullopt;
          },
          [](const auto&) -> std::optional<Message> { return std::nullopt; },
      },
      inner);
}

void NodeRuntime::QueueRetractionRetry(NodeContext* ctx, NodeId dest,
                                       Message inner, int rounds_left) {
  // Linear backoff on rounds consumed: round k waits 2k worst-case round
  // trips before the fresh send, spacing the retries out far enough for a
  // transient partition or interference burst to clear.
  int used = kRetractionRounds - rounds_left;
  if (used < 1) used = 1;
  SimTime delay = RtoFor(dest, inner.WireSize() + 32) *
                  static_cast<SimTime>(2 * used);
  ctx->SetTimer(delay, [this, ctx, dest, inner = std::move(inner),
                        rounds_left]() mutable {
    SendReliable(ctx, dest, std::move(inner), rounds_left);
  });
}

void NodeRuntime::TryRepair(NodeContext* ctx, EngineWire inner) {
  std::visit(
      Overloaded{
          [&](JoinPassWire& jp) { RepairJoinPass(ctx, std::move(jp)); },
          [&](StoreWire& store) {
            // The dead node's replica is lost (the rest of its row still
            // holds the tuple); the walk continues at the first alive node
            // behind it.
            if (store.path_remaining.empty()) return;
            std::vector<NodeId> visit = std::move(store.path_remaining);
            if (SendStoreWalk(ctx, std::move(store), std::move(visit))) {
              ++shared_->stats.repaired_messages;
            }
          },
          // Result / aggregate messages name a unique home node; nothing
          // can stand in for it. The derivation is lost with the node.
          [](auto&) {},
      },
      inner);
}

void NodeRuntime::RepairJoinPass(NodeContext* ctx, JoinPassWire jp) {
  if (jp.delta_index >= shared_->plan.deltas.size()) return;
  const DeltaPlan& delta = shared_->plan.deltas[jp.delta_index];
  if (delta.strategy != JoinStrategy::kColumnSweep &&
      delta.strategy != JoinStrategy::kSerpentine) {
    return;  // centroid / local-route targets are not substitutable
  }
  // The failed target plus the rest of the sweep, with down nodes skipped
  // (serpentine) or replaced by same-band alternates (column sweep — row
  // replication makes any band member equivalent).
  std::vector<NodeId> visit;
  visit.reserve(jp.path_remaining.size() + 1);
  visit.push_back(jp.final_target);
  visit.insert(visit.end(), jp.path_remaining.begin(),
               jp.path_remaining.end());
  visit = RepairVisitList(delta, visit);
  ++shared_->stats.repaired_messages;
  AdvancePass(ctx, std::move(jp), std::move(visit));
}

void NodeRuntime::MarkDown(NodeId node) {
  if (node == id_) return;
  if (shared_->liveness.Mark(node, true)) {
    shared_->stats.liveness_epoch = shared_->liveness.version;
  }
}

void NodeRuntime::MarkUp(NodeId node) {
  if (shared_->liveness.Mark(node, false)) {
    shared_->stats.liveness_epoch = shared_->liveness.version;
  }
}

void NodeRuntime::OnRestart(NodeContext* ctx) {
  // Volatile state is lost with the incarnation. tx_seq_, seq_, and
  // flood_seen_ survive: the first two key peers' dedup and tuple
  // identities, and flood_seen_ keys the receivers' flood dedup — wiping it
  // would let a late-arriving duplicate flood re-deliver (and rebroadcast)
  // a tuple this incarnation already consumed. A real mote would keep all
  // three in nonvolatile memory.
  replicas_.clear();
  home_.clear();
  agg_state_.clear();
  pending_.clear();
  rx_seen_.clear();
  shed_preds_.clear();  // shed taint is per-incarnation, like the stores
  shed_all_ = false;
  ingress_open_ = 0;
  if (prov_ != nullptr) prov_->Clear();  // lineage ring is RAM too
  repair_.OnRestart(ctx);
}

// --- injection & storage phase -------------------------------------------

Status NodeRuntime::Inject(NodeContext* ctx, StreamOp op, const Fact& fact) {
  auto it = shared_->plan.preds.find(fact.predicate());
  if (it == shared_->plan.preds.end()) {
    return Status::NotFound("predicate not in program: " +
                            SymbolName(fact.predicate()));
  }
  if (it->second.derived) {
    return Status::InvalidArgument("cannot inject derived stream " +
                                   SymbolName(fact.predicate()));
  }
  // Admission control (EngineOptions::budget): refuse work at the front
  // door while the ingress queue is full, or — under the reject-injection
  // policy — while this node's replica store for the predicate is at
  // capacity. A refused injection never entered: the sender sees the
  // error, nothing is stored, launched or tainted.
  if (budget_on()) {
    const char* refusal = nullptr;
    if (shared_->budget.max_ingress > 0 &&
        ingress_open_ >= shared_->budget.max_ingress) {
      refusal = "ingress budget exhausted";
    } else if (op == StreamOp::kInsert &&
               shared_->budget.policy == ShedPolicy::kRejectInjection &&
               ReplicaStoreFull(fact.predicate())) {
      refusal = "replica budget exhausted";
    }
    if (refusal != nullptr) {
      ++shared_->stats.ingress_rejects;
      if (shared_->metrics != nullptr) {
        shared_->metrics->Add(id_, "budget", "ingress_rejects");
      }
      if (shared_->trace != nullptr && shared_->trace->on()) {
        TraceRecord r;
        r.time = ctx->LocalTime();
        r.node = id_;
        r.kind = "shed";
        r.phase = "shed";
        r.pred = SymbolName(fact.predicate());
        shared_->trace->Emit(r);
      }
      return Status::ResourceExhausted(
          StrFormat("%s at node %d", refusal, id_));
    }
  }
  ++shared_->stats.tuples_injected;
  Timestamp now = ctx->LocalTime();
  if (shared_->metrics != nullptr) {
    shared_->metrics->Add(id_, "engine", "tuples_injected");
  }
  // The tuple the update names: a fresh one for an insertion; for a
  // deletion, the first live tuple (in TupleId order) this node generated.
  // The row is copied out: rows move when the storage phase records the
  // deletion mark.
  std::optional<TupleId> tid;
  Timestamp gen_ts = now;
  if (op == StreamOp::kInsert) {
    tid = TupleId{id_, now, seq_++};
  } else if (auto rit = replicas_.find(fact.predicate());
             rit != replicas_.end()) {
    for (const auto& [id, rep] : rit->second) {
      if (id.source != id_ || !rep.have_insert || rep.del_ts.has_value() ||
          rep.fact != fact) {
        continue;
      }
      tid = id;
      gen_ts = rep.gen_ts;
      break;
    }
  }
  // Every injection is traced, a failed deletion too. With provenance on,
  // the record names the tuple (schema v2).
  if (shared_->trace != nullptr && shared_->trace->on()) {
    TraceRecord r;
    r.time = now;
    r.node = id_;
    r.kind = "inject";
    r.phase = "inject";
    r.pred = SymbolName(fact.predicate());
    r.bytes = 0;
    uint64_t trace_id = provenance_on() && tid ? TraceIdFor(*tid) : 0;
    if (trace_id != 0) {
      r.schema = 2;
      r.tid = trace_id;
      r.fact = fact.ToString();
    }
    shared_->trace->Emit(r);
  }
  if (!tid.has_value()) {
    return Status::NotFound("no live tuple " + fact.ToString() +
                            " generated at this node");
  }
  bool deletion = op == StreamOp::kDelete;
  StartStoragePhase(ctx, fact.predicate(), fact, *tid, gen_ts, deletion,
                    deletion ? now : 0);
  // The injection occupies an ingress slot until its join launch fires
  // (the bounded ingress queue's drain point).
  if (budget_on()) ++ingress_open_;
  ctx->SetTimer(shared_->timing.JoinDelay(),
                [this, ctx, fact, id = *tid, op, now]() {
                  if (ingress_open_ > 0) --ingress_open_;
                  LaunchJoinPasses(ctx, fact.predicate(), fact, id, op, now);
                });
  return Status::OK();
}

void NodeRuntime::StartStoragePhase(NodeContext* ctx, SymbolId pred,
                                    const Fact& fact, const TupleId& id,
                                    Timestamp gen_ts, bool deletion,
                                    Timestamp del_ts) {
  StoreWire store;
  store.pred = pred;
  store.fact = fact;
  store.id = id;
  store.gen_ts = gen_ts;
  store.deletion = deletion;
  store.del_ts = del_ts;
  RecordReplica(ctx, store);

  const PredicatePlan& pp = shared_->plan.pred_plan(pred);
  switch (pp.storage) {
    case StoragePolicy::kLocal:
      return;
    case StoragePolicy::kRow: {
      const std::vector<NodeId>& path = shared_->regions->HorizontalPath(id_);
      size_t mine = 0;
      while (mine < path.size() && path[mine] != id_) ++mine;
      DEDUCE_CHECK(mine < path.size());
      // Right half.
      if (mine + 1 < path.size()) {
        SendStoreWalk(ctx, store,
                      std::vector<NodeId>(
                          path.begin() + static_cast<long>(mine) + 1,
                          path.end()));
      }
      // Left half (walk outward in reverse order).
      if (mine > 0) {
        std::vector<NodeId> left;
        left.reserve(mine);
        for (size_t i = mine; i-- > 0;) left.push_back(path[i]);
        SendStoreWalk(ctx, store, std::move(left));
      }
      return;
    }
    case StoragePolicy::kBroadcast:
    case StoragePolicy::kSpatial: {
      int ttl = pp.storage == StoragePolicy::kBroadcast
                    ? shared_->topology->node_count()
                    : pp.spatial_radius;
      flood_seen_.insert({id, deletion});
      if (ttl <= 0) return;
      store.final_target = kNoNode;
      store.flood_ttl = ttl - 1;
      Transmit(ctx, ctx->neighbors(), store.Encode());
      return;
    }
    case StoragePolicy::kCentroid: {
      NodeId centroid = shared_->regions->CentroidNode();
      if (centroid == id_) return;  // already recorded locally
      StoreWire c = store;
      c.final_target = centroid;
      SendEngineMessage(ctx, centroid, c.Encode());
      return;
    }
  }
}

void NodeRuntime::RecordShed(NodeContext* ctx, const char* what,
                             SymbolId pred) {
  ++shared_->stats.sheds;
  // Sticky taint: this node's stores/work touching `pred` are now possibly
  // incomplete, so every join pass through here whose head depends on it
  // must carry the degraded bit (§IV-B degraded visibility, same channel
  // the repair protocol uses). Cleared only by reboot, which wipes the
  // shed state along with everything else.
  if (pred < 0) {
    shed_all_ = true;
  } else {
    shed_preds_.insert(pred);
  }
  if (shared_->metrics != nullptr) {
    shared_->metrics->Add(id_, "budget", "sheds");
    shared_->metrics->Add(id_, "budget", std::string("sheds_") + what);
  }
  if (shared_->trace != nullptr && shared_->trace->on()) {
    TraceRecord r;
    r.time = ctx->LocalTime();
    r.node = id_;
    r.kind = "shed";
    r.phase = "shed";
    r.pred = what;
    shared_->trace->Emit(r);
  }
}

bool NodeRuntime::ShedTaints(SymbolId pred) const {
  if (shed_all_) return true;
  if (shed_preds_.empty()) return false;
  auto it = shared_->taint_deps.find(pred);
  // A head with no dependency entry cannot be argued clean — stay as
  // conservative as the old node-global bit.
  if (it == shared_->taint_deps.end()) return true;
  for (SymbolId shed : shed_preds_) {
    if (it->second.count(shed) != 0) return true;
  }
  return false;
}

SymbolId NodeRuntime::DeltaHead(const DeltaPlan& delta) const {
  return shared_->plan.program.rules()[delta.rule_index].head.predicate;
}

bool NodeRuntime::ReplicaStoreFull(SymbolId pred) const {
  size_t cap = shared_->budget.max_replicas_per_pred;
  if (cap == 0) return false;
  auto it = replicas_.find(pred);
  if (it == replicas_.end() || it->second.size() < cap) return false;
  size_t live = 0;
  for (const auto& [id, rep] : it->second) {
    if (rep.have_insert && !rep.del_ts.has_value()) ++live;
  }
  return live >= cap;
}

bool NodeRuntime::AdmitReplica(NodeContext* ctx, SymbolId pred,
                               Timestamp now) {
  size_t cap = shared_->budget.max_replicas_per_pred;
  if (!budget_on() || cap == 0) return true;
  auto it = replicas_.find(pred);
  // Cheap early-out: live replicas never exceed total entries.
  if (it == replicas_.end() || it->second.size() < cap) return true;
  size_t live = 0;
  // Oldest live replica; ties go to the first in TupleId order.
  Replica* oldest = nullptr;
  for (auto& [id, rep] : it->second) {
    if (!rep.have_insert || rep.del_ts.has_value()) continue;
    ++live;
    if (oldest == nullptr || rep.gen_ts < oldest->gen_ts) oldest = &rep;
  }
  if (live < cap) return true;
  if (shared_->budget.policy == ShedPolicy::kShedFarthestWindow &&
      oldest != nullptr) {
    // Early-expire the replica farthest into its window. A deletion mark —
    // not an erase — so removal sweeps still find the tuple and shedding
    // can never strand a retraction (§IV-A: marks are never removed); the
    // entry itself is garbage-collected by its normal expiry timer.
    oldest->del_ts = now;
    ++shared_->stats.budget_evictions;
    if (shared_->metrics != nullptr) {
      shared_->metrics->Add(id_, "budget", "budget_evictions");
    }
    RecordShed(ctx, "replica_evict", pred);
    return true;
  }
  // Shed-newest (and reject-injection at non-source nodes, where there is
  // no injector to refuse): the arriving replica is never recorded.
  RecordShed(ctx, "replica", pred);
  return false;
}

void NodeRuntime::RecordReplica(NodeContext* ctx, const StoreWire& store) {
  if (budget_on() && !store.deletion) {
    auto pit = replicas_.find(store.pred);
    bool known =
        pit != replicas_.end() && pit->second.Find(store.id) != nullptr;
    if (!known && !AdmitReplica(ctx, store.pred, ctx->LocalTime())) return;
  }
  // Rows move on insert; nothing below inserts into the table while `rep`
  // is in use.
  Replica& rep = replicas_[store.pred].FindOrInsert(store.id);
  bool changed = false;
  if (store.deletion) {
    changed = !rep.del_ts.has_value();
    rep.del_ts = store.del_ts;
    if (!rep.have_insert) rep.fact = store.fact;  // mark overtook insert
  } else {
    rep.fact = store.fact;
    rep.gen_ts = store.gen_ts;
    if (!rep.have_insert) {
      changed = true;
      rep.have_insert = true;
      ++shared_->stats.replicas_stored;
      // Garbage-collect after (τs+τc)+τj+(w+τc) (§IV-B tuple expiry).
      Timestamp window = shared_->plan.pred_plan(store.pred).window;
      if (window != kNoWindow) {
        Timestamp expire_local =
            store.gen_ts + window + shared_->timing.ExpirySlack();
        SimTime delay = std::max<SimTime>(0, expire_local - ctx->LocalTime());
        SymbolId pred = store.pred;
        TupleId id = store.id;
        ctx->SetTimer(delay, [this, pred, id]() {
          ScopedSpan span(shared_->metrics, id_, "window_expiry");
          auto it = replicas_.find(pred);
          if (it != replicas_.end()) it->second.Erase(id);
        });
      }
    }
  }
  // Only genuine state changes count as anti-entropy dirt; re-deliveries
  // must not keep the repair timer alive forever.
  if (changed) repair_.OnReplicaActivity(ctx);
}

void NodeRuntime::HandleStore(NodeContext* ctx, StoreWire store) {
  if (store.flood_ttl >= 0) {
    // Flood mode.
    auto key = std::make_pair(store.id, store.deletion);
    if (flood_seen_.count(key)) return;
    flood_seen_.insert(key);
    RecordReplica(ctx, store);
    if (store.flood_ttl > 0) {
      --store.flood_ttl;
      Transmit(ctx, ctx->neighbors(), store.Encode());
    }
    return;
  }
  // Path walk / point-to-point.
  RecordReplica(ctx, store);
  if (!store.path_remaining.empty()) {
    std::vector<NodeId> visit = std::move(store.path_remaining);
    SendStoreWalk(ctx, std::move(store), std::move(visit));
  }
}

// --- join phase ------------------------------------------------------------

bool NodeRuntime::Visible(const Replica& r, Timestamp update_ts,
                          Timestamp window, bool for_removal) const {
  if (!r.have_insert) return false;
  if (r.gen_ts > update_ts) return false;
  if (window != kNoWindow && r.gen_ts <= update_ts - window) return false;
  // Removal passes ignore deletion marks: when two supports of a derivation
  // die, each deletion's removal join must still see the other (already
  // marked) support, or the derivation is orphaned. Removals are
  // idempotent, so the superset is safe.
  if (!for_removal && r.del_ts.has_value() && *r.del_ts < update_ts) {
    return false;
  }
  return true;
}

bool NodeRuntime::NegMatchLocally(SymbolId pred,
                                  const std::vector<Term>& args,
                                  Timestamp update_ts,
                                  const std::optional<TupleId>& exclude) const {
  // Negation checks use *current-state* semantics: a tuple blocks iff its
  // replica is present and not deletion-marked (plus the window lower
  // bound). Timestamp-filtered negation (gen <= τ like positive matches)
  // would let a spuriously-derived wave of an XY-stratified program outrun
  // its own retraction wave forever on cyclic graphs: a pass would not see
  // the blocker tuple generated "just after" its update timestamp even
  // though the blocker is already stored. Current-state checks mirror the
  // centralized incremental engine; transiently wrong outcomes are repaired
  // by the blocker's own insertion/deletion pass (§IV-B), so the quiescent
  // state is identical. A deletion-marked tuple never blocks — which also
  // implements the §IV-B rule that a tuple being deleted is excluded from
  // the join that computes the effects of its own deletion.
  auto it = replicas_.find(pred);
  if (it == replicas_.end()) return false;
  Timestamp window = shared_->plan.pred_plan(pred).window;
  Fact ground(pred, args);
  for (const auto& [id, rep] : it->second) {
    if (exclude.has_value() && id == *exclude) continue;
    if (!rep.have_insert) continue;
    if (rep.del_ts.has_value()) continue;
    if (window != kNoWindow && rep.gen_ts <= update_ts - window) continue;
    if (rep.fact == ground) return true;
  }
  return false;
}

bool NodeRuntime::EvalFilters(const DeltaPlan& delta, PartialWire* p) {
  const Rule& rule = shared_->plan.program.rules()[delta.rule_index];
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (p->matched_mask & (1u << i)) continue;
      const Literal& lit = rule.body[i];
      if (!IsFilter(lit)) continue;
      auto side_bound = [&](const Term& t) {
        std::vector<SymbolId> vars;
        t.CollectVariables(&vars);
        return std::all_of(vars.begin(), vars.end(), [&](SymbolId v) {
          return p->bindings.IsBound(v);
        });
      };
      if (lit.kind == Literal::Kind::kComparison) {
        bool lb = side_bound(lit.lhs);
        bool rb = side_bound(lit.rhs);
        if (lb && rb) {
          StatusOr<Term> lhs = EvalTerm(p->bindings.Apply(lit.lhs),
                                        shared_->registry);
          StatusOr<Term> rhs = EvalTerm(p->bindings.Apply(lit.rhs),
                                        shared_->registry);
          if (!lhs.ok() || !rhs.ok()) return false;
          if (!EvalCmp(lit.cmp, *lhs, *rhs)) return false;
          p->matched_mask |= (1u << i);
          changed = true;
        } else if (lit.cmp == CmpOp::kEq && (lb != rb)) {
          StatusOr<Term> src = EvalTerm(
              p->bindings.Apply(lb ? lit.lhs : lit.rhs), shared_->registry);
          if (!src.ok() || !src->is_ground()) continue;
          const Term& pattern = lb ? lit.rhs : lit.lhs;
          if (!SolveMatchTerm(pattern, *src, &p->bindings, shared_->registry)) {
            return false;
          }
          p->matched_mask |= (1u << i);
          changed = true;
        }
      } else {  // builtin
        std::vector<SymbolId> vars;
        lit.atom.CollectVariables(&vars);
        bool bound = std::all_of(vars.begin(), vars.end(), [&](SymbolId v) {
          return p->bindings.IsBound(v);
        });
        if (!bound) continue;
        const BuiltinPredicateFn* fn = shared_->registry.FindPredicate(
            lit.atom.predicate, lit.atom.arity());
        if (fn == nullptr) return false;
        std::vector<Term> args;
        bool args_ok = true;
        for (const Term& a : lit.atom.args) {
          StatusOr<Term> n = EvalTerm(p->bindings.Apply(a), shared_->registry);
          if (!n.ok()) {
            args_ok = false;
            break;
          }
          args.push_back(std::move(n).value());
        }
        if (!args_ok) return false;
        StatusOr<bool> holds = (*fn)(args);
        if (!holds.ok()) return false;
        if ((*holds == lit.builtin_negated)) return false;
        p->matched_mask |= (1u << i);
        changed = true;
      }
    }
  }
  return true;
}

bool NodeRuntime::IsPositiveComplete(const DeltaPlan& delta,
                                     const PartialWire& p) const {
  const Rule& rule = shared_->plan.program.rules()[delta.rule_index];
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (rule.body[i].kind != Literal::Kind::kPositive) continue;
    if (!(p.matched_mask & (1u << i))) return false;
  }
  return true;
}

template <typename Emit>
void NodeRuntime::ProbeReplicas(const Literal& lit, uint32_t index,
                                const PartialWire& p, Timestamp update_ts,
                                bool removal, Emit&& emit) const {
  auto rit = replicas_.find(lit.atom.predicate);
  if (rit == replicas_.end()) return;
  Timestamp window = shared_->plan.pred_plan(lit.atom.predicate).window;
  GroundColumnFilter filter(lit.atom.args, p.bindings, shared_->registry);
  for (const auto& [rid, rep] : rit->second) {
    if (!Visible(rep, update_ts, window, removal)) continue;
    if (!filter.Admits(rep.fact.args())) continue;
    PartialWire p2 = p;
    if (!SolveMatchTerms(lit.atom.args, rep.fact.args(), &p2.bindings,
                         shared_->registry)) {
      continue;
    }
    p2.matched_mask |= (1u << index);
    p2.support.emplace_back(index, rid);
    emit(std::move(p2));
  }
}

void NodeRuntime::ProcessPartialsHere(NodeContext* ctx, const DeltaPlan& delta,
                                      bool removal, Timestamp update_ts,
                                      const TupleId& update_id,
                                      int extend_literal, bool at_launch,
                                      std::vector<PartialWire>* partials) {
  (void)ctx;
  ScopedSpan span(shared_->metrics, id_, "rule_eval");
  const Rule& rule = shared_->plan.program.rules()[delta.rule_index];
  const auto& launch_ok = shared_->launch_evaluable[static_cast<size_t>(
      &delta - shared_->plan.deltas.data())];
  const Literal& pinned = rule.body[delta.pinned_literal];
  // §IV-B: when a tuple is *deleted from a negated stream*, the revived
  // derivations must still fail against any other tuple matching the same
  // ground subgoal — the deleted tuple itself is excluded.
  bool check_pinned_neg =
      pinned.kind == Literal::Kind::kNegated && !removal;

  // extend_literal: -2 = everything is local (centroid / local-only final),
  // -1 = per-mode default, >= 0 = only that literal (multipass).
  auto extendable = [&](size_t i) {
    if (i == delta.pinned_literal) return false;
    if (rule.body[i].kind != Literal::Kind::kPositive) return false;
    if (extend_literal == -2) return true;
    if (extend_literal >= 0) return i == static_cast<size_t>(extend_literal);
    if (at_launch) return launch_ok[i] != 0;
    // Sweep node: literals not resolvable at launch.
    return launch_ok[i] == 0;
  };
  bool all_local = extend_literal == -2;

  std::vector<PartialWire> out;
  std::vector<PartialWire> work = std::move(*partials);
  partials->clear();
  // Per-step rule-eval budget (EngineOptions::budget): bound how many
  // partials one evaluation step may expand. Removal passes are exempt —
  // shedding a removal partial would strand the retraction it carries.
  size_t eval_cap =
      budget_on() && !removal ? shared_->budget.max_eval_work : 0;
  size_t evaluated = 0;
  while (!work.empty()) {
    if (eval_cap > 0 && evaluated >= eval_cap) {
      for (size_t i = 0; i < work.size(); ++i) {
        RecordShed(ctx, "eval", DeltaHead(delta));
      }
      work.clear();
      break;
    }
    ++evaluated;
    PartialWire p = std::move(work.back());
    work.pop_back();
    if (!EvalFilters(delta, &p)) continue;

    // Negation checks. Removal passes skip them entirely: removing a
    // derivation is idempotent (a never-added derivation is a no-op), and
    // filtering removals through negations can orphan derivations whose
    // blocker arrived after they were added.
    bool dead = false;
    for (size_t i = 0; !removal && i < rule.body.size() && !dead; ++i) {
      const Literal& lit = rule.body[i];
      bool is_pinned = (i == delta.pinned_literal);
      if (lit.kind != Literal::Kind::kNegated) continue;
      if (is_pinned && !check_pinned_neg) continue;
      if (!is_pinned && (p.matched_mask & (1u << i))) continue;  // verified
      // Only check once ground.
      std::vector<SymbolId> vars;
      lit.atom.CollectVariables(&vars);
      bool bound = std::all_of(vars.begin(), vars.end(), [&](SymbolId v) {
        return p.bindings.IsBound(v);
      });
      if (!bound) continue;
      std::optional<std::vector<Term>> args =
          GroundArgs(lit.atom.args, p.bindings, shared_->registry);
      if (!args.has_value()) continue;
      std::optional<TupleId> exclude;
      if (is_pinned) exclude = update_id;
      if (NegMatchLocally(lit.atom.predicate, *args, update_ts, exclude)) {
        dead = true;
        break;
      }
      // Maskable negations (data fully visible here) are done for good.
      if (!is_pinned &&
          (all_local || (at_launch && launch_ok[i] != 0))) {
        p.matched_mask |= (1u << i);
      }
    }
    if (dead) continue;

    // Extensions.
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (p.matched_mask & (1u << i)) continue;
      if (!extendable(i)) continue;
      ProbeReplicas(rule.body[i], static_cast<uint32_t>(i), p, update_ts,
                    removal,
                    [&](PartialWire p2) { work.push_back(std::move(p2)); });
    }
    out.push_back(std::move(p));
  }
  *partials = std::move(out);
}

std::vector<NodeId> NodeRuntime::SweepPath(const DeltaPlan& delta,
                                           NodeId source, uint32_t pass_index,
                                           bool removal) const {
  // Retraction protocol: removal passes sweep the whole serpentine even for
  // column-sweep deltas. A column sweep touches one node per band, and if
  // that node rebooted away its replicas the deletion's removal join comes
  // up empty and the derived result is stranded; the full sweep finds any
  // surviving band replica. Removals are idempotent, so the duplicate
  // emissions from multi-replica bands are absorbed at the homes.
  bool serpentine = delta.strategy == JoinStrategy::kSerpentine ||
                    (removal && retraction_on());
  std::vector<NodeId> path = serpentine
                                 ? shared_->regions->SerpentinePath()
                                 : shared_->regions->VerticalPath(source);
  if (pass_index % 2 == 1) std::reverse(path.begin(), path.end());
  return path;
}

NodeId NodeRuntime::BandAlternate(NodeId dead) const {
  const std::vector<NodeId>& band = shared_->regions->HorizontalPath(dead);
  const Location& at = shared_->topology->location(dead);
  NodeId best = kNoNode;
  double best_d = 0;
  for (NodeId v : band) {
    if (v == dead) continue;
    if (v != id_ && shared_->liveness.IsDown(v)) continue;
    double d = shared_->topology->location(v).DistanceTo(at);
    if (best == kNoNode || d < best_d - 1e-12) {
      best_d = d;
      best = v;
    }
  }
  return best;
}

std::vector<NodeId> NodeRuntime::RepairVisitList(
    const DeltaPlan& delta, const std::vector<NodeId>& path) const {
  std::vector<NodeId> out;
  out.reserve(path.size());
  for (NodeId v : path) {
    // Never skip ourselves: a node cannot suspect itself, and a false
    // suspicion by others must not make it drop out of its own sweep.
    if (v == id_ || !shared_->liveness.IsDown(v)) {
      out.push_back(v);
      continue;
    }
    ++shared_->stats.skipped_sweep_nodes;
    if (delta.strategy == JoinStrategy::kColumnSweep) {
      NodeId alt = BandAlternate(v);
      if (alt != kNoNode) out.push_back(alt);
    }
    // Serpentine visits every node anyway; a down node is simply skipped
    // (its replicas are unreachable regardless of who we ask).
  }
  return out;
}

std::vector<NodeId> NodeRuntime::LiveSweepPath(const DeltaPlan& delta,
                                               NodeId source,
                                               uint32_t pass_index,
                                               bool removal) const {
  std::vector<NodeId> path = SweepPath(delta, source, pass_index, removal);
  if (!transport_on()) return path;
  return RepairVisitList(delta, path);
}

void NodeRuntime::AdvancePass(NodeContext* ctx, JoinPassWire jp,
                              std::vector<NodeId> visit) {
  if (!visit.empty()) {
    jp.final_target = visit.front();
    visit.erase(visit.begin());
    jp.path_remaining = std::move(visit);
    if (jp.final_target == id_) {
      HandleJoinPass(ctx, std::move(jp));
    } else {
      ++shared_->stats.pass_messages;
      SendEngineMessage(ctx, jp.final_target, jp.Encode());
    }
    return;
  }
  // End of this pass.
  const DeltaPlan& delta = shared_->plan.deltas[jp.delta_index];
  uint32_t total_passes = shared_->total_passes[jp.delta_index];
  if (jp.pass_index + 1 < total_passes) {
    // The next pass's path starts where the previous one ended; this node
    // must process again under the new pass semantics, so it stays in.
    jp.pass_index += 1;
    std::vector<NodeId> path =
        LiveSweepPath(delta, jp.update_id.source, jp.pass_index, jp.removal);
    AdvancePass(ctx, std::move(jp), std::move(path));
    return;
  }
  EmitComplete(ctx, delta, jp.removal, jp.update_ts, std::move(jp.partials),
               jp.degraded);
}

bool NodeRuntime::SendStoreWalk(NodeContext* ctx, StoreWire store,
                                std::vector<NodeId> visit) {
  if (transport_on()) {
    std::vector<NodeId> live;
    live.reserve(visit.size());
    for (NodeId v : visit) {
      if (v != id_ && shared_->liveness.IsDown(v)) {
        ++shared_->stats.skipped_store_nodes;
        // A skipped *insert* is recoverable — the rest of the band holds
        // the tuple and anti-entropy can refill the gap. A skipped
        // *deletion mark* is not: if the suspicion was false (pure loss),
        // the node keeps serving the tuple as alive. Owe it the mark
        // directly on the retraction-retry schedule.
        if (retraction_on() && store.deletion) {
          ++shared_->stats.retraction_obligations;
          StoreWire direct = store;
          direct.final_target = v;
          direct.path_remaining.clear();
          QueueRetractionRetry(ctx, v, direct.Encode(), kRetractionRounds - 1);
        }
        continue;
      }
      live.push_back(v);
    }
    visit = std::move(live);
  }
  if (visit.empty()) return false;
  store.final_target = visit.front();
  visit.erase(visit.begin());
  store.path_remaining = std::move(visit);
  SendEngineMessage(ctx, store.final_target, store.Encode());
  return true;
}

void NodeRuntime::LaunchJoinPasses(NodeContext* ctx, SymbolId pred,
                                   const Fact& fact, const TupleId& id,
                                   StreamOp op, Timestamp update_ts) {
  LaunchAggregates(ctx, pred, fact, id, op, update_ts);
  auto dit = shared_->plan.deltas_by_pred.find(pred);
  if (dit == shared_->plan.deltas_by_pred.end()) return;
  for (size_t delta_index : dit->second) {
    const DeltaPlan& delta = shared_->plan.deltas[delta_index];
    const Rule& rule = shared_->plan.program.rules()[delta.rule_index];
    const Literal& pinned = rule.body[delta.pinned_literal];
    PartialWire p0;
    if (!SolveMatchTerms(pinned.atom.args, fact.args(), &p0.bindings,
                         shared_->registry)) {
      continue;  // constants in the pinned literal do not match this tuple
    }
    p0.matched_mask = 1u << delta.pinned_literal;
    if (pinned.kind == Literal::Kind::kPositive) {
      p0.support.emplace_back(static_cast<uint32_t>(delta.pinned_literal),
                              id);
    }
    bool removal =
        (pinned.kind == Literal::Kind::kPositive) == (op == StreamOp::kDelete);
    // §IV-B: deleting a tuple of a negated stream only revives derivations
    // if no *other* tuple matches the same ground subgoal. The duplicates
    // live on this node (local/home storage) or are re-checked along the
    // sweep; either way a local hit blocks everything early.
    if (pinned.kind == Literal::Kind::kNegated && op == StreamOp::kDelete &&
        NegMatchLocally(pred, fact.args(), update_ts, id)) {
      continue;
    }
    ++shared_->stats.join_passes;

    std::vector<PartialWire> partials = {std::move(p0)};
    if (delta.strategy != JoinStrategy::kLocalRoute &&
        delta.strategy != JoinStrategy::kCentroid) {
      // Resolve launch-evaluable literals here.
      ProcessPartialsHere(ctx, delta, removal, update_ts, id,
                          /*extend_literal=*/-1, /*at_launch=*/true,
                          &partials);
    }
    if (partials.empty()) continue;

    JoinPassWire jp;
    jp.delta_index = static_cast<uint32_t>(delta_index);
    jp.removal = removal;
    jp.update_ts = update_ts;
    jp.update_id = id;
    jp.pass_index = 0;
    jp.degraded = repair_.degraded() || ShedTaints(DeltaHead(delta));
    jp.partials = std::move(partials);

    switch (delta.strategy) {
      case JoinStrategy::kLocalOnly:
        EmitComplete(ctx, delta, removal, update_ts, std::move(jp.partials),
                     jp.degraded);
        break;
      case JoinStrategy::kCentroid: {
        NodeId centroid = shared_->regions->CentroidNode();
        jp.final_target = centroid;
        if (centroid == id_) {
          HandleJoinPass(ctx, std::move(jp));
        } else {
          ++shared_->stats.pass_messages;
          SendEngineMessage(ctx, centroid, jp.Encode());
        }
        break;
      }
      case JoinStrategy::kColumnSweep:
      case JoinStrategy::kSerpentine: {
        AdvancePass(ctx, std::move(jp),
                    LiveSweepPath(delta, id.source, 0, removal));
        break;
      }
      case JoinStrategy::kLocalRoute: {
        jp.final_target = id_;
        HandleJoinPass(ctx, std::move(jp));
        break;
      }
    }
  }
}

void NodeRuntime::HandleJoinPass(NodeContext* ctx, JoinPassWire jp) {
  if (jp.delta_index >= shared_->plan.deltas.size()) {
    DropFrame();  // wire-derived index: damaged frame, not a bug
    return;
  }
  const DeltaPlan& delta = shared_->plan.deltas[jp.delta_index];
  // A rebooted, not-yet-resynced store may be missing band replicas — and
  // so may a store that shed replicas or work under a budget: taint every
  // pass that runs through either so its results are flagged.
  if (repair_.degraded() || ShedTaints(DeltaHead(delta))) jp.degraded = true;
  shared_->stats.max_partials_in_message = std::max(
      shared_->stats.max_partials_in_message,
      static_cast<uint64_t>(jp.partials.size()));
  if (delta.strategy == JoinStrategy::kLocalRoute) {
    RunRouteStep(ctx, std::move(jp));
    return;
  }
  RunPassHere(ctx, std::move(jp));
}

void NodeRuntime::RunPassHere(NodeContext* ctx, JoinPassWire jp) {
  ScopedSpan span(shared_->metrics, id_, "sweep_pass");
  const DeltaPlan& delta = shared_->plan.deltas[jp.delta_index];

  if (delta.strategy == JoinStrategy::kCentroid ||
      delta.strategy == JoinStrategy::kLocalOnly) {
    // All data is local: extend everything, then emit.
    ProcessPartialsHere(ctx, delta, jp.removal, jp.update_ts, jp.update_id,
                        /*extend_literal=*/-2, /*at_launch=*/false,
                        &jp.partials);
    EmitComplete(ctx, delta, jp.removal, jp.update_ts, std::move(jp.partials),
                 jp.degraded);
    return;
  }

  // Sweep node.
  int extend_literal = -1;
  if (delta.multipass) {
    extend_literal = jp.pass_index < delta.pass_literals.size()
                         ? static_cast<int>(delta.pass_literals[jp.pass_index])
                         : INT32_MAX;  // trailing negation pass: no extension
  } else if (jp.pass_index >= 1) {
    extend_literal = INT32_MAX;  // single-pass negation sweep
  }
  ProcessPartialsHere(ctx, delta, jp.removal, jp.update_ts, jp.update_id,
                      extend_literal, /*at_launch=*/false, &jp.partials);

  if (jp.partials.empty()) return;  // nothing left to carry

  std::vector<NodeId> visit = std::move(jp.path_remaining);
  jp.path_remaining.clear();
  if (transport_on()) {
    // Drop/replace sweep nodes that became suspect since the pass started.
    visit = RepairVisitList(delta, visit);
  }
  AdvancePass(ctx, std::move(jp), std::move(visit));
}

void NodeRuntime::RunRouteStep(NodeContext* ctx, JoinPassWire jp) {
  const DeltaPlan& delta = shared_->plan.deltas[jp.delta_index];
  const Rule& rule = shared_->plan.program.rules()[delta.rule_index];
  std::vector<PartialWire> partials = std::move(jp.partials);

  size_t step_idx = jp.pass_index;
  while (step_idx < delta.steps.size() && !partials.empty()) {
    const RouteStep& step = delta.steps[step_idx];
    const Literal& lit = rule.body[step.literal];

    if (step.where == RouteStep::Where::kAtArgNode) {
      // Partition by target node; keep ours, forward the rest.
      std::map<NodeId, std::vector<PartialWire>> groups;
      std::vector<PartialWire> mine;
      for (PartialWire& p : partials) {
        Term t = p.bindings.Apply(lit.atom.args[step.arg]);
        StatusOr<Term> n = EvalTerm(t, shared_->registry);
        if (n.ok()) t = std::move(n).value();
        if (!t.is_constant() || !t.value().is_int()) {
          Fault("route argument is not a node id in " + lit.ToString());
          continue;
        }
        NodeId target = static_cast<NodeId>(t.value().as_int());
        if (target < 0 || target >= shared_->topology->node_count()) {
          Fault(StrFormat("route target %d out of range", target));
          continue;
        }
        if (target == id_) {
          mine.push_back(std::move(p));
        } else {
          groups[target].push_back(std::move(p));
        }
      }
      for (auto& [target, group] : groups) {
        JoinPassWire next = jp;
        next.pass_index = static_cast<uint32_t>(step_idx);
        next.final_target = target;
        next.partials = std::move(group);
        ++shared_->stats.pass_messages;
        SendEngineMessage(ctx, target, next.Encode());
      }
      partials = std::move(mine);
      if (partials.empty()) return;
    }

    // Evaluate the step's literal locally.
    std::vector<PartialWire> out;
    for (PartialWire& p : partials) {
      if (!EvalFilters(delta, &p)) continue;
      if (lit.kind == Literal::Kind::kPositive) {
        ProbeReplicas(lit, static_cast<uint32_t>(step.literal), p,
                      jp.update_ts, jp.removal, [&](PartialWire p2) {
                        if (EvalFilters(delta, &p2)) {
                          out.push_back(std::move(p2));
                        }
                      });
      } else {  // negated step
        if (jp.removal) {
          // Removal passes skip negation filters (see ProcessPartialsHere).
          p.matched_mask |= (1u << step.literal);
          out.push_back(std::move(p));
          continue;
        }
        std::optional<std::vector<Term>> args =
            GroundArgs(lit.atom.args, p.bindings, shared_->registry);
        if (!args.has_value()) {
          Fault("negated route step not ground: " + lit.ToString());
          continue;
        }
        if (NegMatchLocally(lit.atom.predicate, *args, jp.update_ts,
                            std::nullopt)) {
          continue;  // blocked
        }
        p.matched_mask |= (1u << step.literal);
        out.push_back(std::move(p));
      }
    }
    partials = std::move(out);
    ++step_idx;
  }
  if (partials.empty()) return;

  // Pinned-negated deletion check (§IV-B): done at launch node for
  // local-route (the duplicates live at the update's own home). jp may have
  // travelled, so re-checking here would be incomplete; the launch node did
  // it via LaunchJoinPasses -> ... -> RunRouteStep step 0 at the source.
  EmitComplete(ctx, delta, jp.removal, jp.update_ts, std::move(partials),
               jp.degraded);
}

void NodeRuntime::EmitComplete(NodeContext* ctx, const DeltaPlan& delta,
                               bool removal, Timestamp update_ts,
                               std::vector<PartialWire> partials,
                               bool degraded) {
  const Rule& rule = shared_->plan.program.rules()[delta.rule_index];
  const auto& sweep_neg =
      shared_->sweep_checked_negation[&delta - shared_->plan.deltas.data()];
  for (PartialWire& p : partials) {
    if (!EvalFilters(delta, &p)) continue;
    if (!IsPositiveComplete(delta, p)) continue;
    bool ok = true;
    for (size_t i = 0; i < rule.body.size() && ok; ++i) {
      if (p.matched_mask & (1u << i)) continue;
      if (i == delta.pinned_literal) continue;
      const Literal& lit = rule.body[i];
      if (lit.kind == Literal::Kind::kNegated) {
        // Sweep-checked negations were verified along the pass; removal
        // passes skip negation filters altogether; anything else unmasked
        // means the plan failed to place it.
        if (!sweep_neg[i] && !removal) ok = false;
      } else {
        ok = false;  // unresolved filter: should not happen for safe rules
      }
    }
    if (!ok) {
      Fault("incomplete partial at emission for rule " + rule.ToString());
      continue;
    }
    // Build the head.
    std::optional<std::vector<Term>> args =
        GroundArgs(rule.head.args, p.bindings, shared_->registry);
    if (!args.has_value()) {
      Fault("non-ground head at emission for rule " + rule.ToString());
      continue;
    }
    Fact head(rule.head.predicate, std::move(*args));

    ResultWire rw;
    rw.pred = head.predicate();
    rw.fact = head;
    rw.removal = removal;
    rw.rule_id = rule.id;
    std::sort(p.support.begin(), p.support.end());
    for (const auto& [lit, tid] : p.support) rw.support.push_back(tid);
    rw.update_ts = update_ts;
    rw.degraded = degraded;
    ShipResult(ctx, std::move(rw));
  }
}

void NodeRuntime::ShipResult(NodeContext* ctx, ResultWire rw) {
  // Shed taint rides the existing degraded bit: results shipped by a node
  // that discarded state or work their head depends on (including
  // aggregate emissions from a group home that shed) are flagged "sound
  // but possibly partial".
  if (ShedTaints(rw.pred)) rw.degraded = true;
  NodeId home = HomeOf(shared_->plan.pred_plan(rw.pred), rw.fact);
  rw.final_target = home;
  ++shared_->stats.results_emitted;
  if (home == id_) {
    ApplyResult(ctx, rw);
  } else {
    SendEngineMessage(ctx, home, rw.Encode());
  }
}

void NodeRuntime::LaunchAggregates(NodeContext* ctx, SymbolId pred,
                                   const Fact& fact, const TupleId& id,
                                   StreamOp op, Timestamp update_ts) {
  auto ait = shared_->plan.aggregates_by_pred.find(pred);
  if (ait == shared_->plan.aggregates_by_pred.end()) return;
  for (size_t plan_index : ait->second) {
    const AggregatePlan& plan = shared_->plan.aggregates[plan_index];
    const Rule& rule = shared_->plan.program.rules()[plan.rule_index];
    const Literal& source = rule.body[plan.source_literal];
    PartialWire p;
    if (!SolveMatchTerms(source.atom.args, fact.args(), &p.bindings,
                         shared_->registry)) {
      continue;
    }
    p.matched_mask = 1u << plan.source_literal;
    DeltaPlan filter_plan;  // EvalFilters only consults the rule index
    filter_plan.rule_index = plan.rule_index;
    filter_plan.pinned_literal = plan.source_literal;
    if (!EvalFilters(filter_plan, &p)) continue;
    // Group key: the head arguments except the aggregate position.
    std::optional<std::vector<Term>> group = GroundArgs(
        rule.head.args, p.bindings, shared_->registry, plan.agg_position);
    StatusOr<Term> value =
        EvalTerm(p.bindings.Apply(plan.input), shared_->registry);
    if (!group.has_value() || !value.ok() || !value->is_ground()) {
      Fault("aggregate group/value not ground for rule " + rule.ToString());
      continue;
    }
    AggWire aw;
    aw.plan_index = static_cast<uint32_t>(plan_index);
    aw.removal = op == StreamOp::kDelete;
    aw.group = std::move(*group);
    aw.value = std::move(value).value();
    aw.contributor = id;
    aw.update_ts = update_ts;
    // Group home: stable hash of (rule, group key).
    std::string key = StrFormat("agg%zu", plan_index);
    for (const Term& t : aw.group) key += "\x1f" + t.ToString();
    NodeId home = shared_->geohash->HomeForKey(Fnv1a(key));
    aw.final_target = home;
    if (home == id_) {
      HandleAgg(ctx, std::move(aw));
    } else {
      SendEngineMessage(ctx, home, aw.Encode());
    }
  }
}

void NodeRuntime::HandleAgg(NodeContext* ctx, AggWire aw) {
  if (aw.plan_index >= shared_->plan.aggregates.size()) {
    DropFrame();  // wire-derived index: damaged frame, not a bug
    return;
  }
  const AggregatePlan& plan = shared_->plan.aggregates[aw.plan_index];
  const Rule& rule = shared_->plan.program.rules()[plan.rule_index];

  std::string key;
  for (const Term& t : aw.group) key += t.ToString() + "\x1f";
  AggGroup& group = agg_state_[aw.plan_index][key];

  if (aw.removal) {
    group.contributions.erase(aw.contributor);
  } else {
    group.contributions.emplace(aw.contributor, aw.value);
    // Windowed source streams: the contribution retires with its tuple.
    Timestamp window =
        shared_->plan.pred_plan(rule.body[plan.source_literal].atom.predicate)
            .window;
    if (window != kNoWindow) {
      AggWire expiry = aw;
      expiry.removal = true;
      SimTime delay =
          std::max<SimTime>(0, aw.update_ts + window - ctx->LocalTime());
      ctx->SetTimer(delay, [this, ctx, expiry = std::move(expiry)]() {
        HandleAgg(ctx, expiry);
      });
    }
  }

  // Recompute the aggregate for this group: a left-to-right monoid fold
  // over the live contributions (window/operator state is an explicit
  // mergeable AggState, eval/monoid.h).
  std::optional<Fact> next;
  if (!group.contributions.empty()) {
    AggState acc = AggIdentity();
    for (const auto& [cid, v] : group.contributions) {
      AggAccumulate(plan.kind, v, &acc);
    }
    Term result = AggExtract(plan.kind, acc);
    std::vector<Term> args;
    size_t gi = 0;
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      args.push_back(i == plan.agg_position ? result : aw.group[gi++]);
    }
    next = Fact(rule.head.predicate, std::move(args));
  }

  if (group.emitted == next) return;  // value unchanged
  Timestamp now = ctx->LocalTime();
  Derivation d;
  d.rule_id = rule.id;
  if (group.emitted.has_value()) {
    ResultWire rw;
    rw.pred = group.emitted->predicate();
    rw.fact = *group.emitted;
    rw.removal = true;
    rw.rule_id = rule.id;
    rw.update_ts = now;
    ShipResult(ctx, std::move(rw));
  }
  if (next.has_value()) {
    if (provenance_on()) {
      // The aggregate's lineage lives here at the group home: result wires
      // ship with empty support (the contributor set can be large), so this
      // edge is what ties the emitted fact to its contributors.
      ProvenanceEdge pe;
      pe.kind = ProvenanceEdge::Kind::kAgg;
      pe.time = now;
      pe.node = id_;
      pe.pred = next->predicate();
      pe.fact = *next;
      pe.rule_id = rule.id;
      pe.inputs.reserve(group.contributions.size());
      for (const auto& [cid, value] : group.contributions) {
        pe.inputs.push_back(TraceIdFor(cid));
      }
      pe.latency_us = now - aw.update_ts;
      RecordProvenance(std::move(pe));
    }
    ResultWire rw;
    rw.pred = next->predicate();
    rw.fact = *next;
    rw.removal = false;
    rw.rule_id = rule.id;
    rw.update_ts = now;
    ShipResult(ctx, std::move(rw));
  }
  group.emitted = next;
}

NodeId NodeRuntime::HomeOf(const PredicatePlan& plan, const Fact& fact) const {
  if (plan.home_arg.has_value()) {
    const Term& t = fact.args()[*plan.home_arg];
    if (t.is_constant() && t.value().is_int()) {
      NodeId n = static_cast<NodeId>(t.value().as_int());
      if (n >= 0 && n < shared_->topology->node_count()) return n;
    }
    // Fall through to hashing on malformed home args.
  }
  return shared_->geohash->HomeNode(fact);
}

void NodeRuntime::HandleResult(NodeContext* ctx, ResultWire rw) {
  ApplyResult(ctx, rw);
}

void NodeRuntime::ApplyResult(NodeContext* ctx, const ResultWire& rw) {
  // Multi-tenant fan-out, home side: a result of a deduped canonical
  // sub-plan is also applied, relabeled, into each subscribed tenant's
  // alias home relation — same support, degraded bit, and removal
  // semantics, with the tenant id recorded on the copy. Fanning out here
  // (at the canonical result home) instead of at the deriving node keeps
  // the marginal network cost of an overlapping tenant at zero: the alias
  // relation is co-located with the canonical one and no extra messages
  // are shipped. Copies carry a nonzero tenant id so they never fan out
  // again; single-tenant engines have an empty table and never reach the
  // lookup.
  if (rw.tenant == 0 && !shared_->result_fanout.empty()) {
    auto fit = shared_->result_fanout.find(rw.pred);
    if (fit != shared_->result_fanout.end()) {
      for (const auto& [tenant, alias] : fit->second) {
        ResultWire copy = rw;
        copy.tenant = tenant;
        copy.pred = alias;
        copy.fact = Fact(alias, rw.fact.args());
        copy.final_target = id_;
        ApplyResult(ctx, copy);
      }
    }
  }
  if (rw.degraded) {
    // Observability only: the result is sound, but its producing pass ran
    // through a not-yet-resynced store and siblings may be missing.
    ++shared_->stats.degraded_results;
    if (shared_->metrics != nullptr) {
      shared_->metrics->Add(id_, "repair", "degraded_results");
    }
  }
  HomeRel& rel = home_[rw.pred];
  auto [it, inserted] = rel.map.emplace(rw.fact, HomeEntry{});
  if (inserted) rel.order.push_back(rw.fact);
  HomeEntry& e = it->second;
  // Sticky: once any contributing pass ran degraded (repair or shedding),
  // the reported result stays flagged for the shed-soundness invariant.
  if (rw.degraded) e.degraded = true;

  Derivation d;
  d.rule_id = rw.rule_id;
  d.support = rw.support;

  if (!rw.removal) {
    if (retraction_on() && !d.support.empty() && e.anti.count(d) != 0) {
      // A removal for this exact support set already landed. Support tuple
      // ids are never reused, so the derivation can never legitimately come
      // back — this insert is a retransmission-delayed straggler that would
      // otherwise revive a retracted result.
      return;
    }
    if (!e.derivs.insert(d).second) return;  // duplicate derivation
    ++shared_->stats.derivations_added;
    if (provenance_on()) {
      ProvenanceEdge pe;
      pe.kind = ProvenanceEdge::Kind::kRule;
      pe.time = ctx->LocalTime();
      pe.node = id_;
      pe.pred = rw.pred;
      pe.fact = rw.fact;
      pe.rule_id = rw.rule_id;
      pe.inputs.reserve(rw.support.size());
      for (const TupleId& sid : rw.support) {
        pe.inputs.push_back(TraceIdFor(sid));
      }
      pe.latency_us = pe.time - rw.update_ts;
      RecordProvenance(std::move(pe));
    }
    if (e.alive || e.pending) return;
    // First derivation: the derived tuple will be generated here (§III-B),
    // after the finalization wait of §IV-C — a retraction arriving within
    // the wait silently cancels the generation.
    e.pending = true;
    uint64_t epoch = ++e.epoch;
    ctx->SetTimer(shared_->timing.finalize_delay,
                  [this, ctx, pred = rw.pred, fact = rw.fact, epoch]() {
                    FinalizeGeneration(ctx, pred, fact, epoch);
                  });
  } else {
    if (retraction_on() && !d.support.empty()) e.anti.insert(d);
    if (e.derivs.erase(d) == 0) return;
    ++shared_->stats.derivations_removed;
    if (!e.derivs.empty()) return;
    if (e.pending) {
      // Retracted before generation: absorbed, no traffic.
      e.pending = false;
      ++e.epoch;
      return;
    }
    if (!e.alive) return;
    e.alive = false;
    Timestamp now = ctx->LocalTime();
    ++shared_->stats.derived_deletions;
    GenerateDerivedUpdate(ctx, rw.pred, rw.fact, e.id, StreamOp::kDelete, now);
  }
}

void NodeRuntime::FinalizeGeneration(NodeContext* ctx, SymbolId pred,
                                     const Fact& fact, uint64_t epoch) {
  auto hit = home_.find(pred);
  if (hit == home_.end()) return;
  auto fit = hit->second.map.find(fact);
  if (fit == hit->second.map.end()) return;
  HomeEntry& e = fit->second;
  if (!e.pending || e.epoch != epoch) return;
  e.pending = false;
  if (e.derivs.empty()) return;
  Timestamp now = ctx->LocalTime();
  e.alive = true;
  e.id = TupleId{id_, now, seq_++};
  e.gen_ts = now;
  ++shared_->stats.derived_generations;
  if (provenance_on()) {
    ProvenanceEdge pe;
    pe.kind = ProvenanceEdge::Kind::kGen;
    pe.time = now;
    pe.node = id_;
    pe.pred = pred;
    pe.fact = fact;
    pe.tid = TraceIdFor(e.id);
    RecordProvenance(std::move(pe));
  }
  GenerateDerivedUpdate(ctx, pred, fact, e.id, StreamOp::kInsert, now);
  // Windowed derived streams expire (generating a deletion update).
  Timestamp window = shared_->plan.pred_plan(pred).window;
  if (window != kNoWindow) {
    TupleId gen_id = e.id;
    ctx->SetTimer(window, [this, ctx, pred, fact, gen_id]() {
      auto hit2 = home_.find(pred);
      if (hit2 == home_.end()) return;
      auto fit2 = hit2->second.map.find(fact);
      if (fit2 == hit2->second.map.end()) return;
      HomeEntry& entry = fit2->second;
      if (!entry.alive || entry.id != gen_id) return;
      entry.alive = false;
      entry.derivs.clear();
      Timestamp now2 = ctx->LocalTime();
      ++shared_->stats.derived_deletions;
      GenerateDerivedUpdate(ctx, pred, fact, gen_id, StreamOp::kDelete, now2);
    });
  }
}

void NodeRuntime::GenerateDerivedUpdate(NodeContext* ctx, SymbolId pred,
                                        const Fact& fact, const TupleId& id,
                                        StreamOp op, Timestamp ts) {
  StartStoragePhase(ctx, pred, fact, id, op == StreamOp::kInsert ? ts : 0,
                    /*deletion=*/op == StreamOp::kDelete, ts);
  ctx->SetTimer(shared_->timing.JoinDelay(),
                [this, ctx, pred, fact, id, op, ts]() {
                  LaunchJoinPasses(ctx, pred, fact, id, op, ts);
                });
}

std::vector<Fact> NodeRuntime::HomeFacts(SymbolId pred) const {
  std::vector<Fact> out;
  auto it = home_.find(pred);
  if (it == home_.end()) return out;
  for (const Fact& f : it->second.order) {
    if (it->second.map.at(f).alive) out.push_back(f);
  }
  return out;
}

std::vector<Fact> NodeRuntime::UndegradedHomeFacts(SymbolId pred) const {
  std::vector<Fact> out;
  auto it = home_.find(pred);
  if (it == home_.end()) return out;
  for (const Fact& f : it->second.order) {
    const HomeEntry& e = it->second.map.at(f);
    if (e.alive && !e.degraded) out.push_back(f);
  }
  return out;
}

std::vector<PredDigest> NodeRuntime::ShareableDigests(NodeId other,
                                                      Timestamp now) const {
  return repair_.ComputeDigests(other, now);
}

bool NodeRuntime::OwnsHome(const Fact& fact) const {
  return HomeOf(shared_->plan.pred_plan(fact.predicate()), fact) == id_;
}

size_t NodeRuntime::ReplicaCount() const {
  size_t n = 0;
  for (const auto& [pred, reps] : replicas_) n += reps.size();
  return n;
}

size_t NodeRuntime::DerivationCount() const {
  size_t n = 0;
  for (const auto& [pred, rel] : home_) {
    for (const auto& [fact, e] : rel.map) n += e.derivs.size();
  }
  return n;
}

}  // namespace deduce

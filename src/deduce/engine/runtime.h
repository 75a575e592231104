#ifndef DEDUCE_ENGINE_RUNTIME_H_
#define DEDUCE_ENGINE_RUNTIME_H_

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "deduce/common/logging.h"
#include "deduce/common/metrics.h"
#include "deduce/common/trace.h"
#include "deduce/datalog/unify.h"
#include "deduce/engine/plan.h"
#include "deduce/engine/provenance.h"
#include "deduce/engine/regions.h"
#include "deduce/engine/repair.h"
#include "deduce/engine/wire.h"
#include "deduce/eval/incremental.h"  // Derivation
#include "deduce/routing/geo_hash.h"
#include "deduce/routing/routing.h"

namespace deduce {

/// Engine-level counters, shared by all node runtimes (single-process
/// simulation; the distributed system would aggregate these offline).
struct EngineStats {
  uint64_t tuples_injected = 0;
  uint64_t join_passes = 0;
  uint64_t pass_messages = 0;
  uint64_t results_emitted = 0;
  uint64_t derivations_added = 0;
  uint64_t derivations_removed = 0;
  uint64_t derived_generations = 0;
  uint64_t derived_deletions = 0;
  uint64_t replicas_stored = 0;
  uint64_t max_partials_in_message = 0;

  // --- fault-tolerance counters (reliable transport + repair). All of
  //     these except the ack counters are exactly zero in a loss-free,
  //     failure-free run; the ack counters are zero unless the transport
  //     is enabled. ---
  /// Envelope retransmissions after an RTO expiry.
  uint64_t retransmissions = 0;
  uint64_t acks_sent = 0;
  uint64_t acks_received = 0;
  /// Envelopes received more than once (a retransmit raced a lost ack).
  uint64_t duplicates_suppressed = 0;
  /// Envelopes abandoned after the retry budget ran out; the destination
  /// becomes suspected-down.
  uint64_t gave_up_messages = 0;
  /// Hops chosen differently from plain geo routing to detour around
  /// suspected-down nodes.
  uint64_t rerouted_hops = 0;
  /// Sweep-path nodes skipped or replaced because they were suspected down.
  uint64_t skipped_sweep_nodes = 0;
  /// Storage-walk nodes skipped because they were suspected down.
  uint64_t skipped_store_nodes = 0;
  /// Given-up messages salvaged by path repair (sweep or storage walk).
  uint64_t repaired_messages = 0;
  /// Frames dropped because they failed to decode (or failed the optional
  /// end-to-end checksum): truncated, bit-flipped or unknown-type payloads.
  /// Zero unless the network corrupts traffic; a malformed frame is
  /// counted and discarded, never a fault (see EngineOptions::checksum).
  uint64_t decode_errors = 0;
  /// Deletion-critical give-ups (deletion-mark stores, removal results /
  /// aggregates) requeued as point-to-point retries by the retraction
  /// protocol (TransportOptions::retraction).
  uint64_t retraction_requeues = 0;
  /// Direct tombstone sends queued for storage-walk nodes that were
  /// skipped while suspected down (a skipped insert is re-derivable from
  /// the rest of the band; a skipped deletion mark is not).
  uint64_t retraction_obligations = 0;

  // --- overload counters (EngineOptions::budget). All zero when budgets
  //     are off. ---
  /// Load-shedding actions of any kind: replica-store refusals/evictions,
  /// dropped transport envelopes, dropped join partials. Every shed also
  /// taints the shedding node so downstream results carry the degraded
  /// bit (docs/FAULTS.md "Overload and shedding").
  uint64_t sheds = 0;
  /// Injections refused at the front door (bounded ingress queue full, or
  /// the reject-injection policy refusing a full replica store). The
  /// sender sees a non-OK Status; nothing entered, nothing is tainted.
  uint64_t ingress_rejects = 0;
  /// Replica-store evictions under the shed-farthest-window policy (the
  /// oldest live replica is early-expired via a deletion mark, keeping
  /// retraction sound).
  uint64_t budget_evictions = 0;
  /// MemSqueeze chaos events applied (budget caps shrunk mid-run).
  uint64_t budget_squeezes = 0;

  // --- state-repair counters (EngineOptions::repair; repair.h). All zero
  //     when both repair modes are off. ---
  /// Digest exchanges started (reboot resyncs + anti-entropy rounds).
  uint64_t repair_digest_rounds = 0;
  /// Digest requests served.
  uint64_t repair_digest_replies = 0;
  /// Replica records merged into a store from repair pushes.
  uint64_t repair_replicas_pulled = 0;
  /// Replica records shipped while serving repair pulls.
  uint64_t repair_replicas_pushed = 0;
  /// Reboot resyncs begun (one per OnRestart with repair enabled).
  uint64_t resyncs_started = 0;
  uint64_t resyncs_completed = 0;
  /// Resyncs given up (no alive band peer / attempt budget exhausted).
  uint64_t resyncs_abandoned = 0;
  /// Total local time spent degraded between reboot and resync completion.
  uint64_t resync_time_us = 0;
  /// Results whose producing pass ran through a degraded node.
  uint64_t degraded_results = 0;
  /// Mirror of LivenessView::version (gauge): bumps once per suspicion
  /// change, making liveness churn visible in metrics snapshots.
  uint64_t liveness_epoch = 1;

  /// Runtime faults (decode failures, unroutable homes, ...). Non-empty
  /// means a bug or an injected fault; equivalence tests assert empty.
  std::vector<std::string> errors;

  /// Mirrors every counter into `registry` under the "engine" component
  /// (node -1: these are engine-global in the single-process simulation),
  /// making the registry snapshot self-contained. No-op when `registry` is
  /// null or disabled.
  void ExportTo(MetricsRegistry* registry) const;
};

/// End-to-end transport knobs. Off by default: engine messages are
/// best-effort unicasts exactly as before. When `reliable` is set, every
/// unicast engine message travels in a ReliableWire envelope that the
/// destination acknowledges; the origin retransmits on an RTO with
/// exponential backoff and gives up (marking the destination
/// suspected-down and attempting path repair) after `max_retries`
/// retransmissions.
struct TransportOptions {
  bool reliable = false;
  int max_retries = 4;
  double rto_backoff = 2.0;  ///< RTO multiplier per retransmission.
  /// Ceiling on the backed-off RTO. -1 = auto: 64x the message's initial
  /// RTO — beyond the reach of the default retry budget (2^4 < 64), so
  /// the auto cap never changes historical schedules, but a raised
  /// `max_retries` no longer grows the timeout unboundedly (a healed peer
  /// would otherwise wait hours for the next probe). 0 = uncapped.
  SimTime rto_max = -1;
  /// Randomized slack added to each armed RTO: the timer fires after
  /// rto * (1 + U[0, rto_jitter]), desynchronizing retransmit bursts from
  /// origins that gave up on the same dead hop simultaneously. 0 keeps
  /// the historical fixed schedule (and existing baselines) bit-exact;
  /// the chaos harness runs with 0.1.
  double rto_jitter = 0.0;
  /// Retraction protocol (docs/FAULTS.md): deletion-critical messages
  /// (deletion-mark stores, removal results/aggregates) that exhaust the
  /// retry budget are requeued point-to-point on a backoff timer instead
  /// of being dropped — a lost deletion otherwise leaves a phantom result
  /// standing forever (tests/scenarios/phantom-after-lost-delete). Also
  /// queues direct tombstone sends for storage-walk nodes skipped while
  /// suspected down, and numbers tombstones by deletion timestamp in the
  /// anti-entropy digests. Off by default: requires `reliable`.
  bool retraction = false;
};

/// What a node does when a resource budget is exceeded (BudgetOptions).
enum class ShedPolicy {
  /// Drop the arriving item: the replica store keeps what it has, the
  /// newest tuple is never recorded here.
  kShedNewest,
  /// Early-expire the oldest live replica (the one farthest into its
  /// window) to admit the new one. The victim keeps a deletion mark so
  /// removal sweeps still find it — shedding must never lose a
  /// retraction (docs/FAULTS.md).
  kShedFarthestWindow,
  /// Refuse new injections at the full node with a sender-visible error;
  /// stored state and in-flight work are never shed.
  kRejectInjection,
};

/// Per-node resource budgets (EngineOptions::budget). Off by default:
/// every cap unlimited, zero overhead, bit-identical schedules. When
/// enabled, a node that runs out of a budget sheds load under `policy`
/// instead of growing without bound; every shed is counted
/// (EngineStats::sheds), traced (phase "shed") and taints the node so
/// results produced through it carry the degraded bit — consumers can
/// distinguish "sound but possibly partial" from "complete". Shedding
/// never drops deletion-critical or aggregate traffic: a lost retraction
/// would leave an undegradable phantom standing, which would break the
/// shedding-soundness invariant (invariants.h).
struct BudgetOptions {
  bool enabled = false;
  /// Cap on live (undeleted, insert-seen) replicas a node stores per
  /// predicate; 0 = unlimited.
  size_t max_replicas_per_pred = 0;
  /// Cap on unacked reliable-transport envelopes a node keeps in flight;
  /// 0 = unlimited. Only sheddable (additive) envelopes are dropped.
  size_t max_inflight = 0;
  /// Cap on join partials one rule-evaluation step may expand; 0 =
  /// unlimited. Work beyond the cap is shed, not deferred.
  size_t max_eval_work = 0;
  /// Bounded ingress queue: cap on injections admitted at a node whose
  /// storage/join launch has not fired yet; 0 = unlimited. An injection
  /// over the cap is rejected with a sender-visible Status — the
  /// backpressure signal a resident `dlogd` front door needs.
  size_t max_ingress = 0;
  ShedPolicy policy = ShedPolicy::kShedNewest;

  /// MemSqueeze chaos axis: shrinks every active cap by `factor`
  /// (floored at 1) — the mid-run budget cut a co-tenant or a dying
  /// battery would impose.
  void Squeeze(double factor) {
    auto shrink = [factor](size_t cap) -> size_t {
      if (cap == 0) return 0;
      double scaled = static_cast<double>(cap) * factor;
      return scaled < 1.0 ? 1 : static_cast<size_t>(scaled);
    };
    max_replicas_per_pred = shrink(max_replicas_per_pred);
    max_inflight = shrink(max_inflight);
    max_eval_work = shrink(max_eval_work);
    max_ingress = shrink(max_ingress);
  }
};

/// Suspected-failure view shared by all node runtimes of one engine.
/// Sharing one view is the single-process simplification of a gossiped
/// liveness protocol (every suspicion is "instantly gossiped"; see
/// docs/FAULTS.md). Suspicions come from MAC-ack failures and transport
/// give-ups; a node is cleared the moment anyone hears a message from it.
struct LivenessView {
  std::vector<char> down;
  /// Nodes currently marked in `down`. While it is 0 the avoid-aware next
  /// hop equals the plain geographic one, so forwarding skips the
  /// avoid-BFS.
  int down_count = 0;
  /// Bumped on every change; keys the routing layer's avoid-BFS cache.
  uint64_t version = 1;

  bool IsDown(NodeId n) const {
    size_t i = static_cast<size_t>(n);
    return i < down.size() && down[i] != 0;
  }
  /// Sets node `n`'s suspicion bit; returns true if the view changed.
  /// Out-of-range ids are rejected loudly: they mean a corrupted NodeId
  /// escaped wire decoding, and silently dropping the suspicion would let
  /// routing keep trusting a node the transport just proved unreachable.
  bool Mark(NodeId n, bool is_down) {
    size_t i = static_cast<size_t>(n);
    if (i >= down.size()) {
      DEDUCE_LOG(kWarning) << "LivenessView::Mark(" << n
                           << "): node id out of range (view size "
                           << down.size() << ")";
      return false;
    }
    if ((down[i] != 0) == is_down) return false;
    down[i] = is_down ? 1 : 0;
    down_count += is_down ? 1 : -1;
    ++version;
    return true;
  }
};

/// Timing discipline parameters (§IV-B / Theorem 3), computed from the
/// topology and link model at engine creation.
struct EngineTiming {
  SimTime tau_s = 0;  ///< Upper bound on a storage phase.
  SimTime tau_j = 0;  ///< Upper bound on a join-computation phase.
  SimTime tau_c = 0;  ///< Max clock skew between any two nodes.

  /// Delay between storage-phase start and join-computation start.
  SimTime JoinDelay() const { return tau_s + tau_c; }
  /// §IV-C: "we need to wait for an appropriate time before actually
  /// finalizing a derived fact (since it may be retracted/deleted later)".
  /// A home entry whose derivation set becomes non-empty waits this long
  /// before generating the derived-stream update; retractions within the
  /// window are absorbed with zero network traffic.
  SimTime finalize_delay = 0;
  /// Extra lifetime of a replica beyond its window: (τs+τc)+τj+τc.
  SimTime ExpirySlack() const { return tau_s + tau_c + tau_j + tau_c; }
};

/// State shared (read-mostly) by all node runtimes of one engine.
struct EngineShared {
  QueryPlan plan;
  /// Multi-tenant result fan-out (CompileMultiPlan): results of a deduped
  /// canonical sub-plan are re-shipped, relabeled, to each tenant's alias
  /// store. Empty for single-tenant engines — the fan-out path is then
  /// never taken and behavior is byte-identical to the pre-tenancy engine.
  ResultFanout result_fanout;
  /// Transitive body-predicate closure per derived head (computed at
  /// engine creation from the plan's rules, each head included in its own
  /// set). Shed taint is scoped through it: a node that shed state of
  /// pred p degrades only results whose head depends on p — so one
  /// tenant's overload never taints a disjoint tenant's results
  /// (tests/tenancy_test.cc) while staying exactly as conservative as the
  /// old node-global bit for everything the shed could actually reach.
  std::unordered_map<SymbolId, std::unordered_set<SymbolId>> taint_deps;
  BuiltinRegistry registry;
  const Topology* topology = nullptr;
  std::unique_ptr<RegionMapper> regions;
  std::unique_ptr<RoutingTable> routing;
  std::unique_ptr<GeoHash> geohash;
  EngineTiming timing;
  EngineStats stats;
  TransportOptions transport;
  /// Mutable at runtime: the MemSqueeze chaos axis shrinks caps mid-run.
  BudgetOptions budget;
  RepairOptions repair;
  /// Per-hop frame checksum (EngineOptions::checksum): senders append a
  /// 4-byte FNV-1a of the payload, receivers verify and strip it before
  /// decoding; a mismatch is dropped and counted as a decode error.
  bool checksum = false;
  LivenessView liveness;
  /// The network's link model (RTO computation); owned by the Network.
  const LinkModel* link = nullptr;

  /// Observability sinks (EngineOptions::metrics / ::trace). Both may be
  /// null — the runtimes guard every use, so a run without observers pays
  /// only a pointer test. Owned by the embedder.
  MetricsRegistry* metrics = nullptr;
  TraceWriter* trace = nullptr;
  /// Causal provenance (EngineOptions::provenance): when enabled, runtimes
  /// keep per-node lineage rings and spill "deriv" records to `trace`.
  ProvenanceOptions provenance;

  /// Literals a join pass can resolve at its launch node (data replicated
  /// everywhere / within the rule's spatial scope), per delta plan.
  std::vector<std::vector<char>> launch_evaluable;  // [delta][literal]
  /// Negated literals that must be verified along the whole sweep, per
  /// delta plan.
  std::vector<std::vector<char>> sweep_checked_negation;
  /// Total sweep passes per delta (multipass + trailing negation pass).
  std::vector<uint32_t> total_passes;
};

/// One replica of a tuple, placed at a node by a storage phase.
struct Replica {
  Fact fact;
  Timestamp gen_ts = 0;
  bool have_insert = false;          ///< False: deletion mark arrived first.
  std::optional<Timestamp> del_ts;   ///< Deletion mark (§IV-A: not removed).
};

/// A node's replicas of one predicate (§V Fig. 3 local tables): {TupleId,
/// Replica} rows in one contiguous vector sorted by TupleId. Every scan
/// visits rows in TupleId order, which the join probe's match order, the
/// budget's oldest-replica tie break, a deletion's own-tuple lookup and the
/// repair lists all depend on. One fact stored under two TupleIds is two
/// rows. Inserting or erasing a row moves the rows after it, so no
/// reference, pointer or iterator into a table may be held across
/// FindOrInsert or Erase.
class ReplicaTable {
 public:
  using Row = std::pair<TupleId, Replica>;

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  std::vector<Row>::iterator begin() { return rows_.begin(); }
  std::vector<Row>::iterator end() { return rows_.end(); }
  std::vector<Row>::const_iterator begin() const { return rows_.begin(); }
  std::vector<Row>::const_iterator end() const { return rows_.end(); }

  /// The replica stored under `id`, or null.
  const Replica* Find(const TupleId& id) const {
    auto it = LowerBound(rows_, id);
    return it != rows_.end() && it->first == id ? &it->second : nullptr;
  }
  /// The replica stored under `id`, inserted default-constructed at its
  /// place in TupleId order when absent.
  Replica& FindOrInsert(const TupleId& id) {
    auto it = LowerBound(rows_, id);
    if (it == rows_.end() || it->first != id) {
      it = rows_.insert(it, Row{id, Replica{}});
    }
    return it->second;
  }
  /// Removes the row of `id`; false when there is none.
  bool Erase(const TupleId& id) {
    auto it = LowerBound(rows_, id);
    if (it == rows_.end() || it->first != id) return false;
    rows_.erase(it);
    return true;
  }

 private:
  template <typename Rows>
  static auto LowerBound(Rows& rows, const TupleId& id)
      -> decltype(rows.begin()) {
    return std::lower_bound(
        rows.begin(), rows.end(), id,
        [](const Row& row, const TupleId& key) { return row.first < key; });
  }

  std::vector<Row> rows_;
};

/// The per-node engine runtime (§V Fig. 3: join component + hashing
/// component + routing component + local tables).
class NodeRuntime : public NodeApp {
 public:
  NodeRuntime(EngineShared* shared, NodeId id);

  void Start(NodeContext* ctx) override;
  void OnMessage(NodeContext* ctx, const Message& msg) override;
  void OnRestart(NodeContext* ctx) override;

  /// Injects a base-stream update at this node (the sensing API).
  /// Insertions assign a fresh TupleId; deletions must name a fact this
  /// node previously generated and not yet deleted.
  Status Inject(NodeContext* ctx, StreamOp op, const Fact& fact);

  /// Alive facts of this node's home store for `pred` (derived stream
  /// tuples whose home is this node).
  std::vector<Fact> HomeFacts(SymbolId pred) const;
  /// Alive home facts for `pred` that no applied derivation ever tagged
  /// degraded — the "complete" subset the shedding-soundness invariant
  /// compares against the fault-free oracle (invariants.h).
  std::vector<Fact> UndegradedHomeFacts(SymbolId pred) const;

  /// Number of replica entries currently held (memory accounting, §V).
  size_t ReplicaCount() const;
  size_t DerivationCount() const;

  /// This node's lineage ring; null when provenance is off.
  const ProvenanceStore* provenance_store() const { return prov_.get(); }

  /// Per-predicate digests of the shareable replicas this node would
  /// exchange with `other` (the repair protocol's fingerprints, §IV-B
  /// lifetime-filtered). The convergence invariant compares them pairwise
  /// across band peers (invariants.h).
  std::vector<PredDigest> ShareableDigests(NodeId other, Timestamp now) const;
  /// True iff `fact` hashes to this node's home store — the placement half
  /// of the dedup invariant (a corrupted frame must not park a result at
  /// the wrong home).
  bool OwnsHome(const Fact& fact) const;
  /// True between a reboot and resync completion/abandonment; invariant
  /// checks skip degraded nodes.
  bool degraded() const { return repair_.degraded(); }

 private:
  /// The repair protocol driver reaches into the replica store and the
  /// send plumbing (repair.h).
  friend class RepairManager;

  /// Home-store entry for a derived tuple hashed to this node.
  struct HomeEntry {
    TupleId id;
    Timestamp gen_ts = 0;
    bool alive = false;
    /// Generation scheduled but not yet fired (finalization delay).
    bool pending = false;
    /// Invalidates stale finalization timers.
    uint64_t epoch = 0;
    /// Sticky: some applied insert derivation carried the degraded bit
    /// (produced through a repairing or shedding node). Undegraded entries
    /// are what the shedding-soundness invariant holds to the oracle.
    bool degraded = false;
    std::set<Derivation> derivs;
    /// Retraction protocol only (TransportOptions::retraction): permanent
    /// tombstones for retracted derivations. A removal result can beat its
    /// matching insert result to the home (the insert spent longer in
    /// retransmission), and serpentine removal sweeps emit per surviving
    /// band replica, so insert/removal counts for one derivation need not
    /// balance. Support tuple ids are never reused, which makes "once
    /// removed, dead forever" sound for join derivations; aggregate results
    /// (empty support) legitimately oscillate and are exempt.
    std::set<Derivation> anti;
  };

  /// An origin-side transmission awaiting its end-to-end ack.
  struct PendingMsg {
    NodeId dest = kNoNode;
    uint32_t seq = 0;
    /// Encoded ReliableWire. It is the only copy of the message it
    /// carries: the shed and give-up paths decode that message from here.
    Message envelope;
    int retries_left = 0;
    SimTime rto = 0;                     ///< Next timeout (backed off).
    SimTime rto_cap = 0;                 ///< Backoff ceiling (0 = none).
    /// Retraction-protocol requeue rounds left on give-up (0 when the
    /// protocol is off or the message is not deletion-critical).
    int retraction_rounds = 0;
  };

  // --- message handlers ---
  void HandleStore(NodeContext* ctx, StoreWire store);
  void HandleJoinPass(NodeContext* ctx, JoinPassWire jp);
  void HandleResult(NodeContext* ctx, ResultWire rw);

  // --- reliable transport (TransportOptions::reliable) ---
  bool transport_on() const { return shared_->transport.reliable; }
  /// Forwards a frame not addressed to this node, or dispatches it.
  void RouteOrDispatch(NodeContext* ctx, const Message& msg);
  /// Decodes a message addressed to this node (a frame's payload, or the
  /// message inside an envelope) and hands it to its handler; a message
  /// that does not decode, or names a predicate the plan lacks, is dropped.
  void DispatchEngineMessage(NodeContext* ctx, uint16_t type,
                             const std::vector<uint8_t>& payload);
  /// Routes an encoded engine message one hop toward `final_target`,
  /// detouring around suspected-down nodes when the transport is on.
  /// Returns the hop's MAC ack (false also when unroutable).
  bool ForwardEngineMessage(NodeContext* ctx, NodeId final_target,
                            Message msg);
  /// Puts a frame on the air: seals `msg` when checksums are on and sends
  /// it one hop to each node of `hops`, in order. Returns the MAC ack of
  /// the last send.
  bool Transmit(NodeContext* ctx, std::span<const NodeId> hops, Message msg);
  /// Wraps `inner` in a ReliableWire envelope and transmits it, arming the
  /// retransmission timer. `retraction_rounds` carries the requeue budget
  /// of a retraction-protocol retry; -1 = fresh send (budget from options).
  void SendReliable(NodeContext* ctx, NodeId dest, Message inner,
                    int retraction_rounds = -1);
  void TransmitPending(NodeContext* ctx, uint64_t key);
  void HandleReliable(NodeContext* ctx, const ReliableWire& rw);
  void HandleAck(const AckWire& ack);
  /// Retry budget exhausted: suspect the destination and try path repair.
  void GiveUp(NodeContext* ctx, uint64_t key);
  /// Continues a given-up walk or sweep (`inner`, the message its envelope
  /// carried) behind the failed node.
  void TryRepair(NodeContext* ctx, EngineWire inner);

  // --- retraction protocol (TransportOptions::retraction) ---
  bool retraction_on() const {
    return shared_->transport.reliable && shared_->transport.retraction;
  }
  /// The point-to-point message to requeue for a deletion-critical
  /// give-up of `envelope` (whose message decoded to `inner`): the
  /// deletion-mark store (walk remainder stripped — path repair already
  /// salvaged it) or the removal result/aggregate, aimed at `dest`.
  /// nullopt when the message is not deletion-critical.
  std::optional<Message> RetractionPayload(NodeId dest,
                                           const ReliableWire& envelope,
                                           const EngineWire& inner) const;
  /// Re-sends `inner` reliably to `dest` after a backoff proportional to
  /// the rounds already consumed; `rounds_left` rides in the new
  /// PendingMsg so the budget decreases monotonically.
  void QueueRetractionRetry(NodeContext* ctx, NodeId dest, Message inner,
                            int rounds_left);
  void RepairJoinPass(NodeContext* ctx, JoinPassWire jp);
  /// Auto RTO for a message of `envelope_bytes` to `dest` (worst-case
  /// round trip plus slack; never fires spuriously on a loss-free run).
  SimTime RtoFor(NodeId dest, size_t envelope_bytes) const;
  void MarkDown(NodeId node);
  void MarkUp(NodeId node);
  static uint64_t PendingKey(NodeId dest, uint32_t seq) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(dest)) << 32) | seq;
  }

  // --- failure-aware sweeps / walks ---
  /// SweepPath with suspected-down nodes skipped (serpentine) or replaced
  /// by an alive same-band node (column sweep); identity when the
  /// transport is off.
  std::vector<NodeId> LiveSweepPath(const DeltaPlan& delta, NodeId source,
                                    uint32_t pass_index, bool removal) const;
  std::vector<NodeId> RepairVisitList(const DeltaPlan& delta,
                                      const std::vector<NodeId>& path) const;
  /// Alive node in `dead`'s horizontal band nearest to it (row replication
  /// makes it hold the same sweep data); kNoNode if the band is dead.
  NodeId BandAlternate(NodeId dead) const;
  /// Sends the pass on to visit `visit` in order (empty: the pass ends —
  /// next sweep pass or emission). `jp.partials` must already be set.
  void AdvancePass(NodeContext* ctx, JoinPassWire jp,
                   std::vector<NodeId> visit);
  /// Sends a storage walk to visit `visit` in order, skipping
  /// suspected-down nodes when the transport is on. Returns false when no
  /// node was left to visit.
  bool SendStoreWalk(NodeContext* ctx, StoreWire store,
                     std::vector<NodeId> visit);

  // --- storage phase ---
  void StartStoragePhase(NodeContext* ctx, SymbolId pred, const Fact& fact,
                         const TupleId& id, Timestamp gen_ts, bool deletion,
                         Timestamp del_ts);
  void RecordReplica(NodeContext* ctx, const StoreWire& store);

  // --- join phase ---
  void LaunchJoinPasses(NodeContext* ctx, SymbolId pred, const Fact& fact,
                        const TupleId& id, StreamOp op, Timestamp update_ts);
  /// Processes a pass at this node; forwards / starts next pass / emits.
  void RunPassHere(NodeContext* ctx, JoinPassWire jp);
  void RunRouteStep(NodeContext* ctx, JoinPassWire jp);

  /// Extends/filters `partials` in place against local replicas.
  /// `extend_literal`: -1 = extend by every sweep literal, otherwise only
  /// that literal. Drops killed partials.
  void ProcessPartialsHere(NodeContext* ctx, const DeltaPlan& delta,
                           bool removal, Timestamp update_ts,
                           const TupleId& update_id, int extend_literal,
                           bool at_launch, std::vector<PartialWire>* partials);

  /// The join probe of sweep and route steps: extends `p` by positive body
  /// literal `lit` (index `index`) with every visible local replica of its
  /// predicate that matches, in TupleId order, handing each extension to
  /// `emit`. A GroundColumnFilter rejects rows before `p` is copied.
  template <typename Emit>
  void ProbeReplicas(const Literal& lit, uint32_t index, const PartialWire& p,
                     Timestamp update_ts, bool removal, Emit&& emit) const;

  /// Evaluates ready comparisons/builtins; returns false if the partial
  /// dies. Marks evaluated literals in the mask.
  bool EvalFilters(const DeltaPlan& delta, PartialWire* p);

  /// True if some visible replica of `pred` matches `ground_atom_args`
  /// (the NOT check). `exclude` skips the tuple being deleted (§IV-B).
  bool NegMatchLocally(SymbolId pred, const std::vector<Term>& args,
                       Timestamp update_ts,
                       const std::optional<TupleId>& exclude) const;

  bool IsPositiveComplete(const DeltaPlan& delta, const PartialWire& p) const;
  void EmitComplete(NodeContext* ctx, const DeltaPlan& delta, bool removal,
                    Timestamp update_ts, std::vector<PartialWire> partials,
                    bool degraded);

  // --- incremental aggregates (AggregatePlan) ---
  void LaunchAggregates(NodeContext* ctx, SymbolId pred, const Fact& fact,
                        const TupleId& id, StreamOp op, Timestamp update_ts);
  void HandleAgg(NodeContext* ctx, AggWire aw);
  /// Ships a complete result toward the head fact's home node.
  void ShipResult(NodeContext* ctx, ResultWire rw);

  // --- home store / derived streams ---
  void ApplyResult(NodeContext* ctx, const ResultWire& rw);
  void FinalizeGeneration(NodeContext* ctx, SymbolId pred, const Fact& fact,
                          uint64_t epoch);
  void GenerateDerivedUpdate(NodeContext* ctx, SymbolId pred, const Fact& fact,
                             const TupleId& id, StreamOp op, Timestamp ts);

  // --- resource budgets (EngineOptions::budget) ---
  bool budget_on() const { return shared_->budget.enabled; }
  /// Counts one shed of kind `what` (metrics component "budget", trace
  /// phase "shed") and taints this node: join passes and results whose
  /// head depends on `pred` (EngineShared::taint_deps) carry the degraded
  /// bit from now on, because results computed against a store that shed
  /// state are sound but possibly incomplete — and, under negation, only
  /// trustworthy when flagged. `pred < 0` (shed not attributable to one
  /// predicate, e.g. an in-flight envelope) taints every head.
  void RecordShed(NodeContext* ctx, const char* what, SymbolId pred = -1);
  /// True when results for head `pred` shipped by this node must carry
  /// the degraded bit because of an earlier shed.
  bool ShedTaints(SymbolId pred) const;
  /// Head predicate of the rule a delta plan evaluates.
  SymbolId DeltaHead(const DeltaPlan& delta) const;
  /// True when an envelope around the message `type`/`payload` may be
  /// shed (given an envelope, the message inside it decides): only
  /// additive traffic (insert stores, insert join passes, insert
  /// results). Deletion-critical, aggregate, repair and transport-control
  /// messages must never be dropped by the budget.
  static bool SheddableEnvelope(uint16_t type,
                                const std::vector<uint8_t>& payload);
  /// True when this node already stores `max_replicas_per_pred` live
  /// (insert-seen, unmarked) replicas of `pred`.
  bool ReplicaStoreFull(SymbolId pred) const;
  /// Enforces max_replicas_per_pred before recording an insert replica.
  /// Returns false when the arriving replica must not be recorded
  /// (shed-newest / reject-injection at capacity); may instead
  /// early-expire the oldest live replica (shed-farthest-window).
  bool AdmitReplica(NodeContext* ctx, SymbolId pred, Timestamp now);

  // --- helpers ---
  NodeId HomeOf(const PredicatePlan& plan, const Fact& fact) const;
  void SendEngineMessage(NodeContext* ctx, NodeId final_target, Message msg);
  void Fault(const std::string& what);
  bool checksum_on() const { return shared_->checksum; }
  /// Malformed frame: count it and drop it. Corruption is an environment
  /// fault, not an engine bug, so it never lands in EngineStats::errors.
  void DropFrame();
  std::vector<NodeId> SweepPath(const DeltaPlan& delta, NodeId source,
                                uint32_t pass_index, bool removal) const;
  /// Visibility of a replica for a join at update time τ (§IV-B window
  /// predicate): generated in (τ - w, τ], not deleted before τ.
  bool Visible(const Replica& r, Timestamp update_ts, Timestamp window,
               bool for_removal = false) const;

  EngineShared* shared_;
  NodeId id_;
  RepairManager repair_{this};

  std::unordered_map<SymbolId, ReplicaTable> replicas_;
  struct HomeRel {
    std::unordered_map<Fact, HomeEntry, FactHash> map;
    std::vector<Fact> order;
  };
  std::unordered_map<SymbolId, HomeRel> home_;

  /// Flood dedup: (tuple id, deletion flag) pairs already seen.
  std::set<std::pair<TupleId, bool>> flood_seen_;

  /// Aggregate state at group homes: plan index -> group key -> live
  /// contributions (keyed by source tuple id) + the currently-emitted fact.
  struct AggGroup {
    std::map<TupleId, Term> contributions;
    std::optional<Fact> emitted;
  };
  std::map<uint32_t, std::map<std::string, AggGroup>> agg_state_;

  uint32_t seq_ = 0;

  // --- budget state (EngineOptions::budget; all idle when budgets off) ---
  /// Sticky shed taint, scoped by predicate: this node discarded state or
  /// work touching these predicates, so passes whose head depends on any
  /// of them (taint_deps) must carry the degraded bit. `shed_all_` covers
  /// sheds not attributable to a predicate (in-flight envelopes). Cleared
  /// on reboot — volatile RAM loses shed and unshed state alike, and the
  /// repair path owns post-reboot degradation.
  std::unordered_set<SymbolId> shed_preds_;
  bool shed_all_ = false;
  /// Injections admitted whose storage/join launch timer has not fired
  /// yet (the bounded ingress queue's occupancy).
  size_t ingress_open_ = 0;

  // --- provenance (EngineOptions::provenance) ---
  bool provenance_on() const { return prov_ != nullptr; }
  /// Pushes a lineage edge into the ring, observes the per-predicate
  /// end-to-end latency histogram, and spills a "deriv" trace record.
  void RecordProvenance(ProvenanceEdge edge);
  /// Whether this node already warned about lineage-ring eviction
  /// (RecordProvenance warns once per node, counts every eviction).
  bool prov_evict_warned_ = false;
  /// Lineage ring; null unless provenance is enabled. Cleared on reboot
  /// (node RAM is volatile; the trace stream is the durable copy).
  std::unique_ptr<ProvenanceStore> prov_;

  // --- reliable-transport state ---
  /// Unacked envelopes by (dest, seq). std::map: deterministic iteration.
  std::map<uint64_t, PendingMsg> pending_;
  /// Per-destination next sequence number. Survives OnRestart: (origin,
  /// seq) keys the receivers' dedup, so it must never repeat.
  std::unordered_map<NodeId, uint32_t> tx_seq_;
  /// Receiver-side dedup: (origin, seq) pairs already delivered.
  std::set<std::pair<NodeId, uint32_t>> rx_seen_;
};

}  // namespace deduce

#endif  // DEDUCE_ENGINE_RUNTIME_H_

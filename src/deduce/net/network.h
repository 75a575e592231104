#ifndef DEDUCE_NET_NETWORK_H_
#define DEDUCE_NET_NETWORK_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "deduce/common/hash.h"
#include "deduce/common/rng.h"
#include "deduce/net/simulator.h"
#include "deduce/net/topology.h"

namespace deduce {

class MetricsRegistry;

/// A single-hop radio message. `type` is application-defined; the payload
/// is opaque bytes (see codec.h).
struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  uint16_t type = 0;
  std::vector<uint8_t> payload;

  /// Bytes on the wire: payload + a fixed link header (src, dst, type,
  /// length — 8 bytes, in the ballpark of an 802.15.4 compressed header).
  static constexpr size_t kHeaderBytes = 8;
  size_t WireSize() const { return payload.size() + kHeaderBytes; }
};

/// Link-layer model: per-hop delays, per-byte transmission time, loss.
struct LinkModel {
  SimTime base_delay = 2'000;       ///< Fixed per-hop latency (2 ms).
  SimTime jitter = 1'000;           ///< Uniform extra delay in [0, jitter].
  SimTime per_byte_delay = 32;      ///< ~250 kbps: 32 us per byte.
  double loss_rate = 0.0;           ///< Probability a unicast hop is lost.
  /// Link-layer retransmissions per hop (simplified ARQ): each attempt is
  /// an independent loss trial and costs a message; delivery fails only if
  /// all 1 + retries attempts are lost. Real mote MACs retry 3-5 times.
  int retries = 0;
  SimTime max_clock_skew = 0;       ///< τ_c: node clocks differ by <= this.

  /// Upper bound on one hop's delay for a message of `bytes` bytes
  /// (including worst-case retransmissions).
  SimTime MaxHopDelay(size_t bytes) const {
    return (base_delay + jitter +
            per_byte_delay * static_cast<SimTime>(bytes)) *
           static_cast<SimTime>(1 + retries);
  }

  /// A "testbed" profile (§VI substitution): lossy, jittery, skewed.
  static LinkModel Testbed() {
    LinkModel m;
    m.base_delay = 3'000;
    m.jitter = 4'000;
    m.per_byte_delay = 40;
    m.loss_rate = 0.05;
    m.retries = 2;
    m.max_clock_skew = 2'000;
    return m;
  }
};

/// Per-node and global traffic counters; the currency of every benchmark.
struct NetworkStats {
  struct PerNode {
    uint64_t sent_messages = 0;
    uint64_t sent_bytes = 0;
    uint64_t received_messages = 0;
    uint64_t received_bytes = 0;
    uint64_t dropped_messages = 0;
  };
  std::vector<PerNode> per_node;
  std::unordered_map<uint16_t, uint64_t> sent_by_type;

  /// Unicasts whose every link-layer attempt was lost (or whose receiver
  /// was dead): the sender saw no MAC ack. Zero in a loss-free,
  /// failure-free run.
  uint64_t mac_ack_failures = 0;
  /// Fault-injection events applied (FailNode / RecoverNode).
  uint64_t nodes_failed = 0;
  uint64_t nodes_recovered = 0;
  /// Chaos (link-fault) counters. Zero unless a LinkFaultRule is active.
  uint64_t links_cut = 0;            ///< Unicasts suppressed by a cut rule.
  uint64_t corrupted_delivered = 0;  ///< Payloads byte-flipped in flight.
  uint64_t duplicated = 0;           ///< Extra deliveries of one unicast.
  uint64_t reordered = 0;            ///< Deliveries given extra delay jitter.
  /// Frames appended to an already-scheduled same-edge same-tick batch
  /// (i.e. event-queue entries saved). Zero unless batched delivery is on.
  uint64_t frames_coalesced = 0;
  /// Deliveries given extra latency because the receiver is a SlowNode
  /// straggler (overload chaos axis). Zero unless a stall is active.
  uint64_t deliveries_stalled = 0;

  uint64_t TotalMessages() const;
  uint64_t TotalBytes() const;
  uint64_t MaxNodeMessages() const;
  /// Simple radio energy proxy in microjoules: tx + rx cost per byte
  /// (CC2420-like constants).
  double TotalEnergyMicroJ() const;

  /// Mirrors these counters into `registry` under the "net" component
  /// (per-node sent/received/dropped, global totals and fault counters),
  /// making the registry the single snapshot the tools serialize. No-op
  /// when `registry` is null or disabled.
  void ExportTo(MetricsRegistry* registry) const;
};

class Network;

/// One transmission record for offline analysis/visualization (see
/// Network::SetTraceSink and `dlog simulate --trace`).
struct TraceEvent {
  SimTime time = 0;      ///< Global send time.
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  uint16_t type = 0;     ///< Message type (EngineMsgType or app-defined).
  size_t bytes = 0;      ///< Wire size per attempt.
  int attempts = 1;      ///< Link-layer transmissions used.
  bool delivered = true;
  /// The full message, for sinks that decode payloads (e.g. the engine's
  /// phase/predicate attribution). Valid only for the duration of the sink
  /// callback — never retain the pointer.
  const Message* msg = nullptr;
};

/// The API surface a node application sees: identity, neighbors, local
/// clock, messaging and timers. Handed to every NodeApp callback.
class NodeContext {
 public:
  NodeContext(Network* network, NodeId id) : network_(network), id_(id) {}

  NodeId id() const { return id_; }
  const Location& location() const;
  const std::vector<NodeId>& neighbors() const;
  const Topology& topology() const;

  /// Node-local clock (global time + this node's fixed skew).
  SimTime LocalTime() const;

  /// Sends to a direct neighbor; non-neighbors are a programming error.
  /// Returns the link-layer (MAC) acknowledgement: true iff some attempt
  /// reached a live receiver. Real mote MACs (802.15.4) expose exactly
  /// this bit; callers that predate it may ignore the result.
  bool Send(NodeId to, Message msg);

  /// Runs `fn` after `delay` (local == global duration) as one simulator
  /// event, unless the node crashed in between: a timer belongs to the
  /// incarnation that set it. A timer set while the node is down never
  /// fires, not even after a reboot; its event still runs, as a no-op.
  /// This is the only way a node app defers work.
  void SetTimer(SimTime delay, Simulator::EventFn fn);

  /// Node-private deterministic RNG.
  Rng& rng();

 private:
  Network* network_;
  NodeId id_;
};

/// A node application: the distributed engine's per-node runtime implements
/// this (engine/runtime.h), as do the procedural baselines. Deferred work
/// goes through NodeContext::SetTimer, whose closures usually capture the
/// app, so an app is installed (Network::SetApp) before Network::Start and
/// never replaced while the simulation runs.
class NodeApp {
 public:
  virtual ~NodeApp() = default;
  /// Called once at simulation start.
  virtual void Start(NodeContext* ctx) { (void)ctx; }
  /// Called for each delivered message.
  virtual void OnMessage(NodeContext* ctx, const Message& msg) = 0;
  /// Called when the node reboots after a crash (Network::RecoverNode).
  /// Volatile state must be treated as lost; timers set before the crash,
  /// or while the node was down, never fire.
  virtual void OnRestart(NodeContext* ctx) { (void)ctx; }
};

/// A directed link-level fault rule: applies to unicasts whose sender is in
/// `src` and receiver is in `dst` (an empty set matches every node). Rules
/// are intentionally asymmetric — cutting A→B leaves B→A intact — matching
/// the formal sensor-network models where radio links are directed.
struct LinkFaultRule {
  enum class Kind {
    kCut,        ///< Suppress delivery (no MAC ack ever reaches the sender).
    kCorrupt,    ///< Flip 1-3 payload bytes before delivery.
    kDuplicate,  ///< Deliver a second copy after an extra hop delay.
    kDelay,      ///< Add uniform extra delay in [0, extra_delay] (reorders).
  };
  Kind kind = Kind::kCut;
  std::vector<NodeId> src;   ///< Senders the rule matches; empty = any.
  std::vector<NodeId> dst;   ///< Receivers the rule matches; empty = any.
  double rate = 1.0;         ///< Probability the rule fires per message.
  SimTime extra_delay = 0;   ///< kDelay only: max extra latency (us).
};

/// One scheduled fault-injection event. `kFail`/`kRecover` use `node`;
/// the link-fault kinds carry a LinkFaultRule installed (or, for
/// kHealLinks, removed) at `time`. The overload axes use `magnitude`
/// (kSlowNode: stall in us, 0 clears; kMemSqueeze: percent of each budget
/// cap kept, e.g. 50 halves; kInjectStorm: burst tuple count) and `arg`
/// (kInjectStorm: target predicate name) — kMemSqueeze and kInjectStorm
/// are not handled by the network itself but dispatched to fault hooks /
/// expanded by the scenario harness.
struct FaultEvent {
  enum class Kind {
    kFail,
    kRecover,
    kAddLinkFault,
    kHealLinks,
    kSlowNode,
    kMemSqueeze,
    kInjectStorm,
  };
  SimTime time = 0;
  NodeId node = kNoNode;
  Kind kind = Kind::kFail;
  LinkFaultRule rule;  ///< kAddLinkFault: rule to install; kHealLinks:
                       ///< src/dst sets whose rules (all kinds) to remove.
  int64_t magnitude = 0;  ///< Overload axes; see kind docs above.
  std::string arg;        ///< kInjectStorm: predicate name.
};

/// A deterministic schedule of fault events driven by the simulator
/// (crash-reboot churn, partitions, corruption, duplication, delay
/// jitter). Apply with Network::ApplyFaultPlan before (or while) running.
struct FaultPlan {
  std::vector<FaultEvent> events;

  FaultPlan& Fail(SimTime time, NodeId node) {
    FaultEvent ev;
    ev.time = time;
    ev.node = node;
    ev.kind = FaultEvent::Kind::kFail;
    events.push_back(std::move(ev));
    return *this;
  }
  FaultPlan& Recover(SimTime time, NodeId node) {
    FaultEvent ev;
    ev.time = time;
    ev.node = node;
    ev.kind = FaultEvent::Kind::kRecover;
    events.push_back(std::move(ev));
    return *this;
  }
  /// Cuts every link from a node in `src` to a node in `dst` (directed;
  /// empty set = all nodes). Cut both directions with two calls.
  FaultPlan& CutLinks(SimTime time, std::vector<NodeId> src,
                      std::vector<NodeId> dst);
  /// Removes every link-fault rule (any kind) whose src/dst sets equal
  /// these, restoring normal delivery.
  FaultPlan& HealLinks(SimTime time, std::vector<NodeId> src,
                       std::vector<NodeId> dst);
  /// Byte-flips payloads on matching links with probability `rate`.
  FaultPlan& CorruptLinks(SimTime time, std::vector<NodeId> src,
                          std::vector<NodeId> dst, double rate);
  /// Duplicates delivered unicasts on matching links with probability
  /// `rate`.
  FaultPlan& DuplicateLinks(SimTime time, std::vector<NodeId> src,
                            std::vector<NodeId> dst, double rate);
  /// Adds uniform extra delay in [0, extra_delay] to matching deliveries
  /// with probability `rate` (bounded reordering).
  FaultPlan& DelayLinks(SimTime time, std::vector<NodeId> src,
                        std::vector<NodeId> dst, double rate,
                        SimTime extra_delay);
  /// Crash-reboot churn: node i of `nodes` fails at
  /// `first_fail + i * stagger` and reboots `downtime` later
  /// (downtime < 0: never).
  static FaultPlan Churn(const std::vector<NodeId>& nodes, SimTime first_fail,
                         SimTime downtime, SimTime stagger);
  /// Reboot storm: `waves` successive churn rounds over the same nodes,
  /// each wave starting `wave_gap` after the previous one began.
  static FaultPlan RebootStorm(const std::vector<NodeId>& nodes,
                               SimTime first_fail, SimTime downtime,
                               SimTime stagger, int waves, SimTime wave_gap);
  /// Straggler: every delivery INTO `node` gets `stall` extra latency from
  /// `time` on (stall = 0 restores normal speed). Models a node whose CPU
  /// is saturated — packets queue at its radio.
  FaultPlan& SlowNode(SimTime time, NodeId node, SimTime stall);
  /// Shrinks every enabled budget cap to `factor` (0 < factor <= 1) of its
  /// current value at `time`, via the engine's fault hook. No-op when
  /// budgets are off.
  FaultPlan& MemSqueeze(SimTime time, double factor);
  /// Burst injection flood: the scenario harness expands this into `count`
  /// deterministic insertions of predicate `pred` at `node` starting at
  /// `time` (see engine/scenario.h). The network dispatches it to fault
  /// hooks only; outside the harness it is inert.
  FaultPlan& InjectStorm(SimTime time, NodeId node, const std::string& pred,
                         int64_t count);
};

/// The simulated sensor network: topology + link model + per-node apps,
/// driven by a Simulator. This is the repo's TOSSIM substitute (see
/// DESIGN.md §2): it exposes exactly the knobs the paper's correctness
/// arguments use — bounded per-hop delay, bounded clock skew, loss — and
/// measures what §VI reports (per-node message/byte counts).
class Network {
 public:
  Network(Topology topology, LinkModel link, uint64_t seed);

  /// Installs the app for a node, before Start(): pending timer closures
  /// may hold on to the app they were set by.
  void SetApp(NodeId id, std::unique_ptr<NodeApp> app);

  /// Calls Start() on every app (as a time-0 event per node).
  void Start();

  Simulator& sim() { return sim_; }
  SimTime now() const { return sim_.now(); }
  const Topology& topology() const { return topology_; }
  const LinkModel& link() const { return link_; }
  int node_count() const { return topology_.node_count(); }

  NodeContext& context(NodeId id) {
    return *contexts_[static_cast<size_t>(id)];
  }
  NodeApp* app(NodeId id) { return apps_[static_cast<size_t>(id)].get(); }

  const NetworkStats& stats() const { return stats_; }
  SimTime clock_skew(NodeId id) const {
    return skews_[static_cast<size_t>(id)];
  }

  /// Replaces all trace sinks with `sink` (nullptr clears). Sinks are
  /// invoked for every transmission (send time, hop endpoints, type, size,
  /// ARQ attempts, delivery outcome).
  void SetTraceSink(std::function<void(const TraceEvent&)> sink) {
    traces_.clear();
    if (sink) traces_.push_back(std::move(sink));
  }

  /// Adds a sink alongside any already installed (the engine's JSONL trace
  /// and a tool's CSV trace can observe the same run).
  void AddTraceSink(std::function<void(const TraceEvent&)> sink) {
    if (sink) traces_.push_back(std::move(sink));
  }

  /// Registers a callback invoked when a fault event the network does not
  /// handle natively fires (currently kMemSqueeze and kInjectStorm). Lets
  /// the engine react to fault-plan events without the network knowing
  /// engine types. Hooks run at the event's scheduled time, in
  /// registration order.
  void AddFaultHook(std::function<void(const FaultEvent&)> hook) {
    if (hook) fault_hooks_.push_back(std::move(hook));
  }

  /// Sets the per-delivery stall for `node` (kSlowNode; 0 clears).
  void SetNodeStall(NodeId id, SimTime stall);
  SimTime node_stall(NodeId id) const {
    return stall_[static_cast<size_t>(id)];
  }

  /// Kills a node: it stops receiving and sending (fault injection).
  /// Timers scheduled before the crash, or while the node is down, never
  /// fire, even after recovery (volatile state is lost with the
  /// incarnation).
  void FailNode(NodeId id);
  /// Reboots a failed node: it resumes receiving and sending with a fresh
  /// incarnation. The app's OnRestart runs so it can drop volatile state.
  void RecoverNode(NodeId id);
  bool IsFailed(NodeId id) const { return failed_[static_cast<size_t>(id)]; }
  /// Incremented on every FailNode (crashes only, not reboots); timers of
  /// an earlier incarnation check it.
  uint64_t incarnation(NodeId id) const {
    return incarnations_[static_cast<size_t>(id)];
  }

  /// Schedules every event of `plan` on the simulator.
  void ApplyFaultPlan(const FaultPlan& plan);

  /// Installs a link-fault rule, effective immediately. Rules are
  /// consulted in insertion order on every unicast; with no rules active
  /// the delivery path draws no extra randomness, so fault-free runs are
  /// bit-identical to pre-chaos builds.
  void AddLinkFault(LinkFaultRule rule);
  /// Removes every rule (any kind) whose src/dst sets equal these.
  void HealLinks(const std::vector<NodeId>& src,
                 const std::vector<NodeId>& dst);
  const std::vector<LinkFaultRule>& link_faults() const {
    return link_faults_;
  }

  /// Opt-in delivery batching for large-scale runs: frames crossing the same
  /// directed edge that land on the same simulator tick are coalesced into
  /// ONE scheduled event that hands them to the receiver back to back. Every
  /// RNG draw (loss trials, chaos faults), every counter, and every trace
  /// record stays per-frame at send time — only the number of calendar-queue
  /// entries shrinks. Coalescing runs a batch at the queue position of its
  /// FIRST frame, which can reorder deliveries relative to other events on
  /// the same tick, so this is off by default: corpus scenario replays and
  /// committed baselines stay byte-identical. bench_scale turns it on.
  void EnableBatchedDelivery(bool on) { batched_delivery_ = on; }
  bool batched_delivery() const { return batched_delivery_; }

 private:
  friend class NodeContext;

  bool Deliver(NodeId from, NodeId to, Message msg);
  /// First active rule of `kind` matching from→to that passes its rate
  /// trial (a Bernoulli draw only for rules with rate < 1).
  const LinkFaultRule* MatchLinkFault(LinkFaultRule::Kind kind, NodeId from,
                                      NodeId to);

  /// One directed edge at one delivery instant — the coalescing unit.
  struct BatchKey {
    SimTime time = 0;
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    bool operator==(const BatchKey& o) const {
      return time == o.time && from == o.from && to == o.to;
    }
  };
  struct BatchKeyHash {
    size_t operator()(const BatchKey& k) const {
      size_t h = Mix64(static_cast<uint64_t>(k.time));
      return HashCombine(
          h, Mix64((static_cast<uint64_t>(static_cast<uint32_t>(k.from))
                    << 32) |
                   static_cast<uint32_t>(k.to)));
    }
  };
  struct PendingFrame {
    size_t bytes = 0;
    Message msg;
  };
  void ScheduleBatched(NodeId from, NodeId to, SimTime at, size_t bytes,
                       Message msg);

  Topology topology_;
  LinkModel link_;
  Simulator sim_;
  Rng rng_;
  std::vector<std::unique_ptr<NodeApp>> apps_;
  std::vector<std::unique_ptr<NodeContext>> contexts_;
  std::vector<std::unique_ptr<Rng>> node_rngs_;
  std::vector<SimTime> skews_;
  std::vector<bool> failed_;
  std::vector<uint64_t> incarnations_;
  NetworkStats stats_;
  std::vector<LinkFaultRule> link_faults_;
  std::vector<SimTime> stall_;  ///< Per-node delivery stall (kSlowNode).
  std::vector<std::function<void(const TraceEvent&)>> traces_;
  std::vector<std::function<void(const FaultEvent&)>> fault_hooks_;
  bool batched_delivery_ = false;
  std::unordered_map<BatchKey, std::vector<PendingFrame>, BatchKeyHash>
      pending_batches_;
};

}  // namespace deduce

#endif  // DEDUCE_NET_NETWORK_H_

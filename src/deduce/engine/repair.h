#ifndef DEDUCE_ENGINE_REPAIR_H_
#define DEDUCE_ENGINE_REPAIR_H_

#include <map>
#include <vector>

#include "deduce/engine/wire.h"

namespace deduce {

class NodeRuntime;

/// State-repair knobs (DESIGN.md §10). Both modes are off by default: a
/// default-constructed engine never sends a repair message and behaves
/// exactly as before.
///
/// Row replication makes any band member a full copy of the band's sweep
/// data, so a crash-rebooted node can re-seed its wiped replica store from
/// one alive peer (`enabled`), and adjacent band members can repair
/// divergence left by lost best-effort storage messages (`anti_entropy_
/// period`) — in both cases pulling only the replicas still inside their
/// §IV-B visibility lifetime.
struct RepairOptions {
  /// Reboot resync: OnRestart opens a digest exchange with the nearest
  /// alive same-band peer and pulls the still-visible replicas the crash
  /// erased. Until the exchange completes (or is abandoned) the node is
  /// *degraded* and sweep answers computed through it carry a degraded
  /// flag.
  bool enabled = false;

  /// > 0: each node periodically exchanges digests with its adjacent band
  /// neighbors — but only while its replica store keeps changing, so an
  /// idle network stays idle (and the simulation quiesces). 0 = off.
  SimTime anti_entropy_period = 0;

  /// A reboot resync is abandoned after this many attempts (attempt = no
  /// alive band peer found, or an exchange that timed out); the node then
  /// serves with whatever it has and drops the degraded flag.
  int max_resync_attempts = 3;

  /// Per-attempt resync timeout; -1 = auto from the link model's
  /// worst-case round trip to the chosen peer.
  SimTime resync_timeout = -1;

  bool any() const { return enabled || anti_entropy_period > 0; }
};

/// Per-node driver of the repair protocol, owned by (and a friend of) its
/// NodeRuntime. One exchange is: digest request -> digest reply -> compare
/// -> repair pull (with the requester's known set) -> repair push (always
/// sent; completes the requester's round) + an optional *reverse* pull when
/// the replier noticed requester-side surplus. A reverse pull is answered
/// with a push only, so every exchange terminates after at most three
/// message legs in each direction.
class RepairManager {
 public:
  explicit RepairManager(NodeRuntime* rt) : rt_(rt) {}

  /// True between a reboot and resync completion/abandonment: the local
  /// store may be missing replicas the band still holds.
  bool degraded() const { return degraded_; }

  // --- NodeRuntime hooks ---
  /// Reboot resync entry point (no-op unless RepairOptions::enabled).
  void OnRestart(NodeContext* ctx);
  /// Called when a storage message actually changed the replica store;
  /// arms the anti-entropy timer (no-op unless anti_entropy_period > 0).
  void OnReplicaActivity(NodeContext* ctx);

  // --- message handlers (dispatched by NodeRuntime) ---
  void HandleDigestRequest(NodeContext* ctx, const DigestRequestWire& req);
  void HandleDigestReply(NodeContext* ctx, const DigestReplyWire& reply);
  void HandleRepairPull(NodeContext* ctx, const RepairPullWire& pull);
  void HandleRepairPush(NodeContext* ctx, const RepairPushWire& push);

  /// Per-predicate digests of the replicas this node shares with `other`,
  /// in sorted predicate order (deterministic wire bytes). Public because
  /// the invariant suite reuses these fingerprints for its convergence
  /// check (invariants.h).
  std::vector<PredDigest> ComputeDigests(NodeId other, Timestamp now) const;

 private:
  /// A digest exchange this node initiated, keyed by round id.
  struct Exchange {
    NodeId peer = kNoNode;
    bool resync = false;  ///< Reboot resync (vs periodic anti-entropy).
    SimTime started = 0;
  };

  const RepairOptions& opts() const;

  /// True iff a replica of `pred` originating at `source` is stored at
  /// both `a` and `b` under the predicate's storage policy — the symmetric
  /// filter defining what two peers are expected to share.
  bool SharedReplica(SymbolId pred, NodeId source, NodeId a, NodeId b) const;
  /// §IV-B visibility-lifetime filter: false once the replica would have
  /// been garbage-collected (never for unwindowed predicates).
  bool WithinLifetime(SymbolId pred, Timestamp gen_ts, Timestamp now) const;
  /// Calls `fn(id, replica)` for every replica of `pred` this node shares
  /// with `other` (SharedReplica) whose insert, if it has one, is still
  /// within its lifetime, in TupleId order. The one scan behind digests,
  /// known sets and pushes.
  template <typename Fn>
  void ForEachShared(SymbolId pred, NodeId other, Timestamp now,
                     Fn&& fn) const;
  /// The requester's still-visible shared state for `preds`, shipped with
  /// a pull so the replier can diff (and notice requester-side surplus).
  std::vector<RepairPullWire::Known> BuildKnown(
      const std::vector<SymbolId>& preds, NodeId other, Timestamp now) const;

  void StartResync(NodeContext* ctx);
  void AbandonResync();
  /// Opens a digest exchange with `peer`; arms the resync timeout when
  /// `resync` is set.
  void StartExchange(NodeContext* ctx, NodeId peer, bool resync);
  void FinishExchange(NodeContext* ctx, uint32_t round);
  void OnAntiEntropyTimer(NodeContext* ctx);
  /// Alive band members adjacent to this node in band x-order (<= 2).
  std::vector<NodeId> AdjacentBandPeers() const;
  /// Nearest alive same-band peer; kNoNode if none looks alive.
  NodeId PickResyncPeer() const;
  SimTime ResyncTimeout(NodeId peer) const;

  NodeRuntime* rt_;
  bool degraded_ = false;
  /// Monotonic exchange id. Never reset (like tx_seq_): stale replies and
  /// pushes from before a crash must not complete a new round.
  uint32_t round_ = 0;
  int resync_attempts_ = 0;
  SimTime resync_began_ = 0;
  std::map<uint32_t, Exchange> active_;
  // Anti-entropy dirt tracking: the timer re-arms only while activity_
  // advances past consumed_, so repair traffic stops when the store does.
  bool ae_armed_ = false;
  uint64_t activity_ = 0;
  uint64_t consumed_ = 0;
};

}  // namespace deduce

#endif  // DEDUCE_ENGINE_REPAIR_H_

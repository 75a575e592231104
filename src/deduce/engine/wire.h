#ifndef DEDUCE_ENGINE_WIRE_H_
#define DEDUCE_ENGINE_WIRE_H_

#include <variant>
#include <vector>

#include "deduce/common/statusor.h"
#include "deduce/datalog/fact.h"
#include "deduce/datalog/unify.h"
#include "deduce/net/network.h"

namespace deduce {

/// Engine message types (Message::type values).
enum EngineMsgType : uint16_t {
  kStoreMsg = 1,          ///< Storage-phase replication / deletion marking.
  kJoinPassMsg = 2,       ///< Join-computation pass carrying partial results.
  kResultMsg = 3,         ///< Complete result shipped to its home node.
  kAggMsg = 4,            ///< Aggregate contribution heading to its group home.
  kAckMsg = 5,            ///< End-to-end transport acknowledgement.
  kReliableMsg = 6,       ///< Transport envelope around any engine message.
  kDigestRequestMsg = 7,  ///< Repair: ask a band peer for store digests.
  kDigestReplyMsg = 8,    ///< Repair: per-predicate digests of shared replicas.
  kRepairPullMsg = 9,     ///< Repair: request replicas missing from a store.
  kRepairPushMsg = 10,    ///< Repair: replica records answering a pull.
};

/// Storage-phase message (§III-A storage phase; §IV-A deletion marking).
struct StoreWire {
  NodeId final_target = kNoNode;  ///< Next node that must process this.
  SymbolId pred = 0;
  Fact fact;
  TupleId id;
  Timestamp gen_ts = 0;
  bool deletion = false;          ///< Deletion mark, not removal (§IV-A).
  Timestamp del_ts = 0;
  /// Path-walk mode: nodes to visit after final_target. Empty for flood
  /// or point-to-point modes.
  std::vector<NodeId> path_remaining;
  /// Flood mode: remaining hop budget; <0 = not flooding.
  int32_t flood_ttl = -1;

  Message Encode() const;
  static StatusOr<StoreWire> Decode(const Message& msg);
};

/// One partial result of a join (§III-A, Fig. 1): the runtime extends it
/// in place and ships it with its join pass.
struct PartialWire {
  uint32_t matched_mask = 0;  ///< Body literals already matched/evaluated.
  /// Variable bindings; they travel in ascending variable id.
  Subst bindings;
  /// Positive supports gathered so far: (body literal index, tuple id).
  std::vector<std::pair<uint32_t, TupleId>> support;
};

/// Join-computation pass (§III-A join-computation phase; §IV-B extension
/// with negated subgoals and deletions).
struct JoinPassWire {
  NodeId final_target = kNoNode;
  uint32_t delta_index = 0;  ///< Index into QueryPlan::deltas.
  bool removal = false;      ///< Results remove derivations (vs add).
  Timestamp update_ts = 0;   ///< Update timestamp τ (source-local).
  TupleId update_id;
  uint32_t pass_index = 0;   ///< Multipass pass / local-route step index.
  std::vector<NodeId> path_remaining;
  std::vector<PartialWire> partials;
  /// Some visited node was rebooted and not yet resynced (repair.h), OR had
  /// shed load under a resource budget (runtime.h BudgetOptions) — either
  /// way the pass may have missed replicas and its answer is partial.
  /// Sticky: once set it travels to the emitted results. Shed taint rides
  /// this same bit so the wire format (and every committed baseline) is
  /// unchanged by the budget layer.
  bool degraded = false;

  Message Encode() const;
  static StatusOr<JoinPassWire> Decode(const Message& msg);
};

/// A complete result heading to its home node (§III-B hashing of derived
/// tuples; §IV-A set-of-derivations maintenance).
struct ResultWire {
  NodeId final_target = kNoNode;
  SymbolId pred = 0;
  Fact fact;
  bool removal = false;
  int32_t rule_id = -1;
  std::vector<TupleId> support;
  Timestamp update_ts = 0;
  /// The producing pass ran through a degraded node — rebooted and
  /// not-yet-resynced (repair.h) or load-shedding under a budget
  /// (runtime.h) — so the result is sound but its generation may be
  /// incomplete. Consumers distinguishing "complete" from "partial" read
  /// this bit (see DistributedEngine::UndegradedResultDatabase).
  bool degraded = false;
  /// Multi-tenant fan-out copy: nonzero marks a result relabeled for a
  /// tenant's alias store (TenantView::index), which must not fan out
  /// again. Encoded as an optional trailing field only when nonzero, so
  /// single-tenant frames — and every committed baseline — stay
  /// byte-identical; old frames decode with tenant == 0.
  uint32_t tenant = 0;

  Message Encode() const;
  static StatusOr<ResultWire> Decode(const Message& msg);
};

/// One contribution to an incrementally-maintained aggregate group
/// (AggregatePlan): the group key, the contributed value, and the source
/// tuple id (the dedup/removal key).
struct AggWire {
  NodeId final_target = kNoNode;
  uint32_t plan_index = 0;
  bool removal = false;
  std::vector<Term> group;  ///< Ground group-key terms (head minus agg arg).
  Term value;               ///< Ground contributed value.
  TupleId contributor;
  Timestamp update_ts = 0;

  Message Encode() const;
  static StatusOr<AggWire> Decode(const Message& msg);
};

/// End-to-end acknowledgement for the reliable transport: `acker` confirms
/// receipt of the envelope (`origin`=final_target, seq). Acks themselves are
/// unreliable; a lost ack is repaired by retransmission + receiver dedup.
struct AckWire {
  NodeId final_target = kNoNode;  ///< The envelope's origin.
  NodeId acker = kNoNode;         ///< The envelope's destination.
  uint32_t seq = 0;

  Message Encode() const;
  static StatusOr<AckWire> Decode(const Message& msg);
};

/// Reliable-transport envelope: any unicast engine message, tagged with the
/// origin node and a per-destination sequence number so the destination can
/// acknowledge and deduplicate. Intermediate nodes forward it untouched.
struct ReliableWire {
  NodeId final_target = kNoNode;
  NodeId origin = kNoNode;
  uint32_t seq = 0;
  uint16_t inner_type = 0;            ///< EngineMsgType of the payload.
  std::vector<uint8_t> inner_payload;

  Message Encode() const;
  static StatusOr<ReliableWire> Decode(const Message& msg);
};

/// Compact per-predicate summary of the replicas two band peers should
/// share: tuple count plus an order-independent XOR fingerprint over the
/// TupleIds (perturbed by the deletion-mark bit). Equal digests mean the
/// two stores agree with overwhelming probability; unequal digests trigger
/// a RepairPull (repair.h).
struct PredDigest {
  SymbolId pred = 0;
  uint64_t count = 0;
  uint64_t fingerprint = 0;
};

/// Repair: opens a digest exchange — asks `final_target` to summarize the
/// replicas the two nodes are both expected to hold.
struct DigestRequestWire {
  NodeId final_target = kNoNode;
  NodeId requester = kNoNode;
  uint32_t round = 0;         ///< Requester-local exchange id.
  bool anti_entropy = false;  ///< Periodic exchange (vs reboot resync).

  Message Encode() const;
  static StatusOr<DigestRequestWire> Decode(const Message& msg);
};

/// Repair: per-predicate digests of the replier's shareable replicas.
struct DigestReplyWire {
  NodeId final_target = kNoNode;
  NodeId replier = kNoNode;
  uint32_t round = 0;  ///< Echoed from the request.
  std::vector<PredDigest> digests;

  Message Encode() const;
  static StatusOr<DigestReplyWire> Decode(const Message& msg);
};

/// Repair: asks the peer to push the replicas of `preds` the requester is
/// missing. `known` lists what the requester already holds so the peer
/// ships only the difference; it doubles as the peer's chance to notice
/// requester-side surplus and pull back (the `reverse` leg).
struct RepairPullWire {
  NodeId final_target = kNoNode;
  NodeId requester = kNoNode;
  uint32_t round = 0;
  /// Pull issued while serving a pull; a reverse pull is never answered
  /// with another reverse pull, so an exchange terminates in ≤ 3 legs.
  bool reverse = false;
  std::vector<SymbolId> preds;  ///< Predicates whose digests disagreed.
  struct Known {
    SymbolId pred = 0;
    TupleId id;
    bool have_insert = false;
    bool has_del = false;
  };
  std::vector<Known> known;

  Message Encode() const;
  static StatusOr<RepairPullWire> Decode(const Message& msg);
};

/// Repair: replica records answering a pull. An empty push is still sent —
/// it is the round-completion signal for the requester.
struct RepairPushWire {
  NodeId final_target = kNoNode;
  NodeId replier = kNoNode;
  uint32_t round = 0;  ///< Echoed from the pull.
  struct Entry {
    SymbolId pred = 0;
    Fact fact;
    TupleId id;
    Timestamp gen_ts = 0;
    bool have_insert = false;
    bool has_del = false;
    Timestamp del_ts = 0;
  };
  std::vector<Entry> entries;

  Message Encode() const;
  static StatusOr<RepairPushWire> Decode(const Message& msg);
};

/// Any engine message, decoded: one alternative per EngineMsgType.
using EngineWire =
    std::variant<StoreWire, JoinPassWire, ResultWire, AggWire, AckWire,
                 ReliableWire, DigestRequestWire, DigestReplyWire,
                 RepairPullWire, RepairPushWire>;

/// Decodes the payload of an engine message of type `type` straight into
/// that type's alternative. This is the one place that maps an
/// EngineMsgType to its struct: dispatch, shedding, give-up repair,
/// traffic attribution and trace-id collection all visit its result. A
/// payload that does not decode fails with the status the type's own
/// Decode gives; an unknown type is an InvalidArgument error.
StatusOr<EngineWire> DecodeEngineMessage(uint16_t type,
                                         const std::vector<uint8_t>& payload);

/// One std::visit visitor made of several lambdas, e.g.
/// `Overloaded{[](const StoreWire& w) {...}, [](const auto&) {...}}`.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

/// Reads only the final_target field (first field of every engine message)
/// so intermediate nodes can forward without full decoding.
StatusOr<NodeId> PeekFinalTarget(const Message& msg);

// --- frame integrity (EngineOptions::checksum) ---

/// Appends a 4-byte FNV-1a checksum of the payload. Each hop seals the
/// frame it transmits; PeekFinalTarget still works on a sealed frame
/// because the leading bytes are untouched.
void SealFrame(Message* msg);
/// Verifies and strips a sealed frame's trailing checksum. False means
/// the frame is too short or was damaged in flight — drop it.
bool CheckAndStripFrame(Message* msg);

/// The set of provenance trace ids (TraceIdFor over TupleIds) a wire
/// message carries, sorted and deduplicated: the stored/deleted tuple for
/// kStoreMsg, the update tuple plus all partial supports for kJoinPassMsg,
/// the result supports for kResultMsg, the contributor for kAggMsg, the
/// known/pushed replica ids for repair pull/push, and the inner message's
/// ids for kReliableMsg. Acks and digest messages (which carry only
/// fingerprints, not tuples) yield an empty set, as do undecodable
/// payloads. This is how hop records get their contributing-trace-id sets
/// without widening any wire format.
std::vector<uint64_t> CollectTraceIds(const Message& msg);

}  // namespace deduce

#endif  // DEDUCE_ENGINE_WIRE_H_

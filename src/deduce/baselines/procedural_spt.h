#ifndef DEDUCE_BASELINES_PROCEDURAL_SPT_H_
#define DEDUCE_BASELINES_PROCEDURAL_SPT_H_

#include <vector>

#include "deduce/net/network.h"

namespace deduce {

/// Hand-written distributed shortest-path-tree construction — the
/// procedural baseline the paper compares the compiled logicH/logicJ
/// programs against (§II-B Example 3: "the 20 lines of procedural code
/// written in Kairos").
///
/// Classic asynchronous BFS/Bellman-Ford: the root announces distance 0;
/// every node keeps its best known distance and re-announces improvements
/// to its neighbors. The communication pattern (one announcement per
/// improvement per neighborhood) is what a competent systems programmer
/// would write by hand; the benchmark measures how close the compiled
/// deductive program comes.
class ProceduralSptApp : public NodeApp {
 public:
  ProceduralSptApp(NodeId root, SimTime announce_delay = 5'000)
      : root_(root), announce_delay_(announce_delay) {}

  void Start(NodeContext* ctx) override;
  void OnMessage(NodeContext* ctx, const Message& msg) override;

  /// Best distance found (-1 = unreached) and tree parent.
  int distance() const { return distance_; }
  NodeId parent() const { return parent_; }

 private:
  /// Schedules one announcement of the current distance, unless one is
  /// already pending.
  void Announce(NodeContext* ctx);
  /// The announcement timer fired: tell every neighbor the distance.
  void SendAnnouncement(NodeContext* ctx);

  NodeId root_;
  SimTime announce_delay_;
  int distance_ = -1;
  NodeId parent_ = kNoNode;
  bool announce_pending_ = false;
};

/// Result of a procedural SPT run.
struct ProceduralSptResult {
  std::vector<int> distance;    ///< Per node; -1 unreached.
  std::vector<NodeId> parent;
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
};

/// Runs the protocol to quiescence on a fresh app set over `network`
/// (which must not have apps installed yet).
ProceduralSptResult RunProceduralSpt(Network* network, NodeId root);

}  // namespace deduce

#endif  // DEDUCE_BASELINES_PROCEDURAL_SPT_H_

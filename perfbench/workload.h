#ifndef DEDUCE_PERFBENCH_WORKLOAD_H_
#define DEDUCE_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "deduce/common/statusor.h"
#include "deduce/datalog/fact.h"
#include "deduce/net/network.h"

namespace deduce::perfbench {

/// The paper's two-stream join; every workload runs it with PA row storage
/// (band decomposition off-grid).
inline constexpr char kJoinProgram[] = R"(
  .decl r/3 input.
  .decl s/3 input.
  t(K, N1, N2, I1, I2) :- r(K, N1, I1), s(K, N2, I2).
)";
inline constexpr char kResultPredicate[] = "t";

/// One named benchmark input family. A seed turns it into concrete inputs.
struct WorkloadSpec {
  const char* name;
  /// Grid side; 0 selects a connected RandomGeometric draw instead.
  int grid_side = 0;
  int rgg_nodes = 0;
  double rgg_area = 0;   ///< Side of the square deployment area.
  double rgg_range = 0;  ///< Radio range.
  /// The deployment is fixed per workload: the run seed varies the stream
  /// and the link jitter, not where the sensors stand.
  uint64_t rgg_seed = 0;
  int updates = 0;
  double delete_fraction = 0;
  int key_range = 0;
  bool batched_delivery = false;
  /// Metrics registry plus a JSONL trace into a byte-counting sink.
  bool sinks = false;
};

/// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One stream update of the open-loop input: due at `time` (simulated).
struct Update {
  SimTime time = 0;
  NodeId node = kNoNode;
  StreamOp op = StreamOp::kInsert;
  Fact fact;
};

/// Independent, deterministic random streams derived from the run seed.
struct Seeds {
  uint64_t network;
  uint64_t updates;
};
Seeds DeriveSeeds(uint64_t seed);

/// The workload's topology. A RandomGeometric draw that is not connected
/// is redrawn from the same stream; after `kMaxDraws` disconnected draws
/// this fails with FailedPrecondition. `draws` receives the number of
/// draws made.
StatusOr<Topology> MakeTopology(const WorkloadSpec& spec, int* draws);

/// Open-loop stream: one update every 40 ms of simulated time. Insertions
/// pick a uniform node, stream and key; deletions retract a uniformly
/// chosen live tuple, at the node that generated it, whose key saw no
/// insertion in the previous 10 s.
std::vector<Update> MakeUpdates(const WorkloadSpec& spec, int nodes,
                                uint64_t seed);

/// Facts inserted and not deleted by the end of `updates`: the oracle's
/// input.
std::vector<Fact> LiveFacts(const std::vector<Update>& updates);

}  // namespace deduce::perfbench

#endif  // DEDUCE_PERFBENCH_WORKLOAD_H_

#include "workload.h"

#include <unordered_set>

#include "deduce/common/rng.h"
#include "deduce/common/strings.h"

namespace deduce::perfbench {

namespace {

constexpr int kMaxDraws = 64;
constexpr SimTime kFirstUpdate = 10'000;
constexpr SimTime kUpdateGap = 40'000;
/// A deletion never retracts a tuple whose join key saw an insertion in
/// this much simulated time before it. Without the gap, the removal result
/// of the deletion can reach the result's home before the insert result
/// of that insertion, and the home keeps a phantom result (the engine's
/// retraction tombstones are off by default).
constexpr SimTime kKeyQuiet = 10'000'000;
/// Victims drawn per deletion before it turns into an insertion.
constexpr int kVictimDraws = 8;

const WorkloadSpec kWorkloads[] = {
    // Setup-bound: the all-pairs routing walk and n-BFS diameter dominate,
    // and every stored tuple walks a 100-hop row.
    {.name = "grid-10k",
     .grid_side = 100,
     .updates = 2000,
     .delete_fraction = 0.20,
     .key_range = 1000,
     .batched_delivery = true},
    // Store-bound: hundreds of replicas per node on an 8x8 grid, so the
    // replica store, join probe and home apply carry the run.
    {.name = "dense-window",
     .grid_side = 8,
     .updates = 8000,
     .delete_fraction = 0.25,
     .key_range = 2000},
    // Sink-bound: metrics and JSONL trace on, over non-grid routing.
    {.name = "observed-rgg",
     .rgg_nodes = 1024,
     .rgg_area = 32.0,
     .rgg_range = 2.0,
     .rgg_seed = 6,
     .updates = 4000,
     .delete_fraction = 0.20,
     .key_range = 2500,
     .sinks = true},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& spec : kWorkloads) out.emplace_back(spec.name);
  return out;
}

Seeds DeriveSeeds(uint64_t seed) {
  Rng root(seed);
  Seeds out;
  out.network = root.NextUint64();
  out.updates = root.NextUint64();
  return out;
}

StatusOr<Topology> MakeTopology(const WorkloadSpec& spec, int* draws) {
  *draws = 1;
  if (spec.grid_side > 0) return Topology::Grid(spec.grid_side);
  Rng rng(spec.rgg_seed);
  for (*draws = 1; *draws <= kMaxDraws; ++*draws) {
    Topology topology =
        Topology::RandomGeometric(spec.rgg_nodes, spec.rgg_area,
                                  spec.rgg_area, spec.rgg_range, &rng);
    if (topology.IsConnected()) return topology;
  }
  return Status::FailedPrecondition(
      StrFormat("%s: %d RandomGeometric draws were all disconnected",
                spec.name, kMaxDraws));
}

std::vector<Update> MakeUpdates(const WorkloadSpec& spec, int nodes,
                                uint64_t seed) {
  Rng rng(seed);
  SymbolId r = Intern("r");
  SymbolId s = Intern("s");
  std::vector<Update> out;
  out.reserve(static_cast<size_t>(spec.updates));
  struct Live {
    NodeId node;
    int key;
    Fact fact;
  };
  std::vector<Live> alive;
  std::vector<SimTime> last_insert(static_cast<size_t>(spec.key_range),
                                   -kKeyQuiet);
  SimTime t = kFirstUpdate;
  for (int i = 0; i < spec.updates; ++i, t += kUpdateGap) {
    if (!alive.empty() && rng.Bernoulli(spec.delete_fraction)) {
      bool deleted = false;
      for (int draw = 0; draw < kVictimDraws && !deleted; ++draw) {
        size_t k = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(alive.size()) - 1));
        if (t - last_insert[static_cast<size_t>(alive[k].key)] < kKeyQuiet) {
          continue;
        }
        out.push_back({t, alive[k].node, StreamOp::kDelete, alive[k].fact});
        alive[k] = std::move(alive.back());
        alive.pop_back();
        deleted = true;
      }
      if (deleted) continue;
    }
    NodeId node = static_cast<NodeId>(rng.Uniform(0, nodes - 1));
    int key = static_cast<int>(rng.Uniform(0, spec.key_range - 1));
    Fact f(rng.Bernoulli(0.5) ? r : s,
           {Term::Int(key), Term::Int(node), Term::Int(i)});
    out.push_back({t, node, StreamOp::kInsert, f});
    last_insert[static_cast<size_t>(key)] = t;
    alive.push_back({node, key, std::move(f)});
  }
  return out;
}

std::vector<Fact> LiveFacts(const std::vector<Update>& updates) {
  std::unordered_set<Fact, FactHash> deleted;
  for (const Update& u : updates) {
    if (u.op == StreamOp::kDelete) deleted.insert(u.fact);
  }
  std::vector<Fact> out;
  for (const Update& u : updates) {
    if (u.op == StreamOp::kInsert && deleted.count(u.fact) == 0) {
      out.push_back(u.fact);
    }
  }
  return out;
}

}  // namespace deduce::perfbench

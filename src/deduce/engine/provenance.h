#ifndef DEDUCE_ENGINE_PROVENANCE_H_
#define DEDUCE_ENGINE_PROVENANCE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "deduce/common/statusor.h"
#include "deduce/common/trace.h"
#include "deduce/datalog/fact.h"
#include "deduce/datalog/program.h"

namespace deduce {

/// Switches on causal tuple provenance (EngineOptions::provenance). Off by
/// default; when off the engine pays one branch per hook site, records
/// nothing, and — because trace ids are derived from the TupleIds the wire
/// protocol already carries (TraceIdFor) — enabling it changes no simulated
/// counter either. Determinism-tested in tests/provenance_test.cc.
struct ProvenanceOptions {
  bool enabled = false;
  /// Per-node lineage ring capacity (`dlog --provenance-capacity`). The
  /// ring models the bounded RAM a mote can spend remembering why its
  /// tuples exist; older edges are evicted but survive in the host-side
  /// trace stream when tracing is on. Evictions are counted (metrics
  /// "prov.evictions") and warned about once per node; `dlog explain` over
  /// ring-resident lineage then reports "lineage truncated" instead of a
  /// silently wrong tree.
  size_t ring_capacity = 512;
};

/// One lineage edge: `fact` exists at `node` because `rule_id` fired over
/// the tuples with trace ids `inputs` (kRule at the fact's home, kAgg at an
/// aggregate group home), or because a tuple id was generated for it (kGen,
/// which also pins `tid`).
struct ProvenanceEdge {
  enum class Kind : uint8_t { kRule = 0, kAgg = 1, kGen = 2 };

  Kind kind = Kind::kRule;
  Timestamp time = 0;           ///< Node-local (== global) sim time.
  NodeId node = kNoNode;
  SymbolId pred = 0;
  Fact fact;
  int32_t rule_id = -1;         ///< -1 for axioms / kGen records.
  uint64_t tid = 0;             ///< kGen: the generated tuple's trace id.
  std::vector<uint64_t> inputs; ///< kRule/kAgg: input trace ids.
  int64_t latency_us = 0;       ///< kRule/kAgg: update-to-apply latency.

  /// The schema-v2 "deriv" trace record this edge spills as (phase
  /// "result" | "agg" | "gen").
  TraceRecord ToTraceRecord() const;
};

/// Fixed-capacity per-node ring of lineage edges, oldest-first iteration.
/// Cleared on node reboot (RAM is volatile); the trace stream is the
/// durable copy.
class ProvenanceStore {
 public:
  explicit ProvenanceStore(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Push(ProvenanceEdge edge);
  void Clear();

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }

  /// Edges in insertion order (oldest surviving first).
  std::vector<ProvenanceEdge> Edges() const;

 private:
  size_t capacity_;
  size_t next_ = 0;          // overwrite position once full
  uint64_t dropped_ = 0;     // evicted edges
  std::vector<ProvenanceEdge> ring_;
};

/// The reconstructed causal story of one result tuple, built from a
/// schema-v2 trace stream by ExplainFact (`dlog explain`).
struct ExplainReport {
  std::string target;             ///< Canonical fact text.
  std::string tree;               ///< Pretty-printed derivation tree.
  size_t cone_facts = 0;          ///< Distinct facts in the causal cone.
  size_t cone_firings = 0;        ///< Rule firings / aggregate emissions.
  size_t nodes_visited = 0;       ///< Nodes touched by cone facts + hops.
  int64_t first_inject_us = -1;   ///< Earliest contributing injection.
  int64_t generated_us = -1;      ///< When the target tuple materialized.
  uint64_t retransmits_attributed = 0;
  /// Input trace ids the record set could not resolve to a fact — nonzero
  /// when lineage was truncated (ring eviction, node reboot, or a trace
  /// horizon). Format() then flags the tree as a lower bound instead of
  /// presenting a silently wrong one.
  size_t unresolved_tids = 0;

  /// Traffic whose contributing-trace-id set intersects the causal cone,
  /// per phase, plus the whole-trace totals computed with the same
  /// attempts convention as TraceStats — so the grand totals here
  /// reconcile exactly with `dlog stats` on the same file.
  std::map<std::string, TraceStats::Cell> attributed_by_phase;
  TraceStats::Cell attributed_total;
  TraceStats::Cell trace_total;
  uint64_t trace_retransmits = 0;

  /// The full `dlog explain` output (tree + cost tables + latency line).
  std::string Format() const;
};

/// Reconstructs the causal tree of `target` from trace `records` (which
/// must come from a run with provenance enabled: deriv records + tid'd
/// injects + hop tids). `program` supplies rule text for the tree. Fails
/// with NotFound when the trace never generated or injected the fact.
StatusOr<ExplainReport> ExplainFact(const std::vector<TraceRecord>& records,
                                    const Program& program,
                                    const Fact& target);

}  // namespace deduce

#endif  // DEDUCE_ENGINE_PROVENANCE_H_

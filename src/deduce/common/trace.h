#ifndef DEDUCE_COMMON_TRACE_H_
#define DEDUCE_COMMON_TRACE_H_

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "deduce/common/statusor.h"

namespace deduce {

/// One structured trace event, written as a single JSONL line. The schema
/// (docs/OBSERVABILITY.md) is deliberately flat so `jq` and the built-in
/// parser can both consume it:
///
///   kind  "hop"        one link-layer transmission batch (all ARQ attempts
///                      of one unicast/broadcast hop)
///         "inject"     a base-stream update entering the engine at a node
///         "retransmit" an end-to-end transport retransmission decision
///         "deriv"      a provenance event (schema v2): a rule firing, an
///                      aggregate emission, or a tuple generation
///         "cfdiff"     a counterfactual diff entry (schema v3): one
///                      appeared/vanished/flipped tuple with its divergence
///                      attribution, or one per-predicate cost-delta row
///                      (docs/OBSERVABILITY.md)
///   phase "inject" | "store" | "sweep" | "result" | "agg" | "ack" |
///         "repair" | "retransmit" | "other"
///                                  — which engine phase paid for the event;
///         for kind "deriv": "result" (rule firing applied at the fact's
///         home), "agg" (aggregate emitted at the group home), "gen" (a
///         tuple id was generated for the fact);
///         for kind "cfdiff": the divergence class — "inject" | "rule" |
///         "agg" | "lost" | "shed" | "unknown" — or "cost" for delta rows
///   pred  head/stream predicate the bytes were spent on ("" when unknown)
///   seq   transport sequence number or sweep pass index (0 when N/A)
///
/// Schema v2 adds optional provenance fields, only serialized when set so a
/// v1 trace (provenance off) stays byte-identical to PR 2 output:
///
///   schema  2 when any v2 field is present (absent lines are v1)
///   tid     64-bit trace id of the fact's tuple, 16 hex digits as a JSON
///           string (JSON numbers lose precision past 2^53)
///   tids    contributing trace ids, comma-separated hex in one string
///           (the flat scanner has no arrays)
///   fact    canonical fact text, e.g. "uncov(loc(6, 6), 1)"
///   rule    firing rule id (deriv result/agg records only)
///   lat     stream-update-to-apply latency in us (deriv result/agg)
///
/// Schema v3 adds counterfactual-diff fields, again only serialized when
/// set (v1/v2 streams are byte-identical to what older writers emit):
///
///   cf      cfdiff change class: "appeared" | "vanished" | "flipped" for
///           tuple entries, "cost" for per-predicate delta rows
///   dmsgs/dbytes/dretr/dsheds/dlat
///           signed perturbed-minus-base deltas, present on "cost" rows
struct TraceRecord {
  /// Highest schema version this parser understands.
  static constexpr int kSchemaVersion = 3;
  /// Sentinel for "no rule recorded" (rule ids are small non-negatives,
  /// with -1 reserved for axioms).
  static constexpr int32_t kNoRule = INT32_MIN;

  int64_t time = 0;       ///< Simulation time (us, global clock).
  int node = -1;          ///< Reporting node (the sender / injecting node).
  std::string kind;
  std::string phase;
  std::string pred;
  int src = -1;           ///< Hop source (kind == "hop").
  int dst = -1;           ///< Hop destination.
  uint64_t bytes = 0;     ///< Wire bytes per attempt (0 for non-hop kinds).
  uint64_t seq = 0;
  int attempts = 1;       ///< Link-layer transmissions used.
  bool delivered = true;
  int schema = 1;               ///< Serialized only when != 1.
  uint64_t tid = 0;             ///< Trace id of this record's tuple (0 = none).
  std::vector<uint64_t> tids;   ///< Contributing trace ids.
  std::string fact;             ///< Canonical fact text ("" = none).
  int32_t rule = kNoRule;       ///< Rule id, kNoRule when absent.
  int64_t lat = 0;              ///< End-to-end latency us (0 = none).
  std::string cf;               ///< cfdiff change class ("" = not a cfdiff).
  int64_t dmsgs = 0;            ///< cfdiff cost rows: message delta.
  int64_t dbytes = 0;           ///< cfdiff cost rows: byte delta.
  int64_t dretr = 0;            ///< cfdiff cost rows: retransmission delta.
  int64_t dsheds = 0;           ///< cfdiff cost rows: shed delta.
  int64_t dlat = 0;             ///< cfdiff cost rows: mean-latency delta us.

  /// One JSONL line (no trailing newline), fixed key order.
  std::string ToJson() const;
  /// Parses a line produced by ToJson (tolerates unknown extra keys).
  static StatusOr<TraceRecord> FromJson(const std::string& line);

  bool operator==(const TraceRecord& o) const;
};

/// Parses every record of a JSONL trace, skipping blank lines and lines
/// FromJson rejects.
std::vector<TraceRecord> ParseTraceRecords(const std::string& jsonl);

/// Formats a trace id the way the JSONL schema carries it: 16 lowercase hex
/// digits, zero padded.
std::string TraceIdToHex(uint64_t tid);
/// Inverse of TraceIdToHex; false on malformed input.
bool TraceIdFromHex(const std::string& hex, uint64_t* out);

/// Appends trace records to a stream as JSONL. Inert until opened: an
/// unopened writer's Emit is a single-branch no-op, so tracing costs
/// nothing when off.
///
/// Emit is internally locked, so one open writer may be shared by
/// concurrent trial threads (lines interleave whole, never torn) — though
/// parallel trial runners normally give each trial its own writer to keep
/// line order deterministic (DESIGN.md §11). Open/Close must not race
/// with Emit.
class TraceWriter {
 public:
  TraceWriter() = default;

  /// Starts writing to `path` (truncates). Fails if unwritable.
  Status OpenFile(const std::string& path);
  /// Starts writing to a caller-owned stream (tests, in-memory capture).
  void OpenStream(std::ostream* out);
  void Close();

  bool on() const { return out_ != nullptr; }
  uint64_t lines_written() const { return lines_; }

  void Emit(const TraceRecord& record);

 private:
  std::mutex mu_;                    // serializes Emit across threads
  std::ostream* out_ = nullptr;      // borrowed or == file_.get()
  std::unique_ptr<std::ofstream> file_;
  uint64_t lines_ = 0;
};

/// Aggregation of a trace stream into the per-predicate / per-phase
/// communication-cost tables `dlog stats` prints. Message counts follow
/// NetworkStats conventions: every link-layer attempt is a message and is
/// paid for in bytes.
struct TraceStats {
  struct Cell {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };

  /// Per-predicate end-to-end numbers from "deriv" records (schema v2).
  struct LatencyCell {
    uint64_t results = 0;        ///< deriv result/agg records (rule firings).
    uint64_t gens = 0;           ///< deriv gen records (tuples materialized).
    int64_t lat_sum = 0;         ///< Sum of `lat` over results.
    int64_t lat_min = 0;         ///< Valid when results > 0.
    int64_t lat_max = 0;
  };

  /// (phase, pred) -> traffic, from "hop" records.
  std::map<std::pair<std::string, std::string>, Cell> by_phase_pred;
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
  uint64_t dropped_hops = 0;    ///< Hop records with delivered == false.
  uint64_t injects = 0;         ///< kind == "inject" records.
  uint64_t retransmits = 0;     ///< kind == "retransmit" records.
  uint64_t sheds = 0;           ///< kind == "shed" records (overload).
  uint64_t derivs = 0;          ///< kind == "deriv" records (schema v2).
  uint64_t cfdiffs = 0;         ///< kind == "cfdiff" records (schema v3).
  uint64_t records = 0;         ///< Total records aggregated.
  uint64_t bad_lines = 0;       ///< Unparseable lines skipped.
  uint64_t future_records = 0;  ///< schema > kSchemaVersion, skipped.
  /// Record kinds this parser does not understand, with counts. `dlog
  /// stats` warns once per kind instead of dropping them silently.
  std::map<std::string, uint64_t> unknown_kinds;
  /// pred -> latency/generation rollup from deriv records.
  std::map<std::string, LatencyCell> latency_by_pred;

  void Add(const TraceRecord& r);

  /// Aggregates a JSONL stream; malformed lines are counted in bad_lines
  /// and (up to a cap) described in `errors` when non-null. One warning per
  /// unknown record kind and one for newer-schema records are appended to
  /// `errors` after the scan (warnings do not make a trace "bad").
  static TraceStats Aggregate(std::istream& in,
                              std::vector<std::string>* errors);

  /// Deterministic human-readable tables (the `dlog stats` output).
  std::string ToTable() const;

  /// Per-predicate end-to-end latency and bytes-per-result table (the
  /// `dlog stats --latency` output). Empty string when the trace has no
  /// deriv records.
  std::string LatencyTable() const;
};

}  // namespace deduce

#endif  // DEDUCE_COMMON_TRACE_H_

#ifndef DEDUCE_PERFBENCH_LEDGER_H_
#define DEDUCE_PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace deduce::perfbench {

/// Resident set size of this process, from /proc/self/statm.
int64_t CurrentRssBytes();
/// Peak resident set size of this process (getrusage ru_maxrss).
int64_t PeakRssBytes();
/// Returns freed heap pages to the OS, so the next phase's RSS delta
/// counts only what that phase allocates.
void ReleaseFreeMemory();

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span ledger of one traced run. Spans are recorded around the
/// benchmark's own calls into each layer's public API: name, start, end,
/// the enclosing span, and the run id. Counts recorded at the same
/// boundary ride on the span. Nothing is written until Write().
class Ledger {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    std::vector<std::pair<const char*, int64_t>> counts;
  };

  /// Per-name rollup: self time is a span's duration minus the part its
  /// direct children cover.
  struct Row {
    std::string name;
    int64_t spans = 0;
    double total_s = 0;
    double self_s = 0;
  };

  explicit Ledger(int run_id) : run_id_(run_id) {}

  /// Opens a span as a child of the innermost open span; returns its id.
  int Begin(const char* name);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);
  void Count(int id, const char* name, int64_t value);

  /// Sum of the durations of all spans called `name`.
  double TotalSeconds(const std::string& name) const;
  /// Sum of count `count` over all spans called `name`.
  int64_t TotalCount(const std::string& name, const std::string& count) const;

  std::vector<Row> Rollup() const;
  /// One JSONL line per span. False when `path` cannot be written.
  bool Write(const std::string& path) const;

 private:
  int run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the enclosing scope. A null ledger (untraced run)
/// records nothing and never reads the clock.
class ScopedLedgerSpan {
 public:
  ScopedLedgerSpan(Ledger* ledger, const char* name)
      : ledger_(ledger), id_(ledger == nullptr ? -1 : ledger->Begin(name)) {}
  ~ScopedLedgerSpan() {
    if (ledger_ != nullptr) ledger_->End(id_);
  }
  ScopedLedgerSpan(const ScopedLedgerSpan&) = delete;
  ScopedLedgerSpan& operator=(const ScopedLedgerSpan&) = delete;

  void Count(const char* name, int64_t value) {
    if (ledger_ != nullptr) ledger_->Count(id_, name, value);
  }

 private:
  Ledger* ledger_;
  int id_;
};

}  // namespace deduce::perfbench

#endif  // DEDUCE_PERFBENCH_LEDGER_H_

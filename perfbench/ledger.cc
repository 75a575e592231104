#include "ledger.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>

namespace deduce::perfbench {

int64_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0;
  long long resident = 0;
  int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

int64_t PeakRssBytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

void ReleaseFreeMemory() { malloc_trim(0); }

int Ledger::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Ledger::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Ledger::Count(int id, const char* name, int64_t value) {
  spans_[static_cast<size_t>(id)].counts.emplace_back(name, value);
}

double Ledger::TotalSeconds(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

int64_t Ledger::TotalCount(const std::string& name,
                           const std::string& count) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    for (const auto& [key, value] : s.counts) {
      if (count == key) total += value;
    }
  }
  return total;
}

std::vector<Ledger::Row> Ledger::Rollup() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  // First-appearance order, so the table reads in execution order.
  std::vector<Row> rows;
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = index.emplace(s.name, rows.size());
    if (fresh) rows.push_back(Row{s.name});
    Row& row = rows[it->second];
    int64_t ns = s.end_ns - s.start_ns;
    ++row.spans;
    row.total_s += static_cast<double>(ns) * 1e-9;
    row.self_s += static_cast<double>(ns - child_ns[i]) * 1e-9;
  }
  return rows;
}

bool Ledger::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"run\":" << run_id_ << ",\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns;
    for (const auto& [key, value] : s.counts) {
      out << ",\"" << key << "\":" << value;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace deduce::perfbench

#include "deduce/common/metrics.h"

#include <algorithm>
#include <limits>

#include "deduce/common/strings.h"

namespace deduce {

namespace {

size_t BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  size_t i = 1;
  uint64_t bound = 1;  // bucket i covers [2^(i-1), 2^i)
  while (i + 1 < HistogramData::kBuckets &&
         static_cast<uint64_t>(value) >= (bound << 1)) {
    bound <<= 1;
    ++i;
  }
  if (static_cast<uint64_t>(value) >= (bound << 1)) {
    return HistogramData::kBuckets - 1;
  }
  return i;
}

}  // namespace

void HistogramData::Observe(int64_t value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  ++buckets[BucketIndex(value)];
}

int64_t HistogramData::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i + 1 >= kBuckets) return std::numeric_limits<int64_t>::max();
  return (int64_t{1} << i) - 1;
}

void MetricsRegistry::Add(int node, const std::string& component,
                          const std::string& name, uint64_t delta) {
  if (!enabled_) return;
  Entry& e = entries_[Key{node, component, name}];
  e.kind = Kind::kCounter;
  e.counter += delta;
}

void MetricsRegistry::Set(int node, const std::string& component,
                          const std::string& name, int64_t value) {
  if (!enabled_) return;
  Entry& e = entries_[Key{node, component, name}];
  e.kind = Kind::kGauge;
  e.gauge = value;
}

void MetricsRegistry::Observe(int node, const std::string& component,
                              const std::string& name, int64_t value) {
  if (!enabled_) return;
  Entry& e = entries_[Key{node, component, name}];
  e.kind = Kind::kHistogram;
  e.histogram.Observe(value);
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [key, theirs] : other.entries_) {
    Entry& mine = entries_[key];
    if (mine.kind != theirs.kind && mine.counter == 0 && mine.gauge == 0 &&
        mine.histogram.count == 0) {
      // Freshly created (or never written): adopt their kind wholesale.
      mine = theirs;
      continue;
    }
    mine.kind = theirs.kind;
    switch (theirs.kind) {
      case Kind::kCounter:
        mine.counter += theirs.counter;
        break;
      case Kind::kGauge:
        mine.gauge = theirs.gauge;
        break;
      case Kind::kHistogram: {
        HistogramData& h = mine.histogram;
        const HistogramData& o = theirs.histogram;
        if (o.count == 0) break;
        if (h.count == 0) {
          h.min = o.min;
          h.max = o.max;
        } else {
          h.min = std::min(h.min, o.min);
          h.max = std::max(h.max, o.max);
        }
        h.count += o.count;
        h.sum += o.sum;
        for (size_t i = 0; i < HistogramData::kBuckets; ++i) {
          h.buckets[i] += o.buckets[i];
        }
        break;
      }
    }
  }
}

uint64_t MetricsRegistry::CounterValue(int node, const std::string& component,
                                       const std::string& name) const {
  auto it = entries_.find(Key{node, component, name});
  if (it == entries_.end() || it->second.kind != Kind::kCounter) return 0;
  return it->second.counter;
}

uint64_t MetricsRegistry::CounterTotal(const std::string& component,
                                       const std::string& name) const {
  uint64_t total = 0;
  for (const auto& [key, e] : entries_) {
    if (e.kind == Kind::kCounter && std::get<1>(key) == component &&
        std::get<2>(key) == name) {
      total += e.counter;
    }
  }
  return total;
}

std::string MetricsRegistry::ToJson(bool include_timing) const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, e] : entries_) {
    if (!include_timing && std::get<1>(key) == "timing") continue;
    if (!first) out += ",";
    first = false;
    out += StrFormat("{\"node\":%d,\"component\":\"", std::get<0>(key));
    AppendJsonEscaped(std::get<1>(key), &out);
    out += "\",\"name\":\"";
    AppendJsonEscaped(std::get<2>(key), &out);
    out += "\",";
    switch (e.kind) {
      case Kind::kCounter:
        out += StrFormat("\"kind\":\"counter\",\"value\":%llu",
                         static_cast<unsigned long long>(e.counter));
        break;
      case Kind::kGauge:
        out += StrFormat("\"kind\":\"gauge\",\"value\":%lld",
                         static_cast<long long>(e.gauge));
        break;
      case Kind::kHistogram: {
        const HistogramData& h = e.histogram;
        out += StrFormat(
            "\"kind\":\"histogram\",\"count\":%llu,\"sum\":%lld,"
            "\"min\":%lld,\"max\":%lld,\"buckets\":[",
            static_cast<unsigned long long>(h.count),
            static_cast<long long>(h.sum), static_cast<long long>(h.min),
            static_cast<long long>(h.max));
        bool bfirst = true;
        for (size_t i = 0; i < HistogramData::kBuckets; ++i) {
          if (h.buckets[i] == 0) continue;
          if (!bfirst) out += ",";
          bfirst = false;
          out += StrFormat("{\"le\":%lld,\"count\":%llu}",
                           static_cast<long long>(
                               HistogramData::BucketUpperBound(i)),
                           static_cast<unsigned long long>(h.buckets[i]));
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string MetricsRegistry::ToJsonRow(int64_t time_us,
                                       bool include_timing) const {
  return StrFormat("{\"time\":%lld,", static_cast<long long>(time_us)) +
         ToJson(include_timing).substr(1);
}

}  // namespace deduce

#include "deduce/common/trace.h"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#include "deduce/common/strings.h"

namespace deduce {

namespace {

/// Minimal scanner for the flat one-line JSON objects ToJson emits:
/// string, integer, and boolean values only — no nesting, no arrays.
class FlatJsonScanner {
 public:
  explicit FlatJsonScanner(const std::string& s) : s_(s), i_(0) {}

  /// Walks the object, invoking Visit(key, raw_value, is_string) per member.
  /// `raw_value` has quotes stripped and escapes decoded for strings.
  template <typename Visit>
  Status Parse(const Visit& visit) {
    SkipWs();
    if (!Consume('{')) return Err("expected '{'");
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return Err("expected member key");
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      SkipWs();
      std::string value;
      bool is_string = false;
      if (Peek() == '"') {
        if (!ParseString(&value)) return Err("bad string value");
        is_string = true;
      } else {
        while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' &&
               !IsWs(s_[i_])) {
          value += s_[i_++];
        }
        if (value.empty()) return Err("empty value");
      }
      visit(key, value, is_string);
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Err("expected ',' or '}'");
    }
  }

 private:
  static bool IsWs(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  }
  void SkipWs() {
    while (i_ < s_.size() && IsWs(s_[i_])) ++i_;
  }
  char Peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++i_;
    return true;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    while (i_ < s_.size()) {
      char c = s_[i_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        char e = s_[i_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'u': {
            if (i_ + 4 > s_.size()) return false;
            char* end = nullptr;
            std::string hex = s_.substr(i_, 4);
            long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) return false;
            i_ += 4;
            // Trace strings are ASCII; anything else round-trips as '?'.
            *out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;  // unterminated
  }
  Status Err(const char* what) const {
    return Status::InvalidArgument(
        StrFormat("trace json: %s at offset %zu", what, i_));
  }

  const std::string& s_;
  size_t i_;
};

}  // namespace

std::string TraceIdToHex(uint64_t tid) {
  return StrFormat("%016llx", static_cast<unsigned long long>(tid));
}

bool TraceIdFromHex(const std::string& hex, uint64_t* out) {
  if (hex.empty() || hex.size() > 16) return false;
  uint64_t v = 0;
  for (char c : hex) {
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      d = c - 'A' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  *out = v;
  return true;
}

std::string TraceRecord::ToJson() const {
  std::string out = StrFormat("{\"time\":%lld,\"node\":%d,\"kind\":\"",
                              static_cast<long long>(time), node);
  AppendJsonEscaped(kind, &out);
  out += "\",\"phase\":\"";
  AppendJsonEscaped(phase, &out);
  out += "\",\"pred\":\"";
  AppendJsonEscaped(pred, &out);
  out += StrFormat(
      "\",\"src\":%d,\"dst\":%d,\"bytes\":%llu,\"seq\":%llu,"
      "\"attempts\":%d,\"delivered\":%s",
      src, dst, static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(seq), attempts,
      delivered ? "true" : "false");
  // Schema-v2 fields are appended only when set: a record with none of them
  // serializes byte-identically to schema v1.
  if (schema != 1) out += StrFormat(",\"schema\":%d", schema);
  if (tid != 0) out += ",\"tid\":\"" + TraceIdToHex(tid) + "\"";
  if (!tids.empty()) {
    out += ",\"tids\":\"";
    for (size_t i = 0; i < tids.size(); ++i) {
      if (i > 0) out += ',';
      out += TraceIdToHex(tids[i]);
    }
    out += "\"";
  }
  if (!fact.empty()) {
    out += ",\"fact\":\"";
    AppendJsonEscaped(fact, &out);
    out += "\"";
  }
  if (rule != kNoRule) out += StrFormat(",\"rule\":%d", rule);
  if (lat != 0) out += StrFormat(",\"lat\":%lld", static_cast<long long>(lat));
  // Schema-v3 counterfactual fields. The five deltas ride only on "cost"
  // rows and are always written there (a zero delta is a finding, not an
  // absent field), keeping cost rows self-describing for jq.
  if (!cf.empty()) {
    out += ",\"cf\":\"";
    AppendJsonEscaped(cf, &out);
    out += "\"";
    if (cf == "cost") {
      out += StrFormat(
          ",\"dmsgs\":%lld,\"dbytes\":%lld,\"dretr\":%lld,"
          "\"dsheds\":%lld,\"dlat\":%lld",
          static_cast<long long>(dmsgs), static_cast<long long>(dbytes),
          static_cast<long long>(dretr), static_cast<long long>(dsheds),
          static_cast<long long>(dlat));
    }
  }
  out += "}";
  return out;
}

StatusOr<TraceRecord> TraceRecord::FromJson(const std::string& line) {
  TraceRecord r;
  r.attempts = 1;
  std::string bad;
  FlatJsonScanner scanner(line);
  Status s = scanner.Parse([&](const std::string& key,
                               const std::string& value, bool is_string) {
    auto want_string = [&](std::string* field) {
      if (!is_string) {
        bad = key;
        return;
      }
      *field = value;
    };
    auto number = [&](auto* field) {
      if (!ParseNumber(value, field)) bad = key;
    };
    if (key == "kind") {
      want_string(&r.kind);
    } else if (key == "phase") {
      want_string(&r.phase);
    } else if (key == "pred") {
      want_string(&r.pred);
    } else if (key == "delivered") {
      if (value == "true") {
        r.delivered = true;
      } else if (value == "false") {
        r.delivered = false;
      } else {
        bad = key;
      }
    } else if (key == "time") {
      number(&r.time);
    } else if (key == "bytes") {
      number(&r.bytes);
    } else if (key == "seq") {
      number(&r.seq);
    } else if (key == "node") {
      number(&r.node);
    } else if (key == "src") {
      number(&r.src);
    } else if (key == "dst") {
      number(&r.dst);
    } else if (key == "attempts") {
      number(&r.attempts);
    } else if (key == "schema") {
      number(&r.schema);
    } else if (key == "tid") {
      if (!is_string || !TraceIdFromHex(value, &r.tid)) bad = key;
    } else if (key == "tids") {
      if (!is_string) {
        bad = key;
        return;
      }
      size_t start = 0;
      while (start <= value.size()) {
        size_t comma = value.find(',', start);
        std::string piece = value.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        uint64_t t = 0;
        if (!TraceIdFromHex(piece, &t)) {
          bad = key;
          return;
        }
        r.tids.push_back(t);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (key == "fact") {
      want_string(&r.fact);
    } else if (key == "rule") {
      number(&r.rule);
    } else if (key == "lat") {
      number(&r.lat);
    } else if (key == "cf") {
      want_string(&r.cf);
    } else if (key == "dmsgs") {
      number(&r.dmsgs);
    } else if (key == "dbytes") {
      number(&r.dbytes);
    } else if (key == "dretr") {
      number(&r.dretr);
    } else if (key == "dsheds") {
      number(&r.dsheds);
    } else if (key == "dlat") {
      number(&r.dlat);
    }
    // Unknown keys are ignored for forward compatibility.
  });
  if (!s.ok()) return s;
  if (!bad.empty()) {
    return Status::InvalidArgument(
        StrFormat("trace json: bad value for \"%s\"", bad.c_str()));
  }
  if (r.kind.empty()) {
    return Status::InvalidArgument("trace json: missing \"kind\"");
  }
  return r;
}

std::vector<TraceRecord> ParseTraceRecords(const std::string& jsonl) {
  std::vector<TraceRecord> out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (StrTrim(line).empty()) continue;
    auto r = TraceRecord::FromJson(line);
    if (r.ok()) out.push_back(std::move(*r));
  }
  return out;
}

bool TraceRecord::operator==(const TraceRecord& o) const {
  return time == o.time && node == o.node && kind == o.kind &&
         phase == o.phase && pred == o.pred && src == o.src && dst == o.dst &&
         bytes == o.bytes && seq == o.seq && attempts == o.attempts &&
         delivered == o.delivered && schema == o.schema && tid == o.tid &&
         tids == o.tids && fact == o.fact && rule == o.rule && lat == o.lat &&
         cf == o.cf && dmsgs == o.dmsgs && dbytes == o.dbytes &&
         dretr == o.dretr && dsheds == o.dsheds && dlat == o.dlat;
}

Status TraceWriter::OpenFile(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!file->is_open()) {
    return Status::InvalidArgument(
        StrFormat("cannot open trace output '%s'", path.c_str()));
  }
  file_ = std::move(file);
  out_ = file_.get();
  lines_ = 0;
  return Status::OK();
}

void TraceWriter::OpenStream(std::ostream* out) {
  file_.reset();
  out_ = out;
  lines_ = 0;
}

void TraceWriter::Close() {
  if (file_ != nullptr) file_->flush();
  file_.reset();
  out_ = nullptr;
}

void TraceWriter::Emit(const TraceRecord& record) {
  if (out_ == nullptr) return;
  // Serialize formatting + write so concurrent emitters never tear lines.
  std::string line = record.ToJson();
  std::lock_guard<std::mutex> lock(mu_);
  *out_ << line << '\n';
  ++lines_;
}

void TraceStats::Add(const TraceRecord& r) {
  ++records;
  if (r.schema > TraceRecord::kSchemaVersion) {
    // A newer producer may have changed field meanings; skip the record
    // rather than misaggregate it. Older (v1) records have schema == 1 and
    // always parse.
    ++future_records;
    return;
  }
  if (r.kind == "hop") {
    // NetworkStats counts every link-layer attempt as a sent message and
    // charges bytes per attempt; mirror that so totals line up exactly.
    uint64_t attempts = r.attempts > 0 ? static_cast<uint64_t>(r.attempts) : 1;
    Cell& cell = by_phase_pred[{r.phase.empty() ? "other" : r.phase, r.pred}];
    cell.messages += attempts;
    cell.bytes += attempts * r.bytes;
    total_messages += attempts;
    total_bytes += attempts * r.bytes;
    if (!r.delivered) ++dropped_hops;
  } else if (r.kind == "inject") {
    ++injects;
  } else if (r.kind == "retransmit") {
    ++retransmits;
  } else if (r.kind == "shed") {
    ++sheds;
  } else if (r.kind == "deriv") {
    ++derivs;
    LatencyCell& cell = latency_by_pred[r.pred];
    if (r.phase == "gen") {
      ++cell.gens;
    } else {
      if (cell.results == 0 || r.lat < cell.lat_min) cell.lat_min = r.lat;
      if (cell.results == 0 || r.lat > cell.lat_max) cell.lat_max = r.lat;
      ++cell.results;
      cell.lat_sum += r.lat;
    }
  } else if (r.kind == "cfdiff") {
    // Counterfactual diff entries (schema v3) describe *two* runs; they
    // carry no traffic of their own, so they only count as records here.
    ++cfdiffs;
  } else {
    ++unknown_kinds[r.kind];
  }
}

TraceStats TraceStats::Aggregate(std::istream& in,
                                 std::vector<std::string>* errors) {
  TraceStats stats;
  constexpr size_t kMaxErrors = 10;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (StrTrim(line).empty()) continue;
    StatusOr<TraceRecord> r = TraceRecord::FromJson(line);
    if (!r.ok()) {
      ++stats.bad_lines;
      if (errors != nullptr && errors->size() < kMaxErrors) {
        errors->push_back(StrFormat("line %zu: %s", lineno,
                                    r.status().message().c_str()));
      }
      continue;
    }
    stats.Add(*r);
  }
  if (errors != nullptr) {
    // Warn once per unknown kind (not once per record) and once for
    // newer-schema records; both are forward-compatibility signals, not
    // parse failures, so they do not count as bad_lines.
    for (const auto& [kind, count] : stats.unknown_kinds) {
      errors->push_back(StrFormat(
          "warning: %llu record(s) of unknown kind \"%s\" ignored",
          static_cast<unsigned long long>(count), kind.c_str()));
    }
    if (stats.future_records > 0) {
      errors->push_back(StrFormat(
          "warning: %llu record(s) with schema > %d skipped "
          "(produced by a newer writer)",
          static_cast<unsigned long long>(stats.future_records),
          TraceRecord::kSchemaVersion));
    }
  }
  return stats;
}

std::string TraceStats::ToTable() const {
  std::string out;
  out += StrFormat("trace records:   %llu\n",
                   static_cast<unsigned long long>(records));
  out += StrFormat("total messages:  %llu\n",
                   static_cast<unsigned long long>(total_messages));
  out += StrFormat("total bytes:     %llu\n",
                   static_cast<unsigned long long>(total_bytes));
  out += StrFormat("injected tuples: %llu\n",
                   static_cast<unsigned long long>(injects));
  out += StrFormat("retransmissions: %llu\n",
                   static_cast<unsigned long long>(retransmits));
  out += StrFormat("dropped hops:    %llu\n",
                   static_cast<unsigned long long>(dropped_hops));
  if (sheds > 0) {
    out += StrFormat("sheds:           %llu\n",
                     static_cast<unsigned long long>(sheds));
  }
  if (derivs > 0) {
    out += StrFormat("deriv records:   %llu\n",
                     static_cast<unsigned long long>(derivs));
  }
  if (cfdiffs > 0) {
    out += StrFormat("cfdiff records:  %llu\n",
                     static_cast<unsigned long long>(cfdiffs));
  }
  if (bad_lines > 0) {
    out += StrFormat("bad lines:       %llu\n",
                     static_cast<unsigned long long>(bad_lines));
  }
  if (by_phase_pred.empty()) return out;

  // Per-phase rollup, then the full (phase, pred) breakdown.
  std::map<std::string, Cell> by_phase;
  for (const auto& [key, cell] : by_phase_pred) {
    Cell& p = by_phase[key.first];
    p.messages += cell.messages;
    p.bytes += cell.bytes;
  }
  out += "\nper-phase traffic:\n";
  out += StrFormat("  %-12s %12s %14s\n", "phase", "messages", "bytes");
  for (const auto& [phase, cell] : by_phase) {
    out += StrFormat("  %-12s %12llu %14llu\n", phase.c_str(),
                     static_cast<unsigned long long>(cell.messages),
                     static_cast<unsigned long long>(cell.bytes));
  }
  out += "\nper-predicate traffic:\n";
  out += StrFormat("  %-12s %-16s %12s %14s\n", "phase", "predicate",
                   "messages", "bytes");
  for (const auto& [key, cell] : by_phase_pred) {
    const std::string& pred = key.second.empty() ? "-" : key.second;
    out += StrFormat("  %-12s %-16s %12llu %14llu\n", key.first.c_str(),
                     pred.c_str(),
                     static_cast<unsigned long long>(cell.messages),
                     static_cast<unsigned long long>(cell.bytes));
  }
  return out;
}

std::string TraceStats::LatencyTable() const {
  if (latency_by_pred.empty()) return "";

  // Bytes-per-result denominators: all hop bytes attributed to a predicate,
  // split over the tuples actually materialized for it (falling back to
  // rule firings when the trace has no gen records for the predicate).
  std::map<std::string, uint64_t> bytes_by_pred;
  for (const auto& [key, cell] : by_phase_pred) {
    bytes_by_pred[key.second] += cell.bytes;
  }

  std::string out = "per-predicate latency (deriv records):\n";
  out += StrFormat("  %-16s %8s %8s %12s %12s %12s %14s\n", "predicate",
                   "results", "tuples", "lat avg us", "lat min us",
                   "lat max us", "bytes/result");
  for (const auto& [pred, cell] : latency_by_pred) {
    std::string avg = "-", lo = "-", hi = "-", bpr = "-";
    if (cell.results > 0) {
      avg = StrFormat("%lld", static_cast<long long>(
                                  cell.lat_sum /
                                  static_cast<int64_t>(cell.results)));
      lo = StrFormat("%lld", static_cast<long long>(cell.lat_min));
      hi = StrFormat("%lld", static_cast<long long>(cell.lat_max));
    }
    uint64_t denom = cell.gens > 0 ? cell.gens : cell.results;
    auto bit = bytes_by_pred.find(pred);
    if (denom > 0 && bit != bytes_by_pred.end()) {
      bpr = StrFormat("%llu",
                      static_cast<unsigned long long>(bit->second / denom));
    }
    out += StrFormat("  %-16s %8llu %8llu %12s %12s %12s %14s\n",
                     pred.empty() ? "-" : pred.c_str(),
                     static_cast<unsigned long long>(cell.results),
                     static_cast<unsigned long long>(cell.gens), avg.c_str(),
                     lo.c_str(), hi.c_str(), bpr.c_str());
  }
  return out;
}

}  // namespace deduce

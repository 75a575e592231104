#include "deduce/engine/scenario.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "deduce/common/rng.h"
#include "deduce/common/strings.h"
#include "deduce/datalog/parser.h"
#include "deduce/datalog/symbol.h"
#include "deduce/engine/engine.h"
#include "deduce/eval/incremental.h"
#include "deduce/eval/seminaive.h"

namespace deduce {

namespace {

// ---------------------------------------------------------------------
// Serialization helpers
// ---------------------------------------------------------------------

std::string NodeList(const std::vector<NodeId>& nodes) {
  if (nodes.empty()) return "*";
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat("%d", nodes[i]);
  }
  return out;
}

bool ParseNodeList(const std::string& text, std::vector<NodeId>* out) {
  out->clear();
  if (text == "*") return true;
  for (const std::string& part : StrSplit(text, ',')) {
    NodeId v = 0;
    if (!ParseNumber(part, &v)) return false;
    out->push_back(v);
  }
  return !out->empty();
}

/// Reads the value of a `<name>=<number>` option token; `prefix` is
/// "<name>=".
template <typename T>
bool ParseOption(std::string_view token, std::string_view prefix, T* out) {
  return StartsWith(token, prefix) &&
         ParseNumber(token.substr(prefix.size()), out);
}

/// Scenario booleans are written 0 or 1, and only those parse.
bool ParseFlag(std::string_view text, bool* out) {
  if (text != "0" && text != "1") return false;
  *out = text == "1";
  return true;
}

const char* FaultKindName(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultEvent::Kind::kFail:
      return "fail";
    case FaultEvent::Kind::kRecover:
      return "recover";
    case FaultEvent::Kind::kHealLinks:
      return "heal";
    case FaultEvent::Kind::kSlowNode:
      return "slow";
    case FaultEvent::Kind::kMemSqueeze:
      return "squeeze";
    case FaultEvent::Kind::kInjectStorm:
      return "storm";
    case FaultEvent::Kind::kAddLinkFault:
      switch (ev.rule.kind) {
        case LinkFaultRule::Kind::kCut:
          return "cut";
        case LinkFaultRule::Kind::kCorrupt:
          return "corrupt";
        case LinkFaultRule::Kind::kDuplicate:
          return "dup";
        case LinkFaultRule::Kind::kDelay:
          return "delay";
      }
  }
  return "?";
}

std::string FormatFault(const FaultEvent& ev) {
  std::string out = StrFormat("%s %lld", FaultKindName(ev),
                              static_cast<long long>(ev.time));
  if (ev.kind == FaultEvent::Kind::kFail ||
      ev.kind == FaultEvent::Kind::kRecover) {
    out += StrFormat(" %d", ev.node);
    return out;
  }
  if (ev.kind == FaultEvent::Kind::kSlowNode) {
    out += StrFormat(" %d stall=%lld", ev.node,
                     static_cast<long long>(ev.magnitude));
    return out;
  }
  if (ev.kind == FaultEvent::Kind::kMemSqueeze) {
    // magnitude is an integer percentage; serialize the factor it encodes.
    out += StrFormat(" factor=%g",
                     static_cast<double>(ev.magnitude) / 100.0);
    return out;
  }
  if (ev.kind == FaultEvent::Kind::kInjectStorm) {
    out += StrFormat(" %d count=%lld pred=%s", ev.node,
                     static_cast<long long>(ev.magnitude), ev.arg.c_str());
    return out;
  }
  out += " " + NodeList(ev.rule.src) + " -> " + NodeList(ev.rule.dst);
  if (ev.kind == FaultEvent::Kind::kAddLinkFault &&
      ev.rule.kind != LinkFaultRule::Kind::kCut) {
    out += StrFormat(" rate=%g", ev.rule.rate);
    if (ev.rule.kind == LinkFaultRule::Kind::kDelay) {
      out += StrFormat(" extra=%lld",
                       static_cast<long long>(ev.rule.extra_delay));
    }
  }
  return out;
}

Status ParseFault(const std::string& line, int lineno, FaultPlan* plan) {
  std::istringstream ls(line);
  std::string kind, time_text;
  SimTime time = 0;
  auto bad = [&](const std::string& what) {
    return Status::InvalidArgument(
        StrFormat("faults line %d: %s", lineno, what.c_str()));
  };
  if (!(ls >> kind >> time_text) || !ParseNumber(time_text, &time)) {
    return bad("expected '<kind> <time> ...'");
  }
  std::string node_text;
  NodeId node = kNoNode;
  auto read_node = [&] {
    return static_cast<bool>(ls >> node_text) && ParseNumber(node_text, &node);
  };
  if (kind == "fail" || kind == "recover") {
    if (!read_node()) return bad("expected node id");
    if (kind == "fail") {
      plan->Fail(time, node);
    } else {
      plan->Recover(time, node);
    }
    return Status::OK();
  }
  if (kind == "slow") {
    std::string opt;
    SimTime stall = 0;
    if (!read_node() || !(ls >> opt) || !ParseOption(opt, "stall=", &stall)) {
      return bad("expected '<node> stall=<us>'");
    }
    plan->SlowNode(time, node, stall);
    return Status::OK();
  }
  if (kind == "squeeze") {
    std::string opt;
    double factor = 0;
    if (!(ls >> opt) || !ParseOption(opt, "factor=", &factor)) {
      return bad("expected 'factor=<f>'");
    }
    plan->MemSqueeze(time, factor);
    return Status::OK();
  }
  if (kind == "storm") {
    std::string count_opt, pred_opt;
    int64_t count = 0;
    if (!read_node() || !(ls >> count_opt >> pred_opt) ||
        !ParseOption(count_opt, "count=", &count) ||
        pred_opt.rfind("pred=", 0) != 0) {
      return bad("expected '<node> count=<n> pred=<name>'");
    }
    plan->InjectStorm(time, node, pred_opt.substr(5), count);
    return Status::OK();
  }
  if (kind != "cut" && kind != "heal" && kind != "corrupt" &&
      kind != "dup" && kind != "delay") {
    // Explicitly reject rather than best-effort: a replayed reproducer
    // with a fault this build does not know cannot be trusted to
    // reproduce anything.
    return bad("unknown fault kind '" + kind + "'");
  }
  std::string src_text, arrow, dst_text;
  if (!(ls >> src_text >> arrow >> dst_text) || arrow != "->") {
    return bad("expected '<src-list> -> <dst-list>'");
  }
  std::vector<NodeId> src, dst;
  if (!ParseNodeList(src_text, &src)) return bad("bad src node list");
  if (!ParseNodeList(dst_text, &dst)) return bad("bad dst node list");
  double rate = 1.0;
  SimTime extra = 0;
  std::string opt;
  while (ls >> opt) {
    if (StartsWith(opt, "rate=") || StartsWith(opt, "extra=")) {
      if (!ParseOption(opt, "rate=", &rate) &&
          !ParseOption(opt, "extra=", &extra)) {
        return bad("bad value in fault option '" + opt + "'");
      }
    } else {
      return bad("unknown fault option");
    }
  }
  if (kind == "cut") {
    plan->CutLinks(time, std::move(src), std::move(dst));
  } else if (kind == "heal") {
    plan->HealLinks(time, std::move(src), std::move(dst));
  } else if (kind == "corrupt") {
    plan->CorruptLinks(time, std::move(src), std::move(dst), rate);
  } else if (kind == "dup") {
    plan->DuplicateLinks(time, std::move(src), std::move(dst), rate);
  } else {
    plan->DelayLinks(time, std::move(src), std::move(dst), rate, extra);
  }
  return Status::OK();
}

}  // namespace

StatusOr<ScenarioEvent> ParseEventLine(const std::string& line, int lineno) {
  std::istringstream ls(line);
  long long time;
  int node;
  std::string op;
  if (!(ls >> time >> node >> op) || (op != "+" && op != "-")) {
    return StatusOr<ScenarioEvent>(Status::InvalidArgument(
        StrFormat("events line %d: expected '<time> <node> +|- <fact>.'",
                  lineno)));
  }
  std::string fact_text;
  std::getline(ls, fact_text);
  auto rule = ParseRule(std::string(StrTrim(fact_text)));
  if (!rule.ok() || !rule->body.empty()) {
    return StatusOr<ScenarioEvent>(Status::InvalidArgument(
        StrFormat("events line %d: bad fact: %s", lineno,
                  rule.ok() ? "rules not allowed"
                            : rule.status().message().c_str())));
  }
  ScenarioEvent ev;
  ev.time = time;
  ev.node = node;
  ev.op = op == "+" ? StreamOp::kInsert : StreamOp::kDelete;
  ev.fact = Fact(rule->head.predicate, rule->head.args);
  return ev;
}

// ---------------------------------------------------------------------
// Scenario text form
// ---------------------------------------------------------------------

std::string Scenario::ToText() const {
  // The v3 header (and the [perturb] section) appear only when there is a
  // perturbation to record: every pre-counterfactual scenario keeps
  // serializing byte-identically to the v2 writer.
  std::string out = perturbations.empty() ? "# deduce chaos scenario v2\n"
                                          : "# deduce chaos scenario v3\n";
  out += StrFormat("seed %llu\n", static_cast<unsigned long long>(seed));
  out += StrFormat("grid %d\n", grid);
  out += StrFormat("loss %g\n", loss);
  out += StrFormat("retries %d\n", retries);
  out += StrFormat("reliable %d\n", reliable ? 1 : 0);
  out += StrFormat("repair %d\n", repair ? 1 : 0);
  out += StrFormat("anti_entropy_period %lld\n",
                   static_cast<long long>(anti_entropy_period));
  out += StrFormat("checksum %d\n", checksum ? 1 : 0);
  out += StrFormat("rto_jitter %g\n", rto_jitter);
  out += StrFormat("retraction %d\n", retraction ? 1 : 0);
  out += "storage " + storage + "\n";
  out += StrFormat("budget %d\n", budget ? 1 : 0);
  out += StrFormat("budget_replicas %llu\n",
                   static_cast<unsigned long long>(budget_replicas));
  out += StrFormat("budget_inflight %llu\n",
                   static_cast<unsigned long long>(budget_inflight));
  out += StrFormat("budget_eval %llu\n",
                   static_cast<unsigned long long>(budget_eval));
  out += StrFormat("budget_ingress %llu\n",
                   static_cast<unsigned long long>(budget_ingress));
  out += "shed_policy " + shed_policy + "\n";
  out += "[program]\n";
  out += program;
  if (!program.empty() && program.back() != '\n') out += '\n';
  out += "[events]\n";
  for (const ScenarioEvent& ev : events) {
    out += StrFormat("%lld %d %s ", static_cast<long long>(ev.time),
                     ev.node, ev.op == StreamOp::kInsert ? "+" : "-");
    out += ev.fact.ToString();
    out += ".\n";
  }
  out += "[faults]\n";
  for (const FaultEvent& ev : faults.events) {
    out += FormatFault(ev);
    out += '\n';
  }
  if (!perturbations.empty()) {
    out += "[perturb]\n";
    for (const Perturbation& p : perturbations) {
      out += p.ToSpec();
      out += '\n';
    }
  }
  out += "[end]\n";
  return out;
}

StatusOr<Scenario> Scenario::FromText(const std::string& text) {
  Scenario s;
  s.program.clear();
  s.storage = "row";
  enum class Section { kHeader, kProgram, kEvents, kFaults, kPerturb, kDone };
  Section section = Section::kHeader;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& what) {
    return StatusOr<Scenario>(Status::InvalidArgument(
        StrFormat("scenario line %d: %s", lineno, what.c_str())));
  };
  while (std::getline(in, line)) {
    ++lineno;
    std::string trimmed(StrTrim(line));
    if (section != Section::kProgram &&
        (trimmed.empty() || trimmed[0] == '#')) {
      // Version pragma: "# deduce chaos scenario vN". Files without one
      // predate versioning and parse as v1; an unknown future version is
      // rejected outright (this build cannot replay it faithfully).
      constexpr char kVersionPrefix[] = "# deduce chaos scenario v";
      if (trimmed.rfind(kVersionPrefix, 0) == 0) {
        const char* digits = trimmed.c_str() + sizeof(kVersionPrefix) - 1;
        int version = 0;
        if (!ParseNumber(digits, &version) || version < 1 || version > 3) {
          return fail(StrFormat(
              "unsupported scenario version '%s' (this build reads v1-v3)",
              digits));
        }
      }
      continue;
    }
    if (trimmed == "[program]") {
      section = Section::kProgram;
      continue;
    }
    if (trimmed == "[events]") {
      section = Section::kEvents;
      continue;
    }
    if (trimmed == "[faults]") {
      section = Section::kFaults;
      continue;
    }
    if (trimmed == "[perturb]") {
      section = Section::kPerturb;
      continue;
    }
    if (trimmed == "[end]") {
      section = Section::kDone;
      continue;
    }
    switch (section) {
      case Section::kHeader: {
        std::istringstream ls(trimmed);
        std::string key, value, extra;
        if (!(ls >> key >> value) || (ls >> extra)) {
          return fail("expected '<key> <value>'");
        }
        bool ok = true;
        if (key == "seed") {
          ok = ParseNumber(value, &s.seed);
        } else if (key == "grid") {
          ok = ParseNumber(value, &s.grid);
        } else if (key == "loss") {
          ok = ParseNumber(value, &s.loss);
        } else if (key == "retries") {
          ok = ParseNumber(value, &s.retries);
        } else if (key == "reliable") {
          ok = ParseFlag(value, &s.reliable);
        } else if (key == "repair") {
          ok = ParseFlag(value, &s.repair);
        } else if (key == "anti_entropy_period") {
          ok = ParseNumber(value, &s.anti_entropy_period);
        } else if (key == "checksum") {
          ok = ParseFlag(value, &s.checksum);
        } else if (key == "rto_jitter") {
          ok = ParseNumber(value, &s.rto_jitter);
        } else if (key == "retraction") {
          ok = ParseFlag(value, &s.retraction);
        } else if (key == "storage") {
          s.storage = value;
        } else if (key == "budget") {
          ok = ParseFlag(value, &s.budget);
        } else if (key == "budget_replicas") {
          ok = ParseNumber(value, &s.budget_replicas);
        } else if (key == "budget_inflight") {
          ok = ParseNumber(value, &s.budget_inflight);
        } else if (key == "budget_eval") {
          ok = ParseNumber(value, &s.budget_eval);
        } else if (key == "budget_ingress") {
          ok = ParseNumber(value, &s.budget_ingress);
        } else if (key == "shed_policy") {
          s.shed_policy = value;
        } else {
          return fail("unknown header key '" + key + "'");
        }
        if (!ok) return fail("bad value '" + value + "' for " + key);
        break;
      }
      case Section::kProgram:
        s.program += line;
        s.program += '\n';
        break;
      case Section::kEvents: {
        auto ev = ParseEventLine(trimmed, lineno);
        if (!ev.ok()) return StatusOr<Scenario>(ev.status());
        s.events.push_back(std::move(*ev));
        break;
      }
      case Section::kFaults: {
        Status st = ParseFault(trimmed, lineno, &s.faults);
        if (!st.ok()) return StatusOr<Scenario>(st);
        break;
      }
      case Section::kPerturb: {
        auto p = ParsePerturbation(trimmed);
        if (!p.ok()) {
          return StatusOr<Scenario>(Status::InvalidArgument(StrFormat(
              "scenario line %d: %s", lineno, p.status().message().c_str())));
        }
        s.perturbations.push_back(std::move(*p));
        break;
      }
      case Section::kDone:
        return fail("content after [end]");
    }
  }
  StoragePolicy ignored;
  if (!StoragePolicyFromName(s.storage, &ignored)) {
    return StatusOr<Scenario>(Status::InvalidArgument(
        "scenario: unknown storage '" + s.storage + "'"));
  }
  if (s.shed_policy != "newest" && s.shed_policy != "farthest" &&
      s.shed_policy != "reject") {
    return StatusOr<Scenario>(Status::InvalidArgument(
        "scenario: unknown shed_policy '" + s.shed_policy + "'"));
  }
  if (s.grid < 1) {
    return StatusOr<Scenario>(Status::InvalidArgument("scenario: bad grid"));
  }
  return s;
}

Status Scenario::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot write scenario file " + path);
  out << ToText();
  out.close();
  if (!out) return Status::Internal("error writing scenario file " + path);
  return Status::OK();
}

StatusOr<Scenario> Scenario::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return StatusOr<Scenario>(
        Status::NotFound("cannot open scenario file " + path));
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return FromText(ss.str());
}

// ---------------------------------------------------------------------
// Perturbation
// ---------------------------------------------------------------------

StatusOr<Scenario> ApplyPerturbations(const Scenario& scenario) {
  Scenario out = scenario;
  out.perturbations.clear();
  for (const Perturbation& p : scenario.perturbations) {
    auto bad = [&](const std::string& what) {
      return StatusOr<Scenario>(Status::InvalidArgument(
          StrFormat("perturbation '%s': %s", p.ToSpec().c_str(),
                    what.c_str())));
    };
    switch (p.kind) {
      case Perturbation::Kind::kNodeDown: {
        if (p.node < 0 || p.node >= scenario.grid * scenario.grid) {
          return bad(StrFormat("node out of range (grid %d)", scenario.grid));
        }
        out.faults.Fail(0, p.node);
        break;
      }
      case Perturbation::Kind::kLinkCut: {
        NodeId n = scenario.grid * scenario.grid;
        if (p.link_a < 0 || p.link_a >= n || p.link_b < 0 || p.link_b >= n) {
          return bad(StrFormat("link endpoint out of range (grid %d)",
                               scenario.grid));
        }
        out.faults.CutLinks(0, {p.link_a}, {p.link_b});
        out.faults.CutLinks(0, {p.link_b}, {p.link_a});
        break;
      }
      case Perturbation::Kind::kInjectDrop: {
        size_t before = out.events.size();
        out.events.erase(
            std::remove_if(out.events.begin(), out.events.end(),
                           [&](const ScenarioEvent& ev) {
                             return ev.fact.ToString() == p.fact;
                           }),
            out.events.end());
        if (out.events.size() == before) {
          return bad("no scenario event carries this fact");
        }
        break;
      }
      case Perturbation::Kind::kBudget: {
        out.budget = true;
        if (p.budget_kind == "replicas") {
          out.budget_replicas = p.budget_value;
        } else if (p.budget_kind == "inflight") {
          out.budget_inflight = p.budget_value;
        } else if (p.budget_kind == "eval") {
          out.budget_eval = p.budget_value;
        } else if (p.budget_kind == "ingress") {
          out.budget_ingress = p.budget_value;
        } else {
          return bad("unknown budget kind");
        }
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------

StatusOr<ScenarioOutcome> RunScenario(const Scenario& scenario) {
  return RunScenario(scenario, ScenarioRunOptions{});
}

StatusOr<ScenarioOutcome> RunScenario(const Scenario& scenario,
                                      const ScenarioRunOptions& run) {
  if (!scenario.perturbations.empty()) {
    auto materialized = ApplyPerturbations(scenario);
    if (!materialized.ok()) {
      return StatusOr<ScenarioOutcome>(materialized.status());
    }
    return RunScenario(*materialized, run);
  }
  auto program = ParseProgram(scenario.program);
  if (!program.ok()) return StatusOr<ScenarioOutcome>(program.status());

  std::vector<ScenarioEvent> events = scenario.events;

  // InjectStorm expansion: each storm fault becomes a deterministic burst
  // of insertions merged into the ordinary event list. Expanding here (not
  // in the network) means the oracle sees exactly the storm facts that
  // were admitted — Inject's return value per fact feeds the same
  // `happened` bookkeeping as hand-written events. Tuple payloads start at
  // 1'000'000 + storm_index * 100'000 so they can never collide with a
  // sampled workload's sequence numbers.
  {
    int storm_idx = 0;
    for (const FaultEvent& fe : scenario.faults.events) {
      if (fe.kind != FaultEvent::Kind::kInjectStorm) continue;
      SymbolId pred = Intern(fe.arg);
      Rng srng(scenario.seed ^
               (0x5bd1e995ULL * static_cast<uint64_t>(storm_idx + 1)));
      for (int64_t i = 0; i < fe.magnitude; ++i) {
        ScenarioEvent ev;
        ev.time = fe.time + i * 1000;  // 1 ms apart: a flood, not a tie.
        ev.node = fe.node;
        ev.op = StreamOp::kInsert;
        ev.fact = Fact(pred, {Term::Int(srng.Uniform(1, 4)),
                              Term::Int(fe.node),
                              Term::Int(1'000'000 + storm_idx * 100'000 + i)});
        events.push_back(std::move(ev));
      }
      ++storm_idx;
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.time < b.time;
                   });

  ScenarioOutcome out;

  // The distributed run under faults. It runs before the oracle so the
  // oracle can be restricted to the injections that actually entered the
  // system: an event aimed at a node that is down at injection time (a
  // dead sensor observes nothing and retracts nothing), or a deletion
  // whose tuple the node no longer knows (a reboot wiped it), never
  // happened, and no delivery protocol can be charged with its effects.
  EngineOptions options;
  options.transport.reliable = scenario.reliable;
  options.transport.rto_jitter = scenario.rto_jitter;
  options.transport.retraction = scenario.retraction;
  options.repair.enabled = scenario.repair;
  options.repair.anti_entropy_period = scenario.anti_entropy_period;
  options.checksum = scenario.checksum;
  options.budget.enabled = scenario.budget;
  options.budget.max_replicas_per_pred =
      static_cast<size_t>(scenario.budget_replicas);
  options.budget.max_inflight = static_cast<size_t>(scenario.budget_inflight);
  options.budget.max_eval_work = static_cast<size_t>(scenario.budget_eval);
  options.budget.max_ingress = static_cast<size_t>(scenario.budget_ingress);
  options.budget.policy = scenario.shed_policy == "farthest"
                              ? ShedPolicy::kShedFarthestWindow
                          : scenario.shed_policy == "reject"
                              ? ShedPolicy::kRejectInjection
                              : ShedPolicy::kShedNewest;
  if (!StoragePolicyFromName(scenario.storage,
                             &options.planner.default_storage)) {
    return StatusOr<ScenarioOutcome>(
        Status::InvalidArgument("unknown storage " + scenario.storage));
  }
  // Observability plumbing (ScenarioRunOptions): provenance changes no
  // simulated counter (provenance.h), and metrics/trace are pure sinks, so
  // a replay with these on stays bit-exact with the plain replay.
  options.provenance.enabled = run.provenance;
  if (run.provenance_capacity != 0) {
    options.provenance.ring_capacity = run.provenance_capacity;
  }
  options.metrics = run.metrics;
  options.trace = run.trace;
  LinkModel link;
  link.loss_rate = scenario.loss;
  link.retries = scenario.retries;
  Network net(Topology::Grid(scenario.grid), link, scenario.seed);
  net.ApplyFaultPlan(scenario.faults);
  auto engine = DistributedEngine::Create(&net, *program, options);
  if (!engine.ok()) return StatusOr<ScenarioOutcome>(engine.status());
  std::vector<bool> happened(events.size(), false);
  for (size_t i = 0; i < events.size(); ++i) {
    const ScenarioEvent& ev = events[i];
    net.sim().RunUntil(ev.time);
    if (ev.node >= 0 && ev.node < net.node_count() && net.IsFailed(ev.node)) {
      continue;
    }
    happened[i] = (*engine)->Inject(ev.node, ev.op, ev.fact).ok();
  }
  net.sim().Run();

  // The fault-free oracle: the surviving injections through the
  // centralized incremental engine.
  {
    auto reference =
        IncrementalEngine::Create(*program, IncrementalOptions{});
    if (reference.ok()) {
      for (size_t i = 0; i < events.size(); ++i) {
        if (!happened[i]) continue;
        StreamEvent ev;
        ev.op = events[i].op;
        ev.fact = events[i].fact;
        ev.id = TupleId{events[i].node, events[i].time,
                        static_cast<uint32_t>(i)};
        ev.time = events[i].time;
        Status st = (*reference)->Apply(ev, nullptr);
        if (!st.ok()) return StatusOr<ScenarioOutcome>(st);
      }
      const ProgramAnalysis& analysis = (*reference)->analysis();
      for (SymbolId pred : analysis.predicates) {
        if (!analysis.idb.count(pred)) continue;
        for (const Fact& f : (*reference)->AliveFacts(pred)) {
          out.oracle.Insert(f);
        }
      }
    } else {
      // Fallback for program classes the incremental engine rejects (head
      // aggregates): whole-program seminaive evaluation of the final fact
      // set. Only equivalent to a replayed stream when nothing is deleted.
      for (const ScenarioEvent& ev : events) {
        if (ev.op != StreamOp::kInsert) {
          return StatusOr<ScenarioOutcome>(reference.status());
        }
      }
      std::vector<Fact> inputs;
      inputs.reserve(events.size());
      for (size_t i = 0; i < events.size(); ++i) {
        if (happened[i]) inputs.push_back(events[i].fact);
      }
      auto db = EvaluateProgram(*program, inputs);
      if (!db.ok()) return StatusOr<ScenarioOutcome>(db.status());
      for (const Rule& rule : program->rules()) {
        for (const Fact& f : db->Relation(rule.head.predicate)) {
          out.oracle.Insert(f);
        }
      }
    }
  }

  out.results = (*engine)->ResultDatabase();
  out.undegraded = (*engine)->UndegradedResultDatabase();
  out.net = net.stats();
  const EngineStats& stats = (*engine)->stats();
  out.decode_errors = stats.decode_errors;
  out.retransmissions = stats.retransmissions;
  out.gave_up = stats.gave_up_messages;
  out.repaired = stats.repaired_messages;
  out.quiesce_time = net.now();
  out.overload = scenario.budget;
  out.sheds = stats.sheds;
  out.ingress_rejects = stats.ingress_rejects;
  out.budget_evictions = stats.budget_evictions;
  out.budget_squeezes = stats.budget_squeezes;
  out.deliveries_stalled = net.stats().deliveries_stalled;
  out.degraded_results = stats.degraded_results;
  if (run.metrics != nullptr) {
    net.stats().ExportTo(run.metrics);
    stats.ExportTo(run.metrics);
  }

  InvariantOptions inv;
  inv.oracle = &out.oracle;
  // Shedding can legitimately leave peers' replica stores divergent (an
  // evicted replica is gone on one band member, live on another), so
  // convergence is only meaningful with budgets off.
  inv.check_convergence = scenario.anti_entropy_period > 0 &&
                          net.link_faults().empty() && !scenario.budget;
  inv.shed_tolerant = scenario.budget;
  out.report = CheckInvariants(**engine, inv);
  return out;
}

std::string ScenarioOutcome::Summary() const {
  std::vector<std::string> got;
  for (SymbolId pred : results.Predicates()) {
    for (const Fact& f : results.Relation(pred)) {
      got.push_back(f.ToString());
    }
  }
  std::sort(got.begin(), got.end());
  size_t oracle_count = 0;
  for (SymbolId pred : oracle.Predicates()) {
    oracle_count += oracle.Relation(pred).size();
  }
  std::string out = StrFormat("results (%zu):\n", got.size());
  for (const std::string& f : got) {
    out += "  ";
    out += f;
    out += '\n';
  }
  out += StrFormat("oracle results: %zu\n", oracle_count);
  out += StrFormat(
      "network: messages=%llu bytes=%llu links_cut=%llu corrupted=%llu "
      "duplicated=%llu reordered=%llu nodes_failed=%llu\n",
      static_cast<unsigned long long>(net.TotalMessages()),
      static_cast<unsigned long long>(net.TotalBytes()),
      static_cast<unsigned long long>(net.links_cut),
      static_cast<unsigned long long>(net.corrupted_delivered),
      static_cast<unsigned long long>(net.duplicated),
      static_cast<unsigned long long>(net.reordered),
      static_cast<unsigned long long>(net.nodes_failed));
  out += StrFormat(
      "engine: decode_errors=%llu retransmissions=%llu gave_up=%llu "
      "repaired=%llu\n",
      static_cast<unsigned long long>(decode_errors),
      static_cast<unsigned long long>(retransmissions),
      static_cast<unsigned long long>(gave_up),
      static_cast<unsigned long long>(repaired));
  if (overload) {
    // Only overload runs print this line, keeping every pre-v2 committed
    // transcript byte-identical.
    out += StrFormat(
        "overload: sheds=%llu ingress_rejects=%llu evictions=%llu "
        "squeezes=%llu stalled=%llu degraded=%llu\n",
        static_cast<unsigned long long>(sheds),
        static_cast<unsigned long long>(ingress_rejects),
        static_cast<unsigned long long>(budget_evictions),
        static_cast<unsigned long long>(budget_squeezes),
        static_cast<unsigned long long>(deliveries_stalled),
        static_cast<unsigned long long>(degraded_results));
  }
  out += StrFormat("quiesced_at_us %lld\n",
                   static_cast<long long>(quiesce_time));
  out += report.ToString();
  out += '\n';
  return out;
}

// ---------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------

namespace {

constexpr char kChaosProgram[] =
    ".decl r/3 input.\n"
    ".decl s/3 input.\n"
    "t(K, N1, N2, I1, I2) :- r(K, N1, I1), s(K, N2, I2).\n";

std::vector<NodeId> GridColumns(int grid, int lo, int hi) {
  std::vector<NodeId> out;
  for (int node = 0; node < grid * grid; ++node) {
    int col = node % grid;
    if (col >= lo && col < hi) out.push_back(node);
  }
  return out;
}

}  // namespace

Scenario SampleScenario(uint64_t seed, const ChaosProfile& profile) {
  Scenario s;
  s.seed = seed;
  s.grid = profile.grid;
  s.loss = profile.loss;
  s.retries = profile.loss > 0 ? 2 : 0;
  s.reliable = profile.reliable;
  s.repair = profile.repair;
  s.anti_entropy_period = profile.anti_entropy_period;
  s.checksum = profile.checksum;
  s.rto_jitter = profile.rto_jitter;
  s.retraction = profile.retraction || profile.overload;
  s.program = kChaosProgram;

  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  int n = profile.grid * profile.grid;
  SimTime horizon = profile.horizon;

  if (profile.overload) {
    // Tight budgets so the storm axis actually sheds, the policy drawn
    // from the seed so the sweep covers all three.
    s.budget = true;
    s.budget_replicas = static_cast<uint64_t>(rng.Uniform(6, 12));
    s.budget_inflight = static_cast<uint64_t>(rng.Uniform(12, 24));
    s.budget_eval = static_cast<uint64_t>(rng.Uniform(6, 12));
    s.budget_ingress = static_cast<uint64_t>(rng.Uniform(8, 16));
    switch (rng.Uniform(0, 2)) {
      case 0:
        s.shed_policy = "newest";
        break;
      case 1:
        s.shed_policy = "farthest";
        break;
      default:
        s.shed_policy = "reject";
        break;
    }
  }

  // Workload: a stream of r/s inserts (with occasional deletes of an
  // earlier insert) whose keys collide often enough to produce joins.
  std::vector<SimTime> times;
  times.reserve(static_cast<size_t>(profile.events));
  for (int i = 0; i < profile.events; ++i) {
    times.push_back(rng.Uniform(0, horizon - 1));
  }
  std::sort(times.begin(), times.end());
  SymbolId r = Intern("r"), sym_s = Intern("s");
  std::vector<ScenarioEvent> alive;
  int seq = 0;
  for (SimTime t : times) {
    ScenarioEvent ev;
    ev.time = t;
    if (!alive.empty() && rng.Bernoulli(0.15)) {
      size_t pick =
          static_cast<size_t>(rng.Uniform(0, alive.size() - 1));
      ev.node = alive[pick].node;
      ev.op = StreamOp::kDelete;
      ev.fact = alive[pick].fact;
      alive.erase(alive.begin() + pick);
    } else {
      ev.node = static_cast<NodeId>(rng.Uniform(0, n - 1));
      ev.op = StreamOp::kInsert;
      SymbolId pred = rng.Bernoulli(0.5) ? r : sym_s;
      int64_t key = rng.Uniform(1, 4);
      ev.fact = Fact(pred, {Term::Int(key), Term::Int(ev.node),
                            Term::Int(++seq)});
      alive.push_back(ev);
    }
    s.events.push_back(std::move(ev));
  }

  if (profile.overload) {
    // Overload axes only — storms, stragglers, squeezes. The link axes
    // (loss, corruption, cuts) have their own sweep; mixing them here
    // would blur which robustness layer a violation indicts.
    NodeId hot = static_cast<NodeId>(rng.Uniform(0, n - 1));
    SimTime start = rng.Uniform(horizon / 10, horizon / 3);
    s.faults.InjectStorm(start, hot, rng.Bernoulli(0.5) ? "r" : "s",
                         rng.Uniform(30, 60));
    if (rng.Bernoulli(0.6)) {  // straggler window, later cleared
      NodeId slow = static_cast<NodeId>(rng.Uniform(0, n - 1));
      SimTime at = rng.Uniform(horizon / 10, horizon / 2);
      s.faults.SlowNode(at, slow, rng.Uniform(10, 40) * 1000);
      s.faults.SlowNode(at + rng.Uniform(horizon / 10, horizon / 3), slow,
                        0);
    }
    if (rng.Bernoulli(0.5)) {  // budget squeeze mid-run
      s.faults.MemSqueeze(rng.Uniform(horizon / 4, (horizon * 3) / 4),
                          static_cast<double>(rng.Uniform(4, 8)) / 10.0);
    }
    return s;
  }

  // Fault schedule: 1-3 independent clauses. Every windowed clause heals
  // before 0.9 * horizon so the run can quiesce and converge.
  int clauses = static_cast<int>(rng.Uniform(1, 3));
  for (int c = 0; c < clauses; ++c) {
    SimTime start = rng.Uniform(horizon / 10, horizon / 2);
    SimTime stop =
        start + rng.Uniform(horizon / 10, (horizon * 2) / 5);
    switch (rng.Uniform(0, 5)) {
      case 0: {  // crash-reboot churn
        NodeId node = static_cast<NodeId>(rng.Uniform(0, n - 1));
        s.faults.Fail(start, node).Recover(stop, node);
        break;
      }
      case 1: {  // (possibly asymmetric) partition, later healed
        int cut_col = static_cast<int>(rng.Uniform(1, profile.grid - 1));
        std::vector<NodeId> left = GridColumns(profile.grid, 0, cut_col);
        std::vector<NodeId> right =
            GridColumns(profile.grid, cut_col, profile.grid);
        bool both = rng.Bernoulli(0.5);
        s.faults.CutLinks(start, left, right);
        if (both) s.faults.CutLinks(start, right, left);
        s.faults.HealLinks(stop, left, right);
        if (both) s.faults.HealLinks(stop, right, left);
        break;
      }
      case 2: {  // payload corruption window
        double rate = static_cast<double>(rng.Uniform(1, 6)) / 20.0;
        s.faults.CorruptLinks(start, {}, {}, rate);
        s.faults.HealLinks(stop, {}, {});
        break;
      }
      case 3: {  // duplication window
        double rate = static_cast<double>(rng.Uniform(1, 6)) / 20.0;
        s.faults.DuplicateLinks(start, {}, {}, rate);
        s.faults.HealLinks(stop, {}, {});
        break;
      }
      case 4: {  // delay jitter (bounded reordering) window
        double rate = static_cast<double>(rng.Uniform(2, 10)) / 20.0;
        SimTime extra = rng.Uniform(2, 10) * 1000;
        s.faults.DelayLinks(start, {}, {}, rate, extra);
        s.faults.HealLinks(stop, {}, {});
        break;
      }
      default: {  // reboot storm
        int victims = static_cast<int>(rng.Uniform(2, 4));
        std::vector<NodeId> nodes;
        for (int i = 0; i < victims; ++i) {
          NodeId node = static_cast<NodeId>(rng.Uniform(0, n - 1));
          if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
            nodes.push_back(node);
          }
        }
        FaultPlan storm = FaultPlan::RebootStorm(
            nodes, start, /*downtime=*/horizon / 20,
            /*stagger=*/horizon / 40, /*waves=*/2,
            /*wave_gap=*/horizon / 8);
        s.faults.events.insert(s.faults.events.end(),
                               storm.events.begin(), storm.events.end());
        break;
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

namespace {

/// True when the candidate still violates some invariant.
StatusOr<bool> StillViolates(const Scenario& candidate) {
  auto run = RunScenario(candidate);
  if (!run.ok()) return StatusOr<bool>(run.status());
  return !run->report.ok();
}

/// True when `heal` could remove an installed rule: some kAddLinkFault
/// event with identical src/dst sets fires no later than it (HealLinks
/// matches rules by exact set equality).
bool HealHasPartner(const std::vector<FaultEvent>& events,
                    const FaultEvent& heal) {
  for (const FaultEvent& ev : events) {
    if (ev.kind != FaultEvent::Kind::kAddLinkFault) continue;
    if (ev.time > heal.time) continue;
    if (ev.rule.src == heal.rule.src && ev.rule.dst == heal.rule.dst) {
      return true;
    }
  }
  return false;
}

/// Drops kHealLinks events with no earlier matching fault installation.
/// Such a heal erases no rule and draws no randomness — a provable no-op,
/// so no re-execution is needed to remove it. Without this sweep, greedy
/// single-event removal can strand a heal after accepting the removal of
/// its CutLinks partner, leaving a "minimal" reproducer with a fault line
/// that does nothing.
int DropOrphanedHeals(Scenario* s) {
  std::vector<FaultEvent>& evs = s->faults.events;
  int removed = 0;
  for (size_t i = evs.size(); i-- > 0;) {
    if (evs[i].kind != FaultEvent::Kind::kHealLinks) continue;
    if (HealHasPartner(evs, evs[i])) continue;
    evs.erase(evs.begin() + static_cast<long>(i));
    ++removed;
  }
  return removed;
}

}  // namespace

StatusOr<ShrinkResult> ShrinkScenario(const Scenario& scenario) {
  ShrinkResult out;
  out.scenario = scenario;
  out.removed += DropOrphanedHeals(&out.scenario);
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < out.scenario.faults.events.size();) {
      Scenario candidate = out.scenario;
      candidate.faults.events.erase(candidate.faults.events.begin() +
                                    static_cast<long>(i));
      // Removing a fault installation can orphan its heal; fold the heal
      // into the same candidate so the pair leaves together.
      int orphaned = DropOrphanedHeals(&candidate);
      auto still = StillViolates(candidate);
      if (!still.ok()) return StatusOr<ShrinkResult>(still.status());
      ++out.runs;
      if (*still) {
        out.scenario = std::move(candidate);
        out.removed += 1 + orphaned;
        progress = true;
      } else {
        ++i;
      }
    }
    for (size_t i = 0; i < out.scenario.events.size();) {
      Scenario candidate = out.scenario;
      candidate.events.erase(candidate.events.begin() +
                             static_cast<long>(i));
      auto still = StillViolates(candidate);
      if (!still.ok()) return StatusOr<ShrinkResult>(still.status());
      ++out.runs;
      if (*still) {
        out.scenario = std::move(candidate);
        ++out.removed;
        progress = true;
      } else {
        ++i;
      }
    }
  }
  return out;
}

}  // namespace deduce

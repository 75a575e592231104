#include "deduce/engine/counterfactual/perturb.h"

#include "deduce/common/strings.h"
#include "deduce/datalog/parser.h"

namespace deduce {

namespace {

bool ParseNode(std::string_view text, NodeId* out) {
  return ParseNumber(text, out) && *out >= 0;
}

Status Bad(const std::string& clause, const char* what) {
  return Status::InvalidArgument(
      StrFormat("perturbation '%s': %s", clause.c_str(), what));
}

}  // namespace

std::string Perturbation::ToSpec() const {
  switch (kind) {
    case Kind::kNodeDown:
      return StrFormat("node=%d,down", node);
    case Kind::kLinkCut:
      return StrFormat("link=%d-%d,cut", link_a, link_b);
    case Kind::kInjectDrop:
      return "inject=" + fact + ",drop";
    case Kind::kBudget:
      return StrFormat("budget=%s,%llu", budget_kind.c_str(),
                       static_cast<unsigned long long>(budget_value));
  }
  return "?";
}

bool Perturbation::operator==(const Perturbation& o) const {
  return kind == o.kind && node == o.node && link_a == o.link_a &&
         link_b == o.link_b && fact == o.fact &&
         budget_kind == o.budget_kind && budget_value == o.budget_value;
}

StatusOr<Perturbation> ParsePerturbation(const std::string& raw) {
  std::string clause(StrTrim(raw));
  size_t eq = clause.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Bad(clause, "expected '<key>=<value>,<action>'");
  }
  std::string key = clause.substr(0, eq);
  std::string rest = clause.substr(eq + 1);
  // The action sits after the LAST comma: inject fact text carries commas.
  size_t comma = rest.rfind(',');
  if (comma == std::string::npos || comma == 0) {
    return Bad(clause, "expected '<key>=<value>,<action>'");
  }
  std::string value(StrTrim(rest.substr(0, comma)));
  std::string action(StrTrim(rest.substr(comma + 1)));
  Perturbation p;
  if (key == "node") {
    if (action != "down") return Bad(clause, "node supports only 'down'");
    p.kind = Perturbation::Kind::kNodeDown;
    if (!ParseNode(value, &p.node)) return Bad(clause, "bad node id");
    return p;
  }
  if (key == "link") {
    if (action != "cut") return Bad(clause, "link supports only 'cut'");
    p.kind = Perturbation::Kind::kLinkCut;
    size_t dash = value.find('-');
    if (dash == std::string::npos ||
        !ParseNode(value.substr(0, dash), &p.link_a) ||
        !ParseNode(value.substr(dash + 1), &p.link_b)) {
      return Bad(clause, "expected 'link=<a>-<b>,cut'");
    }
    return p;
  }
  if (key == "inject") {
    if (action != "drop") return Bad(clause, "inject supports only 'drop'");
    p.kind = Perturbation::Kind::kInjectDrop;
    // Canonicalize through the datalog parser so matching against
    // ScenarioEvent::fact.ToString() is text-format-insensitive.
    std::string fact_text = value;
    if (fact_text.empty()) return Bad(clause, "empty fact");
    if (fact_text.back() != '.') fact_text += '.';
    auto rule = ParseRule(fact_text);
    if (!rule.ok() || !rule->body.empty()) {
      return Bad(clause, "bad fact (rules not allowed)");
    }
    p.fact = Fact(rule->head.predicate, rule->head.args).ToString();
    return p;
  }
  if (key == "budget") {
    p.kind = Perturbation::Kind::kBudget;
    p.budget_kind = value;
    if (value != "replicas" && value != "inflight" && value != "eval" &&
        value != "ingress") {
      return Bad(clause,
                 "budget kind must be replicas|inflight|eval|ingress");
    }
    if (!ParseNumber(action, &p.budget_value) || p.budget_value == 0) {
      return Bad(clause, "budget cap must be a positive integer");
    }
    return p;
  }
  return Bad(clause, ("unknown perturbation kind '" + key + "'").c_str());
}

StatusOr<std::vector<Perturbation>> ParsePerturbationSpec(
    const std::string& spec) {
  std::vector<Perturbation> out;
  for (const std::string& clause : StrSplit(spec, ';')) {
    if (StrTrim(clause).empty()) continue;
    auto p = ParsePerturbation(clause);
    if (!p.ok()) return StatusOr<std::vector<Perturbation>>(p.status());
    out.push_back(std::move(*p));
  }
  if (out.empty()) {
    return StatusOr<std::vector<Perturbation>>(Status::InvalidArgument(
        "empty perturbation spec (expected e.g. 'node=5,down')"));
  }
  return out;
}

std::string FormatPerturbationSpec(const std::vector<Perturbation>& ps) {
  std::string out;
  for (size_t i = 0; i < ps.size(); ++i) {
    if (i > 0) out += ';';
    out += ps[i].ToSpec();
  }
  return out;
}

}  // namespace deduce

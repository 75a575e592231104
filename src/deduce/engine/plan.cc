#include "deduce/engine/plan.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "deduce/common/strings.h"
#include "deduce/datalog/analysis.h"
#include "deduce/datalog/unify.h"

namespace deduce {

const char* StoragePolicyToString(StoragePolicy p) {
  switch (p) {
    case StoragePolicy::kRow:
      return "row";
    case StoragePolicy::kBroadcast:
      return "broadcast";
    case StoragePolicy::kLocal:
      return "local";
    case StoragePolicy::kSpatial:
      return "spatial";
    case StoragePolicy::kCentroid:
      return "centroid";
  }
  return "?";
}

bool StoragePolicyFromName(const std::string& name, StoragePolicy* out) {
  if (name == "row" || name.empty()) {
    *out = StoragePolicy::kRow;
  } else if (name == "broadcast") {
    *out = StoragePolicy::kBroadcast;
  } else if (name == "local") {
    *out = StoragePolicy::kLocal;
  } else if (name == "centroid") {
    *out = StoragePolicy::kCentroid;
  } else {
    return false;
  }
  return true;
}

const char* JoinStrategyToString(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kLocalOnly:
      return "local-only";
    case JoinStrategy::kColumnSweep:
      return "column-sweep";
    case JoinStrategy::kSerpentine:
      return "serpentine";
    case JoinStrategy::kCentroid:
      return "centroid";
    case JoinStrategy::kLocalRoute:
      return "local-route";
  }
  return "?";
}

std::string DeltaPlan::ToString(const Program& program) const {
  const Rule& rule = program.rules()[rule_index];
  std::string out = StrFormat("rule %zu on %s: %s", rule_index,
                              rule.body[pinned_literal].ToString().c_str(),
                              JoinStrategyToString(strategy));
  if (multipass) out += " multipass";
  for (const RouteStep& s : steps) {
    out += StrFormat(" ->%s@%s", rule.body[s.literal].ToString().c_str(),
                     s.where == RouteStep::Where::kHere
                         ? "here"
                         : StrFormat("arg%zu", s.arg).c_str());
  }
  return out;
}

std::string QueryPlan::ToString() const {
  std::string out;
  std::vector<SymbolId> names;
  for (const auto& [pred, p] : preds) names.push_back(pred);
  std::sort(names.begin(), names.end(), [](SymbolId a, SymbolId b) {
    return SymbolName(a) < SymbolName(b);
  });
  for (SymbolId pred : names) {
    const PredicatePlan& p = preds.at(pred);
    out += StrFormat("%s: %s storage=%s", SymbolName(pred).c_str(),
                     p.derived ? "derived" : "input",
                     StoragePolicyToString(p.storage));
    if (p.storage == StoragePolicy::kSpatial) {
      out += StrFormat(":%d", p.spatial_radius);
    }
    if (p.home_arg) out += StrFormat(" home=arg%zu", *p.home_arg);
    if (p.window != kNoWindow) {
      out += StrFormat(" window=%lld", static_cast<long long>(p.window));
    }
    out += "\n";
  }
  for (const DeltaPlan& d : deltas) {
    out += d.ToString(program) + "\n";
  }
  return out;
}

namespace {

StatusOr<StoragePolicy> ParseStoragePolicy(const std::string& text,
                                           int* radius) {
  if (text == "row" || text == "column") return StoragePolicy::kRow;
  if (text == "broadcast") return StoragePolicy::kBroadcast;
  if (text == "local") return StoragePolicy::kLocal;
  if (text == "centroid") return StoragePolicy::kCentroid;
  if (StartsWith(text, "spatial:")) {
    *radius = std::atoi(text.c_str() + 8);
    if (*radius <= 0) {
      return StatusOr<StoragePolicy>(
          Status::InvalidArgument("bad spatial radius in '" + text + "'"));
    }
    return StoragePolicy::kSpatial;
  }
  return StatusOr<StoragePolicy>(
      Status::InvalidArgument("unknown storage policy '" + text + "'"));
}

/// True if a sweep over vertical paths sees all tuples of this storage kind.
bool SweepCovers(StoragePolicy p) {
  return p == StoragePolicy::kRow || p == StoragePolicy::kBroadcast;
}

}  // namespace

StatusOr<QueryPlan> CompilePlan(const Program& program,
                                const BuiltinRegistry& registry,
                                const PlannerOptions& options) {
  QueryPlan plan;
  plan.program = program;
  DEDUCE_RETURN_IF_ERROR(ResolveBuiltins(&plan.program, registry));
  DEDUCE_ASSIGN_OR_RETURN(plan.analysis, AnalyzeProgram(plan.program));

  // Partial results track matched body literals in a 32-bit mask built with
  // `1u << literal_index`, so index 31 is the last representable literal:
  // a 32nd literal would shift by 32 (undefined behavior) and alias index 0.
  constexpr size_t kMaxBodyLiterals = 31;
  for (const Rule& r : plan.program.rules()) {
    if (r.body.size() > kMaxBodyLiterals) {
      return Status::Unimplemented(
          StrFormat("rule has %zu body literals; the partial-result mask "
                    "is 32 bits, limiting rules to %zu: ",
                    r.body.size(), kMaxBodyLiterals) +
          r.ToString());
    }
  }
  for (const SccInfo& scc : plan.analysis.sccs) {
    if (scc.recursive && scc.has_internal_negation && !scc.xy_stratified) {
      return Status::Unimplemented(
          "recursion through negation is not XY-stratified (" +
          scc.xy_diagnostic + ")");
    }
  }

  // Predicates read by some rule body; derived predicates nobody reads are
  // "sinks": their tuples stay at their home node (no storage replication).
  std::unordered_set<SymbolId> read_preds;
  for (const Rule& r : plan.program.rules()) {
    for (const Literal& l : r.body) {
      if (l.is_relational()) read_preds.insert(l.atom.predicate);
    }
  }

  // Per-predicate placements.
  for (SymbolId pred : plan.analysis.predicates) {
    PredicatePlan p;
    p.pred = pred;
    p.derived = plan.analysis.idb.count(pred) > 0;
    p.storage = p.derived && !read_preds.count(pred)
                    ? StoragePolicy::kLocal
                    : options.default_storage;
    const PredicateDecl* decl = plan.program.FindDecl(pred);
    if (decl != nullptr) {
      if (!decl->storage_policy.empty()) {
        int radius = 0;
        DEDUCE_ASSIGN_OR_RETURN(p.storage,
                                ParseStoragePolicy(decl->storage_policy,
                                                   &radius));
        p.spatial_radius = radius;
      }
      if (decl->window) p.window = *decl->window;
      if (decl->home_arg) p.home_arg = decl->home_arg;
    }
    plan.preds.emplace(pred, p);
  }

  // Aggregate rules compile to per-group incremental aggregation instead
  // of join plans.
  for (size_t ri = 0; ri < plan.program.rules().size(); ++ri) {
    const Rule& rule = plan.program.rules()[ri];
    if (rule.aggregates.empty()) continue;
    size_t positives = 0;
    size_t source = 0;
    for (size_t li = 0; li < rule.body.size(); ++li) {
      const Literal& lit = rule.body[li];
      if (lit.kind == Literal::Kind::kNegated) {
        return Status::Unimplemented(
            "aggregate rules with negation are not supported: " +
            rule.ToString());
      }
      if (lit.kind == Literal::Kind::kPositive) {
        ++positives;
        source = li;
      }
    }
    if (positives != 1) {
      return Status::Unimplemented(
          "aggregate rules must have exactly one positive relational "
          "subgoal (join first into a derived stream, then aggregate): " +
          rule.ToString());
    }
    if (plan.analysis.IsRecursivePred(rule.head.predicate)) {
      return Status::Unimplemented("recursive aggregate: " + rule.ToString());
    }
    AggregatePlan agg;
    agg.rule_index = ri;
    agg.source_literal = source;
    agg.kind = rule.aggregates[0].kind;
    agg.agg_position = rule.aggregates[0].head_position;
    agg.input = rule.aggregates[0].input;
    size_t index = plan.aggregates.size();
    plan.aggregates.push_back(std::move(agg));
    plan.aggregates_by_pred[rule.body[source].atom.predicate].push_back(
        index);
  }

  // Delta plans: one per relational body occurrence.
  for (size_t ri = 0; ri < plan.program.rules().size(); ++ri) {
    const Rule& rule = plan.program.rules()[ri];
    if (!rule.aggregates.empty()) continue;  // handled above
    for (size_t li = 0; li < rule.body.size(); ++li) {
      if (!rule.body[li].is_relational()) continue;
      DeltaPlan delta;
      delta.rule_index = ri;
      delta.pinned_literal = li;

      // Read set: the other relational literals.
      std::vector<size_t> readset;
      bool all_broadcast = true;
      bool sweep_ok = true;
      bool centroid_ok = true;
      for (size_t lj = 0; lj < rule.body.size(); ++lj) {
        if (lj == li || !rule.body[lj].is_relational()) continue;
        readset.push_back(lj);
        StoragePolicy sp = plan.preds.at(rule.body[lj].atom.predicate).storage;
        if (sp != StoragePolicy::kBroadcast) all_broadcast = false;
        if (!SweepCovers(sp)) sweep_ok = false;
        if (sp != StoragePolicy::kCentroid &&
            sp != StoragePolicy::kBroadcast) {
          centroid_ok = false;
        }
      }

      if (readset.empty() || all_broadcast) {
        delta.strategy = JoinStrategy::kLocalOnly;
      } else if (sweep_ok) {
        delta.strategy = JoinStrategy::kColumnSweep;
        delta.multipass = options.multipass;
      } else if (centroid_ok) {
        delta.strategy = JoinStrategy::kCentroid;
      } else {
        // Try local-route: order literals so each is locatable when reached.
        std::unordered_set<SymbolId> bound;
        {
          std::vector<SymbolId> vars;
          rule.body[li].CollectVariables(&vars);
          bound.insert(vars.begin(), vars.end());
        }
        auto site_of = [&](size_t lj) -> std::optional<RouteStep> {
          const Literal& lit = rule.body[lj];
          const PredicatePlan& pp = plan.preds.at(lit.atom.predicate);
          if (pp.storage == StoragePolicy::kBroadcast ||
              pp.storage == StoragePolicy::kSpatial) {
            return RouteStep{lj, RouteStep::Where::kHere, 0};
          }
          if (pp.storage == StoragePolicy::kLocal && pp.home_arg) {
            const Term& arg = lit.atom.args[*pp.home_arg];
            bool arg_bound =
                (arg.is_constant() && arg.value().is_int()) ||
                (arg.is_variable() && bound.count(arg.var()) > 0);
            if (arg_bound) {
              return RouteStep{lj, RouteStep::Where::kAtArgNode,
                               *pp.home_arg};
            }
          }
          return std::nullopt;
        };

        std::vector<size_t> positives, negatives;
        for (size_t lj : readset) {
          (rule.body[lj].kind == Literal::Kind::kPositive ? positives
                                                          : negatives)
              .push_back(lj);
        }
        bool ok = true;
        std::vector<RouteStep> steps;
        std::vector<bool> placed(rule.body.size(), false);
        // Greedy: place any locatable positive (kHere first), rebinding.
        while (steps.size() < positives.size()) {
          std::optional<RouteStep> next;
          for (bool prefer_here : {true, false}) {
            for (size_t lj : positives) {
              if (placed[lj]) continue;
              std::optional<RouteStep> s = site_of(lj);
              if (!s) continue;
              if (prefer_here != (s->where == RouteStep::Where::kHere)) {
                continue;
              }
              next = s;
              break;
            }
            if (next) break;
          }
          if (!next) {
            ok = false;
            break;
          }
          placed[next->literal] = true;
          std::vector<SymbolId> vars;
          rule.body[next->literal].CollectVariables(&vars);
          bound.insert(vars.begin(), vars.end());
          steps.push_back(*next);
        }
        if (ok) {
          for (size_t lj : negatives) {
            std::optional<RouteStep> s = site_of(lj);
            if (!s) {
              ok = false;
              break;
            }
            steps.push_back(*s);
          }
        }
        if (ok) {
          delta.strategy = JoinStrategy::kLocalRoute;
          delta.steps = std::move(steps);
        } else {
          // Last resort: local storage everywhere -> serpentine sweep.
          bool serp_ok = true;
          for (size_t lj : readset) {
            StoragePolicy sp =
                plan.preds.at(rule.body[lj].atom.predicate).storage;
            if (sp != StoragePolicy::kLocal &&
                sp != StoragePolicy::kBroadcast) {
              serp_ok = false;
            }
          }
          if (!serp_ok) {
            return Status::Unimplemented(
                "no join strategy covers rule '" + rule.ToString() +
                "' for update " + rule.body[li].ToString() +
                ": mixed storage placements are not supported");
          }
          delta.strategy = JoinStrategy::kSerpentine;
          delta.multipass = options.multipass;
        }
      }

      if (delta.multipass) {
        for (size_t lj : readset) {
          if (rule.body[lj].kind == Literal::Kind::kPositive) {
            delta.pass_literals.push_back(lj);
          }
        }
        if (delta.pass_literals.empty()) delta.multipass = false;
      }

      size_t index = plan.deltas.size();
      plan.deltas.push_back(std::move(delta));
      plan.deltas_by_pred[rule.body[li].atom.predicate].push_back(index);
    }
  }
  return plan;
}

// --- multi-tenant compilation ------------------------------------------------

namespace {

/// Canonical text of one body literal under the variable renaming `rename`
/// and the predicate naming `pname` (SCC members and resolved dependencies
/// get tenant-independent names).
std::string CanonLiteral(const Literal& lit, const Subst& rename,
                         const std::function<std::string(SymbolId)>& pname) {
  auto args = [&](const std::vector<Term>& ts) {
    std::string s = "(";
    for (size_t i = 0; i < ts.size(); ++i) {
      if (i > 0) s += ",";
      s += rename.Apply(ts[i]).ToString();
    }
    return s + ")";
  };
  switch (lit.kind) {
    case Literal::Kind::kPositive:
      return pname(lit.atom.predicate) + args(lit.atom.args);
    case Literal::Kind::kNegated: {
      std::string s = "!";
      s += pname(lit.atom.predicate);
      s += args(lit.atom.args);
      return s;
    }
    case Literal::Kind::kBuiltin:
      return std::string(lit.builtin_negated ? "!#" : "#") +
             SymbolName(lit.atom.predicate) + args(lit.atom.args);
    case Literal::Kind::kComparison:
      return rename.Apply(lit.lhs).ToString() + CmpOpToString(lit.cmp) +
             rename.Apply(lit.rhs).ToString();
  }
  return "?";
}

/// Canonical text of a rule: variables normalized to _v0.._vN in
/// first-occurrence order, predicates named by `pname`. Body literal order
/// is preserved — it drives delta-plan generation, so two rules that
/// differ only in body order are (conservatively) distinct sub-plans.
std::string CanonRule(const Rule& rule,
                      const std::function<std::string(SymbolId)>& pname) {
  Subst rename;
  std::vector<SymbolId> vars = rule.Variables();
  for (size_t i = 0; i < vars.size(); ++i) {
    rename.Bind(vars[i], Term::Var(StrFormat("_v%zu", i)));
  }
  std::string s = pname(rule.head.predicate) + "(";
  for (size_t i = 0; i < rule.head.args.size(); ++i) {
    if (i > 0) s += ",";
    s += rename.Apply(rule.head.args[i]).ToString();
  }
  s += ")";
  for (const AggregateSpec& spec : rule.aggregates) {
    s += StrFormat("{%s@%zu}", AggKindToString(spec.kind),
                   spec.head_position);
  }
  s += ":-";
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (i > 0) s += ",";
    s += CanonLiteral(rule.body[i], rename, pname);
  }
  return s;
}

/// Plan-relevant `.decl` properties of `pred`, as signature text.
std::string DeclSignature(const Program& program, SymbolId pred) {
  const PredicateDecl* d = program.FindDecl(pred);
  if (d == nullptr) return ";nodecl";
  std::string s = ";w=";
  s += d->window ? StrFormat("%lld", static_cast<long long>(*d->window)) : "-";
  s += ";h=";
  s += d->home_arg ? StrFormat("%zu", *d->home_arg) : "-";
  s += ";g=";
  s += d->stage_arg ? StrFormat("%zu", *d->stage_arg) : "-";
  s += ";s=" + d->storage_policy + ";j=" + d->join_policy;
  return s;
}

/// Input streams are shared across tenants by name, so their declarations
/// must agree on everything the planner consumes.
bool SameDeclProps(const PredicateDecl* a, const PredicateDecl* b) {
  if ((a == nullptr) != (b == nullptr)) return false;
  if (a == nullptr) return true;
  return a->arity == b->arity && a->window == b->window &&
         a->home_arg == b->home_arg && a->stage_arg == b->stage_arg &&
         a->storage_policy == b->storage_policy &&
         a->join_policy == b->join_policy;
}

SymbolId Resolve(const std::unordered_map<SymbolId, SymbolId>& final_name,
                 SymbolId pred) {
  auto it = final_name.find(pred);
  return it == final_name.end() ? pred : it->second;
}

}  // namespace

StatusOr<MultiPlan> CompileMultiPlan(const std::vector<TenantProgram>& tenants,
                                     const BuiltinRegistry& registry,
                                     const PlannerOptions& options) {
  if (tenants.empty()) {
    return StatusOr<MultiPlan>(
        Status::InvalidArgument("CompileMultiPlan: no tenant programs"));
  }
  MultiPlan out;
  Program merged;

  /// What a predicate name is already bound to across tenants.
  struct NameClaim {
    bool edb = false;
    std::string sig;     ///< Derived: the owning SCC signature.
    std::string tenant;  ///< First claimant (for error messages).
  };
  std::unordered_map<SymbolId, NameClaim> claims;
  // SCC signature -> final symbol of each member (positional).
  std::unordered_map<std::string, std::vector<SymbolId>> canon_by_sig;
  std::unordered_set<Fact, FactHash> fact_seen;

  for (size_t ti = 0; ti < tenants.size(); ++ti) {
    const TenantProgram& tp = tenants[ti];
    TenantView view;
    view.tenant = tp.tenant;
    view.index = static_cast<uint32_t>(ti + 1);

    Program prog = tp.program;
    DEDUCE_RETURN_IF_ERROR(ResolveBuiltins(&prog, registry));
    DEDUCE_ASSIGN_OR_RETURN(ProgramAnalysis analysis, AnalyzeProgram(prog));

    // Input streams: shared by name, declarations must agree.
    for (SymbolId pred : analysis.predicates) {
      if (!analysis.edb.count(pred)) continue;
      view.edb.push_back(pred);
      view.read.emplace(pred, pred);
      const PredicateDecl* decl = prog.FindDecl(pred);
      auto it = claims.find(pred);
      if (it == claims.end()) {
        claims.emplace(pred, NameClaim{true, "", tp.tenant});
        if (decl != nullptr) DEDUCE_RETURN_IF_ERROR(merged.AddDecl(*decl));
      } else if (!it->second.edb) {
        return StatusOr<MultiPlan>(Status::InvalidArgument(StrFormat(
            "tenant '%s': input stream '%s' collides with a derived "
            "predicate of the same name registered by tenant '%s'",
            tp.tenant.c_str(), SymbolName(pred).c_str(),
            it->second.tenant.c_str())));
      } else if (!SameDeclProps(merged.FindDecl(pred), decl)) {
        return StatusOr<MultiPlan>(Status::InvalidArgument(StrFormat(
            "tenant '%s': input stream '%s' is declared differently than "
            "by tenant '%s'; shared input streams must have identical "
            "declarations",
            tp.tenant.c_str(), SymbolName(pred).c_str(),
            it->second.tenant.c_str())));
      }
    }

    // Tenant predicate -> merged-program predicate, for rule bodies of
    // later SCCs (topological order makes every dependency resolved).
    std::unordered_map<SymbolId, SymbolId> final_name;
    for (SymbolId pred : view.edb) final_name.emplace(pred, pred);

    for (const SccInfo& scc : analysis.sccs) {
      std::vector<SymbolId> members;
      for (SymbolId m : scc.members) {
        if (analysis.idb.count(m)) members.push_back(m);
      }
      if (members.empty()) continue;
      out.subplans_requested += members.size();
      view.derived.insert(view.derived.end(), members.begin(), members.end());

      // Canonicalization is SCC-granular: a recursive component is shared
      // all-or-nothing, so no tenant can alias half of a mutual recursion
      // whose other half differs.
      std::unordered_map<SymbolId, size_t> member_pos;
      for (size_t i = 0; i < members.size(); ++i) {
        member_pos.emplace(members[i], i);
      }
      auto pname = [&](SymbolId p) -> std::string {
        auto mit = member_pos.find(p);
        if (mit != member_pos.end()) return StrFormat("$m%zu", mit->second);
        auto fit = final_name.find(p);
        if (fit != final_name.end() && analysis.idb.count(p)) {
          return "@" + SymbolName(fit->second);
        }
        return SymbolName(p);  // input stream (shared by name)
      };
      std::string sig;
      for (size_t i = 0; i < members.size(); ++i) {
        std::vector<std::string> rule_strs;
        for (const Rule& r : prog.rules()) {
          if (r.head.predicate != members[i]) continue;
          rule_strs.push_back(CanonRule(r, pname));
        }
        std::sort(rule_strs.begin(), rule_strs.end());
        sig += StrFormat("$m%zu", i) + DeclSignature(prog, members[i]) + "|";
        for (const std::string& rs : rule_strs) sig += rs + ";";
      }

      auto cit = canon_by_sig.find(sig);
      if (cit != canon_by_sig.end()) {
        // Shared sub-plan: evaluated once by the canonical owner; this
        // tenant reads the canonical store directly (same name) or gets a
        // per-tenant alias store fed by result fan-out (different name).
        for (size_t i = 0; i < members.size(); ++i) {
          SymbolId mine = members[i];
          SymbolId canon = cit->second[i];
          final_name[mine] = canon;
          if (mine == canon) {
            view.read.emplace(mine, mine);
            continue;
          }
          SymbolId alias = mine;
          auto nit = claims.find(mine);
          if (nit != claims.end() &&
              (nit->second.edb || nit->second.sig != sig)) {
            if (options.strict_tenant_collisions || nit->second.edb) {
              return StatusOr<MultiPlan>(Status::InvalidArgument(StrFormat(
                  "cross-tenant symbol collision: predicate '%s' of tenant "
                  "'%s' does not match the %s already registered under that "
                  "name by tenant '%s' (a shared head predicate must have "
                  "an identical sub-plan; rename the predicate or clear "
                  "PlannerOptions::strict_tenant_collisions)",
                  SymbolName(mine).c_str(), tp.tenant.c_str(),
                  nit->second.edb ? "input stream" : "sub-plan",
                  nit->second.tenant.c_str())));
            }
            alias = Intern(SymbolName(mine) + "@" + tp.tenant);
          }
          if (!claims.count(alias)) {
            claims.emplace(alias, NameClaim{false, sig, tp.tenant});
          }
          auto& fans = out.fanout[canon];
          bool present = false;
          for (const auto& [t, a] : fans) present = present || a == alias;
          // Two tenants may share one alias store (same name, same
          // sub-plan); the recorded wire tenant id is the first taker's —
          // it only marks "fan-out copy", attribution is by predicate.
          if (!present) fans.emplace_back(view.index, alias);
          view.read.emplace(mine, alias);
        }
        continue;
      }

      // New sub-plan: claim names (renaming on non-strict collision),
      // then emit the rewritten rules into the merged program.
      std::vector<SymbolId> finals;
      for (size_t i = 0; i < members.size(); ++i) {
        SymbolId mine = members[i];
        SymbolId fin = mine;
        auto nit = claims.find(mine);
        if (nit != claims.end()) {
          if (options.strict_tenant_collisions || nit->second.edb) {
            return StatusOr<MultiPlan>(Status::InvalidArgument(StrFormat(
                "cross-tenant symbol collision: predicate '%s' of tenant "
                "'%s' does not match the %s already registered under that "
                "name by tenant '%s' (a shared head predicate must have an "
                "identical sub-plan; rename the predicate or clear "
                "PlannerOptions::strict_tenant_collisions)",
                SymbolName(mine).c_str(), tp.tenant.c_str(),
                nit->second.edb ? "input stream" : "sub-plan",
                nit->second.tenant.c_str())));
          }
          fin = Intern(SymbolName(mine) + "@" + tp.tenant);
          if (claims.count(fin)) {
            return StatusOr<MultiPlan>(Status::InvalidArgument(StrFormat(
                "cross-tenant symbol collision: rename target '%s' for "
                "tenant '%s' is itself already registered",
                SymbolName(fin).c_str(), tp.tenant.c_str())));
          }
        }
        claims.emplace(fin, NameClaim{false, sig, tp.tenant});
        finals.push_back(fin);
        final_name[mine] = fin;
        view.read.emplace(mine, fin);
      }
      canon_by_sig.emplace(sig, finals);
      out.subplans_total += members.size();
      for (size_t i = 0; i < members.size(); ++i) {
        const PredicateDecl* decl = prog.FindDecl(members[i]);
        if (decl != nullptr) {
          PredicateDecl d = *decl;
          d.name = finals[i];
          DEDUCE_RETURN_IF_ERROR(merged.AddDecl(std::move(d)));
        }
      }
      for (const Rule& r : prog.rules()) {
        if (!member_pos.count(r.head.predicate)) continue;
        // mutable_rules, not AddRule: the rule already went through
        // aggregate extraction and the safety check in the tenant program,
        // and re-extraction would drop the extracted aggregate specs.
        Rule nr = r;
        nr.head.predicate = Resolve(final_name, nr.head.predicate);
        for (Literal& l : nr.body) {
          if (l.is_relational()) {
            l.atom.predicate = Resolve(final_name, l.atom.predicate);
          }
        }
        nr.id = static_cast<int>(merged.rules().size());
        merged.mutable_rules().push_back(std::move(nr));
      }
    }

    // Ground facts, relabeled and deduplicated across tenants.
    for (const Fact& f : prog.facts()) {
      SymbolId p = Resolve(final_name, f.predicate());
      Fact nf = p == f.predicate() ? f : Fact(p, f.args());
      if (!fact_seen.insert(nf).second) continue;
      Rule fr;
      fr.head = Atom(p, nf.args());
      DEDUCE_RETURN_IF_ERROR(merged.AddRule(std::move(fr)));
    }

    out.views.push_back(std::move(view));
  }

  DEDUCE_ASSIGN_OR_RETURN(out.plan,
                          CompilePlan(merged, registry, options));

  // Alias stores live outside the merged rule graph (nothing reads them, no
  // rule derives them — results arrive by fan-out). Each gets a sink
  // placement mirroring its canonical source so window expiry and home
  // hashing behave identically.
  for (const auto& [canon, fans] : out.fanout) {
    const PredicatePlan& cp = out.plan.pred_plan(canon);
    for (const auto& [tenant, alias] : fans) {
      (void)tenant;
      PredicatePlan ap = cp;
      ap.pred = alias;
      ap.storage = StoragePolicy::kLocal;
      out.plan.preds.emplace(alias, ap);
    }
  }
  out.subplans_shared = out.subplans_requested - out.subplans_total;
  return out;
}

}  // namespace deduce

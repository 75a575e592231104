#include "deduce/eval/rule_eval.h"

#include <algorithm>

#include "deduce/common/logging.h"

namespace deduce {

namespace {

/// Normalizes a term under a substitution: apply bindings, then evaluate
/// registered functions over ground arguments.
StatusOr<Term> Normalize(const Term& t, const Subst& subst,
                         const BuiltinRegistry& registry) {
  return EvalTerm(subst.Apply(t), registry);
}

/// The term SolveMatchTerm matches `pattern` as under `subst`: the bindings
/// applied, then registered functions evaluated; the applied term is kept
/// when evaluation fails. GroundColumnFilter uses the same normalization.
Term NormalizePattern(const Term& pattern, const Subst& subst,
                      const BuiltinRegistry& registry) {
  Term p = subst.Apply(pattern);
  StatusOr<Term> normalized = EvalTerm(p, registry);
  if (normalized.ok()) return std::move(normalized).value();
  return p;
}

}  // namespace

std::optional<std::vector<Term>> GroundArgs(const std::vector<Term>& args,
                                            const Subst& subst,
                                            const BuiltinRegistry& registry,
                                            std::optional<size_t> skip) {
  std::vector<Term> out;
  out.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    if (i == skip) continue;
    StatusOr<Term> n = Normalize(args[i], subst, registry);
    if (!n.ok() || !n->is_ground()) return std::nullopt;
    out.push_back(std::move(n).value());
  }
  return out;
}

/// Matches `pattern` against a ground term like MatchTerm, but additionally
/// solves simple arithmetic patterns: Var+c, Var-c, c+Var against an integer
/// constant. This is what lets an update to a stream bind *through* a
/// subgoal such as h1(Y, D+1) (§IV-B: the update tuple is pinned to a body
/// literal whose arguments may carry arithmetic).
bool SolveMatchTerm(const Term& pattern, const Term& ground, Subst* subst,
                    const BuiltinRegistry& registry) {
  Term p = NormalizePattern(pattern, *subst, registry);
  if (p.is_ground()) return p == ground;
  if (p.is_variable()) return subst->Bind(p.var(), ground);
  // Function pattern. Try exact structural match first.
  if (ground.is_function() && p.functor() == ground.functor() &&
      p.args().size() == ground.args().size()) {
    Subst saved = *subst;
    bool ok = true;
    for (size_t i = 0; i < p.args().size(); ++i) {
      if (!SolveMatchTerm(p.args()[i], ground.args()[i], subst, registry)) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
    *subst = std::move(saved);
  }
  // Linear inversion against an integer constant.
  if (ground.is_constant() && ground.value().is_int() && p.is_function() &&
      p.args().size() == 2) {
    const std::string& f = SymbolName(p.functor());
    const Term& a = p.args()[0];
    const Term& b = p.args()[1];
    int64_t g = ground.value().as_int();
    auto is_int = [](const Term& t) {
      return t.is_constant() && t.value().is_int();
    };
    if (f == "+") {
      if (a.is_variable() && is_int(b)) {
        return subst->Bind(a.var(), Term::Int(g - b.value().as_int()));
      }
      if (is_int(a) && b.is_variable()) {
        return subst->Bind(b.var(), Term::Int(g - a.value().as_int()));
      }
    } else if (f == "-") {
      if (a.is_variable() && is_int(b)) {
        return subst->Bind(a.var(), Term::Int(g + b.value().as_int()));
      }
      if (is_int(a) && b.is_variable()) {
        return subst->Bind(b.var(), Term::Int(a.value().as_int() - g));
      }
    }
  }
  return false;
}

bool SolveMatchTerms(const std::vector<Term>& patterns,
                     const std::vector<Term>& grounds, Subst* subst,
                     const BuiltinRegistry& registry) {
  if (patterns.size() != grounds.size()) return false;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (!SolveMatchTerm(patterns[i], grounds[i], subst, registry)) {
      return false;
    }
  }
  return true;
}

GroundColumnFilter::GroundColumnFilter(const std::vector<Term>& patterns,
                                       const Subst& subst,
                                       const BuiltinRegistry& registry)
    : arity_(patterns.size()) {
  for (size_t i = 0; i < patterns.size(); ++i) {
    Term p = NormalizePattern(patterns[i], subst, registry);
    if (p.is_ground()) ground_.emplace_back(i, std::move(p));
  }
}

bool GroundColumnFilter::Admits(const std::vector<Term>& row) const {
  if (row.size() != arity_) return false;
  for (const auto& [column, term] : ground_) {
    if (!(term == row[column])) return false;
  }
  return true;
}

struct RuleBodyEvaluator::Frame {
  Subst subst;
  std::vector<bool> done;                 // per body literal
  std::vector<MatchedFact> matched;       // positive matches so far
  size_t remaining = 0;
};

RuleBodyEvaluator::RuleBodyEvaluator(const Rule* rule,
                                     const BuiltinRegistry* registry)
    : rule_(rule), registry_(registry) {
  literal_vars_.reserve(rule_->body.size());
  for (const Literal& l : rule_->body) {
    std::vector<SymbolId> vars;
    l.CollectVariables(&vars);
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    literal_vars_.push_back(std::move(vars));
  }
}

Status RuleBodyEvaluator::Evaluate(
    const RelationReader& db, const RuleEvalOptions& opts,
    const std::function<Status(const Subst&, const std::vector<MatchedFact>&)>&
        emit,
    RuleEvalStats* stats) const {
  Frame frame;
  frame.done.assign(rule_->body.size(), false);
  frame.remaining = rule_->body.size();
  if (opts.pin_index.has_value()) {
    DEDUCE_CHECK(*opts.pin_index < rule_->body.size());
    DEDUCE_CHECK(opts.pin_facts != nullptr);
    const Literal& pinned = rule_->body[*opts.pin_index];
    DEDUCE_CHECK(pinned.is_relational())
        << "only relational literals can be pinned";
    frame.done[*opts.pin_index] = true;
    --frame.remaining;
    for (const auto& [fact, id] : *opts.pin_facts) {
      if (fact.predicate() != pinned.atom.predicate ||
          fact.arity() != pinned.atom.arity()) {
        continue;
      }
      Frame child = frame;
      if (!SolveMatchTerms(pinned.atom.args, fact.args(), &child.subst,
                           *registry_)) {
        continue;
      }
      if (pinned.kind == Literal::Kind::kPositive) {
        child.matched.push_back(MatchedFact{fact, id, *opts.pin_index});
      }
      DEDUCE_RETURN_IF_ERROR(Step(db, opts, &child, emit, stats));
    }
    return Status::OK();
  }
  return Step(db, opts, &frame, emit, stats);
}

Status RuleBodyEvaluator::Step(
    const RelationReader& db, const RuleEvalOptions& opts, Frame* frame,
    const std::function<Status(const Subst&, const std::vector<MatchedFact>&)>&
        emit,
    RuleEvalStats* stats) const {
  if (stats != nullptr && stats->emitted >= opts.max_results) {
    return Status::FailedPrecondition("rule evaluation exceeded max_results");
  }
  if (frame->remaining == 0) {
    if (stats != nullptr) ++stats->emitted;
    return emit(frame->subst, frame->matched);
  }

  auto bound_count = [&](size_t i) {
    size_t n = 0;
    for (SymbolId v : literal_vars_[i]) {
      if (frame->subst.IsBound(v)) ++n;
    }
    return n;
  };
  auto fully_bound = [&](size_t i) {
    return bound_count(i) == literal_vars_[i].size();
  };

  // 1. Fully bound filters first (cheap, prune early).
  for (size_t i = 0; i < rule_->body.size(); ++i) {
    if (frame->done[i]) continue;
    const Literal& lit = rule_->body[i];
    if (lit.kind == Literal::Kind::kPositive) continue;
    bool evaluable = false;
    if (lit.kind == Literal::Kind::kComparison) {
      // '=' with one unbound variable side is a binding assignment.
      if (fully_bound(i)) {
        evaluable = true;
      } else if (lit.cmp == CmpOp::kEq) {
        auto side_bound = [&](const Term& t) {
          std::vector<SymbolId> vars;
          t.CollectVariables(&vars);
          return std::all_of(vars.begin(), vars.end(), [&](SymbolId v) {
            return frame->subst.IsBound(v);
          });
        };
        bool lb = side_bound(lit.lhs);
        bool rb = side_bound(lit.rhs);
        if (lb != rb) {
          // One side ground: match (or solve) the other side's pattern
          // against it, binding its variables. Handles assignments
          // (Y = X + 1), destructuring (P = [H | T]) and inversion
          // (5 = D + 1).
          DEDUCE_ASSIGN_OR_RETURN(
              Term src, Normalize(lb ? lit.lhs : lit.rhs, frame->subst,
                                  *registry_));
          const Term& pattern = lb ? lit.rhs : lit.lhs;
          if (!src.is_ground()) {
            return Status::Internal("assignment source not ground in " +
                                    lit.ToString());
          }
          Frame saved = *frame;
          if (SolveMatchTerm(pattern, src, &frame->subst, *registry_)) {
            frame->done[i] = true;
            --frame->remaining;
            DEDUCE_RETURN_IF_ERROR(Step(db, opts, frame, emit, stats));
          }
          *frame = std::move(saved);
          return Status::OK();
        }
      }
    } else {
      evaluable = fully_bound(i);
    }
    if (!evaluable) continue;

    bool holds = false;
    switch (lit.kind) {
      case Literal::Kind::kComparison: {
        DEDUCE_ASSIGN_OR_RETURN(Term lhs,
                                Normalize(lit.lhs, frame->subst, *registry_));
        DEDUCE_ASSIGN_OR_RETURN(Term rhs,
                                Normalize(lit.rhs, frame->subst, *registry_));
        holds = EvalCmp(lit.cmp, lhs, rhs);
        break;
      }
      case Literal::Kind::kBuiltin: {
        const BuiltinPredicateFn* fn = registry_->FindPredicate(
            lit.atom.predicate, lit.atom.arity());
        if (fn == nullptr) {
          return Status::NotFound("built-in predicate not registered: " +
                                  lit.atom.ToString());
        }
        std::vector<Term> args;
        args.reserve(lit.atom.args.size());
        for (const Term& a : lit.atom.args) {
          DEDUCE_ASSIGN_OR_RETURN(Term n, Normalize(a, frame->subst,
                                                    *registry_));
          args.push_back(std::move(n));
        }
        DEDUCE_ASSIGN_OR_RETURN(bool v, (*fn)(args));
        holds = v != lit.builtin_negated;
        break;
      }
      case Literal::Kind::kNegated: {
        std::vector<Term> args;
        args.reserve(lit.atom.args.size());
        for (const Term& a : lit.atom.args) {
          DEDUCE_ASSIGN_OR_RETURN(Term n, Normalize(a, frame->subst,
                                                    *registry_));
          if (!n.is_ground()) {
            return Status::Internal("negated subgoal not ground: " +
                                    lit.ToString());
          }
          args.push_back(std::move(n));
        }
        holds = !db.Contains(Fact(lit.atom.predicate, std::move(args)));
        break;
      }
      case Literal::Kind::kPositive:
        break;
    }
    if (!holds) return Status::OK();  // prune this branch
    frame->done[i] = true;
    --frame->remaining;
    Status st = Step(db, opts, frame, emit, stats);
    frame->done[i] = false;
    ++frame->remaining;
    return st;
  }

  // 2. Best positive literal: most bound variables, then lowest index.
  int best = -1;
  size_t best_bound = 0;
  for (size_t i = 0; i < rule_->body.size(); ++i) {
    if (frame->done[i]) continue;
    if (rule_->body[i].kind != Literal::Kind::kPositive) continue;
    size_t b = bound_count(i);
    if (best == -1 || b > best_bound) {
      best = static_cast<int>(i);
      best_bound = b;
    }
  }
  if (best == -1) {
    // Only unresolvable filters remain: the rule is effectively unsafe for
    // this evaluation order (e.g. arithmetic over unbound variables).
    std::string pending;
    for (size_t i = 0; i < rule_->body.size(); ++i) {
      if (!frame->done[i]) {
        pending += ' ';
        pending += rule_->body[i].ToString();
      }
    }
    return Status::InvalidArgument(
        "cannot order body literals (unbound filters remain):" + pending +
        " in rule " + rule_->ToString());
  }

  const Literal& lit = rule_->body[static_cast<size_t>(best)];
  // Normalize the pattern under current bindings (evaluates arithmetic over
  // bound variables in subgoal arguments).
  std::vector<Term> pattern;
  pattern.reserve(lit.atom.args.size());
  for (const Term& a : lit.atom.args) {
    DEDUCE_ASSIGN_OR_RETURN(Term n, Normalize(a, frame->subst, *registry_));
    pattern.push_back(std::move(n));
  }
  frame->done[static_cast<size_t>(best)] = true;
  --frame->remaining;

  Status status = Status::OK();
  auto visit = [&](const Fact& fact, const TupleId& id) {
    if (!status.ok()) return;
    if (stats != nullptr) ++stats->probes;
    if (fact.arity() != pattern.size()) return;
    Subst saved = frame->subst;
    if (MatchTerms(pattern, fact.args(), &frame->subst)) {
      frame->matched.push_back(
          MatchedFact{fact, id, static_cast<size_t>(best)});
      status = Step(db, opts, frame, emit, stats);
      frame->matched.pop_back();
    }
    frame->subst = std::move(saved);
  };
  // Use an indexed scan on the first ground argument position, if any.
  int index_pos = -1;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i].is_ground()) {
      index_pos = static_cast<int>(i);
      break;
    }
  }
  if (index_pos >= 0) {
    db.ScanBound(lit.atom.predicate, static_cast<size_t>(index_pos),
                 pattern[static_cast<size_t>(index_pos)], visit);
  } else {
    db.Scan(lit.atom.predicate, visit);
  }

  frame->done[static_cast<size_t>(best)] = false;
  ++frame->remaining;
  return status;
}

StatusOr<Fact> RuleBodyEvaluator::BuildHead(const Subst& subst) const {
  std::vector<Term> args;
  args.reserve(rule_->head.args.size());
  for (const Term& a : rule_->head.args) {
    DEDUCE_ASSIGN_OR_RETURN(Term n, Normalize(a, subst, *registry_));
    if (!n.is_ground()) {
      return StatusOr<Fact>(Status::Internal(
          "head not ground after substitution: " + rule_->head.ToString()));
    }
    args.push_back(std::move(n));
  }
  return Fact(rule_->head.predicate, std::move(args));
}

}  // namespace deduce

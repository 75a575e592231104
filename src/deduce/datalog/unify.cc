#include "deduce/datalog/unify.h"

#include <algorithm>

#include "deduce/common/logging.h"

namespace deduce {

namespace {

bool VarLess(const std::pair<SymbolId, Term>& binding, SymbolId var) {
  return binding.first < var;
}

}  // namespace

bool Subst::Bind(SymbolId var, const Term& term) {
  auto it = std::lower_bound(bindings_.begin(), bindings_.end(), var, VarLess);
  if (it != bindings_.end() && it->first == var) return it->second == term;
  bindings_.emplace(it, var, term);
  return true;
}

const Term* Subst::Lookup(SymbolId var) const {
  auto it = std::lower_bound(bindings_.begin(), bindings_.end(), var, VarLess);
  return it != bindings_.end() && it->first == var ? &it->second : nullptr;
}

Term Subst::Apply(const Term& term) const {
  switch (term.kind()) {
    case Term::Kind::kConstant:
      return term;
    case Term::Kind::kVariable: {
      const Term* bound = Lookup(term.var());
      if (bound == nullptr) return term;
      // Chase chains (X -> Y -> t). Cycles cannot occur: Unify uses the
      // occurs check and evaluation only binds to ground terms.
      if (bound->is_variable() || !bound->is_ground()) return Apply(*bound);
      return *bound;
    }
    case Term::Kind::kFunction: {
      if (term.is_ground()) return term;
      std::vector<Term> args;
      args.reserve(term.args().size());
      for (const Term& a : term.args()) args.push_back(Apply(a));
      return Term::Function(term.functor(), std::move(args));
    }
  }
  return term;
}

std::vector<Term> Subst::ApplyAll(const std::vector<Term>& terms) const {
  std::vector<Term> out;
  out.reserve(terms.size());
  for (const Term& t : terms) out.push_back(Apply(t));
  return out;
}

std::string Subst::ToString() const {
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(bindings_.size());
  for (const auto& [var, term] : bindings_) {
    entries.emplace_back(SymbolName(var), term.ToString());
  }
  std::sort(entries.begin(), entries.end());
  std::string out = "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ", ";
    out += entries[i].first;
    out += "=";
    out += entries[i].second;
  }
  out += "}";
  return out;
}

bool MatchTerm(const Term& pattern, const Term& ground, Subst* subst) {
  DEDUCE_CHECK(ground.is_ground()) << "MatchTerm target must be ground";
  switch (pattern.kind()) {
    case Term::Kind::kConstant:
      return ground.is_constant() && pattern.value() == ground.value();
    case Term::Kind::kVariable:
      return subst->Bind(pattern.var(), ground);
    case Term::Kind::kFunction: {
      if (!ground.is_function()) return false;
      if (pattern.functor() != ground.functor()) return false;
      if (pattern.args().size() != ground.args().size()) return false;
      for (size_t i = 0; i < pattern.args().size(); ++i) {
        if (!MatchTerm(pattern.args()[i], ground.args()[i], subst)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

bool MatchTerms(const std::vector<Term>& patterns,
                const std::vector<Term>& grounds, Subst* subst) {
  if (patterns.size() != grounds.size()) return false;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (!MatchTerm(patterns[i], grounds[i], subst)) return false;
  }
  return true;
}

bool Unify(const Term& a_in, const Term& b_in, Subst* subst) {
  Term a = subst->Apply(a_in);
  Term b = subst->Apply(b_in);
  if (a == b) return true;
  if (a.is_variable()) {
    if (b.ContainsVariable(a.var())) return false;  // occurs check
    return subst->Bind(a.var(), b);
  }
  if (b.is_variable()) {
    if (a.ContainsVariable(b.var())) return false;
    return subst->Bind(b.var(), a);
  }
  if (a.is_constant() || b.is_constant()) {
    return a.is_constant() && b.is_constant() && a.value() == b.value();
  }
  // Both functions.
  if (a.functor() != b.functor() || a.args().size() != b.args().size()) {
    return false;
  }
  for (size_t i = 0; i < a.args().size(); ++i) {
    if (!Unify(a.args()[i], b.args()[i], subst)) return false;
  }
  return true;
}

Term RenameVariables(const Term& t, const std::string& suffix) {
  switch (t.kind()) {
    case Term::Kind::kConstant:
      return t;
    case Term::Kind::kVariable:
      return Term::Var(SymbolName(t.var()) + suffix);
    case Term::Kind::kFunction: {
      if (t.is_ground()) return t;
      std::vector<Term> args;
      args.reserve(t.args().size());
      for (const Term& a : t.args()) args.push_back(RenameVariables(a, suffix));
      return Term::Function(t.functor(), std::move(args));
    }
  }
  return t;
}

}  // namespace deduce

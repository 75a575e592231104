#ifndef DEDUCE_DATALOG_UNIFY_H_
#define DEDUCE_DATALOG_UNIFY_H_

#include <string>
#include <utility>
#include <vector>

#include "deduce/datalog/term.h"

namespace deduce {

/// A substitution: a finite map from variables to terms, kept as a vector
/// sorted by variable id (substitutions hold a handful of bindings, and a
/// join partial ships them in that order).
///
/// During bottom-up evaluation every binding is ground (facts are ground),
/// but the class supports general bindings so full unification can be used
/// in tests and in the magic-set transformer.
class Subst {
 public:
  Subst() = default;

  /// Binds `var` to `term`. Returns false (and leaves the substitution
  /// unchanged) if `var` is already bound to a different term.
  bool Bind(SymbolId var, const Term& term);

  /// The binding of `var`, or nullptr.
  const Term* Lookup(SymbolId var) const;

  bool IsBound(SymbolId var) const { return Lookup(var) != nullptr; }

  /// Applies the substitution recursively; unbound variables remain.
  /// Variable→variable chains are chased.
  Term Apply(const Term& term) const;

  std::vector<Term> ApplyAll(const std::vector<Term>& terms) const;

  size_t size() const { return bindings_.size(); }
  bool empty() const { return bindings_.empty(); }
  void reserve(size_t n) { bindings_.reserve(n); }

  /// Deterministic "{X=1, Y=f(2)}" form (sorted by variable name).
  std::string ToString() const;

  /// The bindings in ascending variable id.
  const std::vector<std::pair<SymbolId, Term>>& bindings() const {
    return bindings_;
  }

  bool operator==(const Subst& o) const = default;

 private:
  std::vector<std::pair<SymbolId, Term>> bindings_;
};

/// One-sided matching: extends `subst` so that Apply(pattern) == ground.
/// `ground` must be ground. Returns false if no extension exists; `subst`
/// may then contain partial bindings (callers snapshot or discard).
///
/// This is the "term-matching operator" of the paper (§IV-C): the evaluation
/// of join conditions over terms with function symbols.
bool MatchTerm(const Term& pattern, const Term& ground, Subst* subst);

/// Matches argument lists position-wise.
bool MatchTerms(const std::vector<Term>& patterns,
                const std::vector<Term>& grounds, Subst* subst);

/// Full syntactic unification with occurs check. On success extends `subst`
/// to a most general unifier of the two terms (after applying the incoming
/// substitution). On failure `subst` is unspecified.
bool Unify(const Term& a, const Term& b, Subst* subst);

/// Renames every variable in `t` by appending `suffix` (used to rename
/// rules apart).
Term RenameVariables(const Term& t, const std::string& suffix);

}  // namespace deduce

#endif  // DEDUCE_DATALOG_UNIFY_H_

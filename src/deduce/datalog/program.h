#ifndef DEDUCE_DATALOG_PROGRAM_H_
#define DEDUCE_DATALOG_PROGRAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "deduce/common/statusor.h"
#include "deduce/datalog/fact.h"
#include "deduce/datalog/rule.h"

namespace deduce {

/// The window of a stream declared without `window N`: its tuples never
/// expire.
inline constexpr Timestamp kNoWindow = INT64_MAX;

/// Properties of a predicate supplied by `.decl` statements. All fields are
/// optional; the planner picks defaults (see engine/planner.h).
struct PredicateDecl {
  SymbolId name = 0;
  size_t arity = 0;
  /// Declared input stream (extensional) even if it also has rules.
  bool extensional = false;
  /// Sliding-window range τ_w, in the same time unit as tuple timestamps;
  /// unset = kNoWindow.
  std::optional<Timestamp> window;
  /// Argument index (0-based) holding the node id where tuples of this
  /// predicate should live ("home" placement; used e.g. to store h(_,Y,_)
  /// at node Y as in §V's shortest-path-tree storage discussion).
  std::optional<size_t> home_arg;
  /// Argument index of the XY-stratification stage argument; overrides
  /// inference.
  std::optional<size_t> stage_arg;
  /// Region policy names interpreted by the distributed planner:
  /// "row", "column", "local", "broadcast", "centroid", "spatial:<radius>".
  std::string storage_policy;
  std::string join_policy;

  std::string ToString() const;
};

/// A deductive program: declarations, rules and ground facts given in the
/// program text. Build by hand or via ParseProgram (parser.h).
class Program {
 public:
  Program() = default;

  /// Adds a rule; assigns its id. Fact rules (empty body, ground head) are
  /// routed to facts(). Returns error for non-ground fact rules or malformed
  /// aggregates.
  Status AddRule(Rule rule);

  /// Registers or updates a declaration. Fails if the arity conflicts with
  /// an existing declaration.
  Status AddDecl(PredicateDecl decl);

  const std::vector<Rule>& rules() const { return rules_; }
  std::vector<Rule>& mutable_rules() { return rules_; }
  const std::vector<Fact>& facts() const { return facts_; }
  const std::unordered_map<SymbolId, PredicateDecl>& decls() const {
    return decls_;
  }

  /// The declaration for `pred`, or nullptr.
  const PredicateDecl* FindDecl(SymbolId pred) const;

  /// Full program text in parseable syntax.
  std::string ToString() const;

 private:
  std::vector<Rule> rules_;
  std::vector<Fact> facts_;
  std::unordered_map<SymbolId, PredicateDecl> decls_;
};

}  // namespace deduce

#endif  // DEDUCE_DATALOG_PROGRAM_H_

#ifndef DEDUCE_EVAL_DATABASE_H_
#define DEDUCE_EVAL_DATABASE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "deduce/datalog/fact.h"

namespace deduce {

/// Read interface over a set of relations, used by the rule evaluator. The
/// same evaluator runs against a static Database (semi-naive evaluation)
/// and against the alive-and-in-window view of an incremental engine.
class RelationReader {
 public:
  virtual ~RelationReader() = default;

  /// Invokes `fn` for every visible fact of `pred` together with its tuple
  /// id (implementations without ids pass a default TupleId).
  virtual void Scan(SymbolId pred,
                    const std::function<void(const Fact&, const TupleId&)>& fn)
      const = 0;

  /// True if `fact` is visible.
  virtual bool Contains(const Fact& fact) const = 0;

  /// Invokes `fn` for every visible fact of `pred` whose argument at
  /// `position` equals `value`. The default implementation filters a full
  /// Scan; indexed implementations (Database) answer from a hash index.
  virtual void ScanBound(
      SymbolId pred, size_t position, const Term& value,
      const std::function<void(const Fact&, const TupleId&)>& fn) const {
    Scan(pred, [&](const Fact& f, const TupleId& id) {
      if (position < f.args().size() && f.args()[position] == value) {
        fn(f, id);
      }
    });
  }
};

/// A simple in-memory fact store: per-predicate sets with deterministic
/// iteration order (insertion order).
class Database : public RelationReader {
 public:
  Database() = default;

  /// Inserts a fact; returns true if it was new.
  bool Insert(const Fact& fact);

  /// Removes a fact; returns true if it was present.
  bool Erase(const Fact& fact);

  /// Inserts `fact` under predicate `as`, relabeling when they differ —
  /// the read-time view the multi-tenant accessors use to present shared
  /// (deduped or renamed) results under each tenant's own predicate names.
  bool InsertAs(const Fact& fact, SymbolId as) {
    return Insert(fact.predicate() == as ? fact : Fact(as, fact.args()));
  }

  bool Contains(const Fact& fact) const override;

  void Scan(SymbolId pred,
            const std::function<void(const Fact&, const TupleId&)>& fn)
      const override;

  /// All facts of `pred` in insertion order.
  const std::vector<Fact>& Relation(SymbolId pred) const;

  /// Total number of facts.
  size_t size() const { return size_; }
  size_t RelationSize(SymbolId pred) const;

  /// Predicates with at least one fact ever inserted.
  std::vector<SymbolId> Predicates() const;

  /// True if both databases contain exactly the same facts.
  bool SameFacts(const Database& other) const;

  /// Indexed lookup: facts whose argument at `position` equals `value`.
  /// Indexes are built lazily per (predicate, position) on first use and
  /// maintained incrementally afterwards.
  void ScanBound(SymbolId pred, size_t position, const Term& value,
                 const std::function<void(const Fact&, const TupleId&)>& fn)
      const override;

  /// Deterministic multi-line listing (sorted), for tests and goldens.
  std::string ToString() const;

 private:
  /// Struct-of-arrays relation storage. A fact appears once in `ordered`
  /// (one shared-rep pointer); membership is an open-addressed table of
  /// ordinals probed through the parallel `hashes` array (no second Fact
  /// copy, no per-node allocation), and the lazy per-position indexes are
  /// intrusive chains threaded through one `next` array per position
  /// (no per-bucket vectors).
  struct Rel {
    static constexpr uint32_t kNone = 0xffffffffu;

    std::vector<Fact> ordered;    // insertion order, no tombstones
    std::vector<size_t> hashes;   // hashes[i] == ordered[i].Hash()
    /// Open-addressed membership table: power-of-two sized, linear probing,
    /// values are ordinals into `ordered`, kNone = empty.
    std::vector<uint32_t> slots;

    /// One lazy hash index per bound argument position: value-hash ->
    /// chain head/tail/length, chains threaded through `next` in ascending
    /// ordinal (= insertion) order.
    struct Bucket {
      uint32_t first = kNone;
      uint32_t last = kNone;
      uint32_t len = 0;
    };
    struct PosIndex {
      std::unordered_map<size_t, Bucket> buckets;
      std::vector<uint32_t> next;  // per-ordinal chain successor
    };
    mutable std::unordered_map<size_t, PosIndex> indexes;
    /// Bumped whenever the structure of `indexes` changes in a way that can
    /// invalidate an in-flight ScanBound (new bucket key, new position
    /// index, or the erase-path rebuild). ScanBound watches it so a
    /// re-entrant Insert/Erase from the callback cannot leave it walking a
    /// stale chain.
    mutable uint64_t index_epoch = 0;
  };
  /// Ordinal of `fact` in `rel.ordered`, or Rel::kNone.
  uint32_t Lookup(const Rel& rel, size_t hash, const Fact& fact) const;
  /// Adds `ordinal` to the membership table, growing/rehashing as needed.
  void SlotInsert(Rel* rel, uint32_t ordinal);
  /// Rebuilds the membership table from scratch (after an erase shifted
  /// ordinals).
  void RebuildSlots(Rel* rel);
  /// Fills a fresh per-position index over all current ordinals.
  void BuildPosIndex(const Rel& rel, size_t position,
                     Rel::PosIndex* pidx) const;
  void IndexInsert(Rel* rel, const Fact& fact, uint32_t ordinal) const;

  std::unordered_map<SymbolId, Rel> relations_;
  size_t size_ = 0;
};

}  // namespace deduce

#endif  // DEDUCE_EVAL_DATABASE_H_

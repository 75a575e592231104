#include "deduce/eval/database.h"

#include <algorithm>

namespace deduce {

namespace {
constexpr uint32_t kNone = 0xffffffffu;
}  // namespace

uint32_t Database::Lookup(const Rel& rel, size_t hash,
                          const Fact& fact) const {
  if (rel.slots.empty()) return kNone;
  size_t mask = rel.slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    uint32_t ordinal = rel.slots[i];
    if (ordinal == kNone) return kNone;
    if (rel.hashes[ordinal] == hash && rel.ordered[ordinal] == fact) {
      return ordinal;
    }
  }
}

void Database::SlotInsert(Rel* rel, uint32_t ordinal) {
  // Keep load factor under 3/4.
  if ((rel->ordered.size() + 1) * 4 > rel->slots.size() * 3) {
    size_t cap = std::max<size_t>(16, rel->slots.size() * 2);
    rel->slots.assign(cap, kNone);
    size_t mask = cap - 1;
    for (uint32_t o = 0; o < rel->ordered.size(); ++o) {
      size_t i = rel->hashes[o] & mask;
      while (rel->slots[i] != kNone) i = (i + 1) & mask;
      rel->slots[i] = o;
    }
  }
  size_t mask = rel->slots.size() - 1;
  size_t i = rel->hashes[ordinal] & mask;
  while (rel->slots[i] != kNone) i = (i + 1) & mask;
  rel->slots[i] = ordinal;
}

void Database::RebuildSlots(Rel* rel) {
  if (rel->slots.empty()) return;
  std::fill(rel->slots.begin(), rel->slots.end(), kNone);
  size_t mask = rel->slots.size() - 1;
  for (uint32_t o = 0; o < rel->ordered.size(); ++o) {
    size_t i = rel->hashes[o] & mask;
    while (rel->slots[i] != kNone) i = (i + 1) & mask;
    rel->slots[i] = o;
  }
}

bool Database::Insert(const Fact& fact) {
  Rel& rel = relations_[fact.predicate()];
  size_t hash = fact.Hash();
  if (Lookup(rel, hash, fact) != kNone) return false;
  uint32_t ordinal = static_cast<uint32_t>(rel.ordered.size());
  rel.ordered.push_back(fact);
  rel.hashes.push_back(hash);
  SlotInsert(&rel, ordinal);
  IndexInsert(&rel, fact, ordinal);
  ++size_;
  return true;
}

bool Database::Erase(const Fact& fact) {
  auto it = relations_.find(fact.predicate());
  if (it == relations_.end()) return false;
  Rel& rel = it->second;
  uint32_t ordinal = Lookup(rel, fact.Hash(), fact);
  if (ordinal == kNone) return false;
  rel.ordered.erase(rel.ordered.begin() + ordinal);
  rel.hashes.erase(rel.hashes.begin() + ordinal);
  // Ordinals after the erased fact shift; rebuilding lazily is simpler and
  // erase is rare on the hot paths (semi-naive only inserts).
  RebuildSlots(&rel);
  rel.indexes.clear();
  ++rel.index_epoch;
  --size_;
  return true;
}

void Database::BuildPosIndex(const Rel& rel, size_t position,
                             Rel::PosIndex* pidx) const {
  pidx->next.assign(rel.ordered.size(), kNone);
  for (uint32_t o = 0; o < rel.ordered.size(); ++o) {
    const Fact& f = rel.ordered[o];
    if (position >= f.args().size()) continue;
    Rel::Bucket& bucket = pidx->buckets[f.args()[position].Hash()];
    if (bucket.first == kNone) {
      bucket.first = o;
    } else {
      pidx->next[bucket.last] = o;
    }
    bucket.last = o;
    ++bucket.len;
  }
}

void Database::IndexInsert(Rel* rel, const Fact& fact,
                           uint32_t ordinal) const {
  for (auto& [position, pidx] : rel->indexes) {
    pidx.next.resize(ordinal + 1, kNone);
    if (position >= fact.args().size()) continue;
    size_t value_hash = fact.args()[position].Hash();
    auto [bit, fresh] =
        pidx.buckets.try_emplace(value_hash, Rel::Bucket{ordinal, ordinal, 1});
    if (!fresh) {
      pidx.next[bit->second.last] = ordinal;
      bit->second.last = ordinal;
      ++bit->second.len;
    } else {
      // A fresh bucket key can rehash the bucket map under an in-flight
      // ScanBound that re-entered us.
      ++rel->index_epoch;
    }
  }
}

void Database::ScanBound(
    SymbolId pred, size_t position, const Term& value,
    const std::function<void(const Fact&, const TupleId&)>& fn) const {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return;
  const Rel& rel = it->second;
  auto iit = rel.indexes.find(position);
  if (iit == rel.indexes.end()) {
    // Build the index for this position on first use.
    Rel::PosIndex& pidx = rel.indexes[position];
    ++rel.index_epoch;  // new position key: outer-map iterators are stale
    BuildPosIndex(rel, position, &pidx);
    iit = rel.indexes.find(position);
  }
  const size_t value_hash = value.Hash();
  auto bit = iit->second.buckets.find(value_hash);
  if (bit == iit->second.buckets.end()) return;
  TupleId none;
  // Same re-entrancy discipline as Scan: `fn` may insert into this relation,
  // appending to this very chain — and a brand-new hash bucket (or an
  // Erase's index rebuild) restructures the index maps. Watch the epoch and
  // re-resolve the chain instead of walking stale links; only the first `n`
  // entries (the facts visible at scan start) are ever visited.
  size_t n = bit->second.len;
  uint64_t epoch = rel.index_epoch;
  const Rel::PosIndex* pidx = &iit->second;
  uint32_t first = bit->second.first;
  uint32_t cur = kNone;
  for (size_t i = 0; i < n; ++i) {
    if (rel.index_epoch != epoch) {
      epoch = rel.index_epoch;
      auto rit = rel.indexes.find(position);
      if (rit == rel.indexes.end()) return;  // re-entrant Erase dropped it
      pidx = &rit->second;
      auto rbit = pidx->buckets.find(value_hash);
      if (rbit == pidx->buckets.end()) return;
      // An Erase-triggered rebuild shifts ordinals; anything beyond the
      // rebuilt chain is gone for this scan. Resume at the i-th entry of
      // the rebuilt chain.
      n = std::min(n, static_cast<size_t>(rbit->second.len));
      if (i >= n) return;
      cur = rbit->second.first;
      for (size_t k = 0; k < i; ++k) cur = pidx->next[cur];
    } else {
      cur = (i == 0) ? first : pidx->next[cur];
    }
    Fact f = rel.ordered[cur];
    // Hash collisions: confirm equality.
    if (position < f.args().size() && f.args()[position] == value) {
      fn(f, none);
    }
  }
}

bool Database::Contains(const Fact& fact) const {
  auto it = relations_.find(fact.predicate());
  return it != relations_.end() &&
         Lookup(it->second, fact.Hash(), fact) != kNone;
}

void Database::Scan(
    SymbolId pred,
    const std::function<void(const Fact&, const TupleId&)>& fn) const {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return;
  TupleId none;
  // Index-based with a snapshotted bound and a copied fact: `fn` may insert
  // into this very relation (semi-naive evaluation of recursive rules), and
  // a vector reallocation would invalidate references into `ordered`.
  const Rel& rel = it->second;
  size_t n = rel.ordered.size();
  for (size_t i = 0; i < n; ++i) {
    Fact f = rel.ordered[i];
    fn(f, none);
  }
}

const std::vector<Fact>& Database::Relation(SymbolId pred) const {
  static const std::vector<Fact>* empty = new std::vector<Fact>();
  auto it = relations_.find(pred);
  return it == relations_.end() ? *empty : it->second.ordered;
}

size_t Database::RelationSize(SymbolId pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? 0 : it->second.ordered.size();
}

std::vector<SymbolId> Database::Predicates() const {
  std::vector<SymbolId> out;
  for (const auto& [pred, rel] : relations_) {
    if (!rel.ordered.empty()) out.push_back(pred);
  }
  std::sort(out.begin(), out.end(), [](SymbolId a, SymbolId b) {
    return SymbolName(a) < SymbolName(b);
  });
  return out;
}

bool Database::SameFacts(const Database& other) const {
  if (size_ != other.size_) return false;
  for (const auto& [pred, rel] : relations_) {
    for (const Fact& f : rel.ordered) {
      if (!other.Contains(f)) return false;
    }
  }
  return true;
}

std::string Database::ToString() const {
  std::vector<std::string> lines;
  for (const auto& [pred, rel] : relations_) {
    for (const Fact& f : rel.ordered) lines.push_back(f.ToString());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

}  // namespace deduce

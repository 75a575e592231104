#include "deduce/eval/incremental.h"

#include <algorithm>

#include "deduce/common/logging.h"
#include "deduce/common/strings.h"

namespace deduce {

namespace {

const BuiltinRegistry& DefaultRegistry() {
  static const BuiltinRegistry* r =
      new BuiltinRegistry(BuiltinRegistry::Default());
  return *r;
}

}  // namespace

std::string Derivation::ToString() const {
  std::string out = StrFormat("r%d[", rule_id);
  for (size_t i = 0; i < support.size(); ++i) {
    if (i > 0) out += ",";
    out += support[i].ToString();
  }
  out += "]";
  return out;
}

/// RelationReader over alive entries, with an optional "phantom": a single
/// fact treated as alive even though its entry is dead. The phantom is the
/// tuple being deleted — per Theorem 3, a tuple deleted at local time τ is
/// still visible to the join that computes the effects of its own deletion.
class IncrementalEngine::AliveView : public RelationReader {
 public:
  explicit AliveView(const IncrementalEngine* engine) : engine_(engine) {}
  AliveView(const IncrementalEngine* engine, const Fact* phantom,
            TupleId phantom_id)
      : engine_(engine), phantom_(phantom), phantom_id_(phantom_id) {}

  void Scan(SymbolId pred,
            const std::function<void(const Fact&, const TupleId&)>& fn)
      const override {
    auto it = engine_->store_.find(pred);
    if (it == engine_->store_.end()) return;
    // `fn` cascades derivations that may insert into this very relation
    // (recursive rules): iterate by index over a snapshotted bound and copy
    // the fact, since push_back can reallocate `order`.
    size_t n = it->second.order.size();
    for (size_t i = 0; i < n; ++i) {
      Fact f = it->second.order[i];
      auto eit = it->second.map.find(f);
      if (eit == it->second.map.end()) continue;
      const Entry& e = eit->second;
      if (e.alive) {
        fn(f, e.id);
      } else if (phantom_ != nullptr && f == *phantom_) {
        fn(f, phantom_id_);
      }
    }
  }

  bool Contains(const Fact& fact) const override {
    const Entry* e = engine_->FindEntry(fact);
    if (e != nullptr && e->alive) return true;
    return phantom_ != nullptr && fact == *phantom_;
  }

 private:
  const IncrementalEngine* engine_;
  const Fact* phantom_ = nullptr;
  TupleId phantom_id_;
};

StatusOr<std::unique_ptr<IncrementalEngine>> IncrementalEngine::Create(
    const Program& program, const IncrementalOptions& options) {
  const BuiltinRegistry* registry =
      options.registry != nullptr ? options.registry : &DefaultRegistry();
  Program copy = program;
  DEDUCE_RETURN_IF_ERROR(ResolveBuiltins(&copy, *registry));
  DEDUCE_ASSIGN_OR_RETURN(ProgramAnalysis analysis, AnalyzeProgram(copy));

  for (const Rule& r : copy.rules()) {
    if (!r.aggregates.empty()) {
      return Status::Unimplemented(
          "incremental maintenance of aggregates is not supported; use the "
          "engine's in-network aggregation path instead (rule: " +
          r.ToString() + ")");
    }
  }
  for (const SccInfo& scc : analysis.sccs) {
    if (scc.recursive && scc.has_internal_negation && !scc.xy_stratified) {
      return Status::Unimplemented(
          "recursion through negation is not XY-stratified: " +
          scc.xy_diagnostic);
    }
  }
  if (options.strategy == MaintenanceStrategy::kCounting &&
      analysis.is_recursive) {
    return Status::Unimplemented(
        "the counting strategy supports non-recursive programs only");
  }
  if (options.strategy == MaintenanceStrategy::kRederivation &&
      analysis.has_negation) {
    return Status::Unimplemented(
        "the rederivation strategy supports programs without negation only");
  }

  auto engine = std::unique_ptr<IncrementalEngine>(new IncrementalEngine(
      std::move(copy), std::move(analysis), registry, options));
  return engine;
}

IncrementalEngine::IncrementalEngine(Program program,
                                     ProgramAnalysis analysis,
                                     const BuiltinRegistry* registry,
                                     const IncrementalOptions& options)
    : program_(std::move(program)),
      analysis_(std::move(analysis)),
      registry_(registry),
      options_(options) {
  for (size_t ri = 0; ri < program_.rules().size(); ++ri) {
    const Rule& rule = program_.rules()[ri];
    evaluators_.push_back(
        std::make_unique<RuleBodyEvaluator>(&rule, registry_));
    for (size_t li = 0; li < rule.body.size(); ++li) {
      const Literal& lit = rule.body[li];
      if (lit.kind == Literal::Kind::kPositive) {
        positive_occurrences_[lit.atom.predicate].emplace_back(ri, li);
      } else if (lit.kind == Literal::Kind::kNegated) {
        negated_occurrences_[lit.atom.predicate].emplace_back(ri, li);
      }
    }
  }
  // Program facts are permanent axioms (alive from the start; never expire).
  for (const Fact& f : program_.facts()) {
    auto& rel = store_[f.predicate()];
    auto [it, inserted] = rel.map.emplace(f, Entry{});
    if (!inserted) continue;
    rel.order.push_back(f);
    Entry& e = it->second;
    e.alive = true;
    e.base = true;
    e.id = TupleId{kNoNode, 0, seq_++};
    id_index_[e.id] = {f.predicate(), f};
  }
}

IncrementalEngine::Entry* IncrementalEngine::FindEntry(const Fact& fact) {
  auto rit = store_.find(fact.predicate());
  if (rit == store_.end()) return nullptr;
  auto it = rit->second.map.find(fact);
  return it == rit->second.map.end() ? nullptr : &it->second;
}

const IncrementalEngine::Entry* IncrementalEngine::FindEntry(
    const Fact& fact) const {
  return const_cast<IncrementalEngine*>(this)->FindEntry(fact);
}

Timestamp IncrementalEngine::WindowOf(SymbolId pred) const {
  const PredicateDecl* decl = program_.FindDecl(pred);
  if (decl != nullptr && decl->window.has_value()) return *decl->window;
  return kNoWindow;
}

void IncrementalEngine::ScheduleExpiry(SymbolId pred, const Fact& fact,
                                       Timestamp gen_ts) {
  Timestamp w = WindowOf(pred);
  if (w == kNoWindow) return;
  expiry_.push(ExpiryItem{gen_ts + w, expiry_order_++, pred, fact, gen_ts});
}

Status IncrementalEngine::Apply(const StreamEvent& event,
                                std::vector<StreamEvent>* out) {
  DEDUCE_RETURN_IF_ERROR(AdvanceTo(event.time, out));
  ++stats_.events;

  std::deque<StreamEvent> queue;
  if (event.op == StreamOp::kInsert) {
    if (analysis_.idb.count(event.fact.predicate())) {
      return Status::InvalidArgument(
          "cannot insert into derived stream " +
          SymbolName(event.fact.predicate()));
    }
    auto& rel = store_[event.fact.predicate()];
    auto [it, inserted] = rel.map.emplace(event.fact, Entry{});
    Entry& e = it->second;
    if (!inserted && e.alive) return Status::OK();  // set semantics: no-op
    if (inserted) rel.order.push_back(event.fact);
    e.alive = true;
    e.base = true;
    e.id = event.id;
    e.gen_ts = event.time;
    id_index_[e.id] = {event.fact.predicate(), event.fact};
    ScheduleExpiry(event.fact.predicate(), event.fact, event.time);
    queue.push_back(event);
  } else {
    Entry* e = FindEntry(event.fact);
    if (e == nullptr || !e->alive) return Status::OK();  // unknown: no-op
    if (!e->base) {
      return Status::InvalidArgument(
          "cannot delete derived fact " + event.fact.ToString() +
          " directly");
    }
    e->alive = false;
    // Derivations the fact may also have accumulated die with it.
    live_derivations_ -= e->derivs.size();
    e->derivs.clear();
    e->count = 0;
    StreamEvent del = event;
    del.id = e->id;
    queue.push_back(del);
  }

  while (!queue.empty()) {
    StreamEvent ev = queue.front();
    queue.pop_front();
    if (ev.op == StreamOp::kInsert) {
      DEDUCE_RETURN_IF_ERROR(ProcessInsert(ev, out, &queue));
    } else {
      DEDUCE_RETURN_IF_ERROR(ProcessDelete(ev, out, &queue));
    }
    if (queue.empty() &&
        options_.strategy == MaintenanceStrategy::kRederivation &&
        !dred_candidates_.empty()) {
      DEDUCE_RETURN_IF_ERROR(Rederive(ev.time, out, &queue));
    }
  }
  return Status::OK();
}

Status IncrementalEngine::AdvanceTo(Timestamp now,
                                    std::vector<StreamEvent>* out) {
  while (!expiry_.empty() && expiry_.top().when <= now) {
    ExpiryItem item = expiry_.top();
    expiry_.pop();
    Entry* e = FindEntry(item.fact);
    if (e == nullptr || !e->alive || e->gen_ts != item.gen_ts) continue;
    e->alive = false;
    live_derivations_ -= e->derivs.size();
    e->derivs.clear();
    e->count = 0;
    StreamEvent del;
    del.op = StreamOp::kDelete;
    del.fact = item.fact;
    del.id = e->id;
    del.time = item.when;
    std::deque<StreamEvent> queue;
    queue.push_back(del);
    if (analysis_.idb.count(item.fact.predicate()) && out != nullptr) {
      out->push_back(del);
    }
    while (!queue.empty()) {
      StreamEvent ev = queue.front();
      queue.pop_front();
      if (ev.op == StreamOp::kInsert) {
        DEDUCE_RETURN_IF_ERROR(ProcessInsert(ev, out, &queue));
      } else {
        DEDUCE_RETURN_IF_ERROR(ProcessDelete(ev, out, &queue));
      }
      if (queue.empty() &&
          options_.strategy == MaintenanceStrategy::kRederivation &&
          !dred_candidates_.empty()) {
        DEDUCE_RETURN_IF_ERROR(Rederive(ev.time, out, &queue));
      }
    }
  }
  return Status::OK();
}

Status IncrementalEngine::ProcessInsert(const StreamEvent& event,
                                        std::vector<StreamEvent>* out,
                                        std::deque<StreamEvent>* queue) {
  AliveView view(this);
  std::vector<std::pair<Fact, TupleId>> pin = {{event.fact, event.id}};

  auto run = [&](size_t rule_idx, size_t lit_idx, bool removing) -> Status {
    const Rule& rule = program_.rules()[rule_idx];
    RuleEvalOptions opts;
    opts.pin_index = lit_idx;
    opts.pin_facts = &pin;
    RuleEvalStats rstats;
    Status st = evaluators_[rule_idx]->Evaluate(
        view, opts,
        [&](const Subst& subst,
            const std::vector<MatchedFact>& matched) -> Status {
          DEDUCE_ASSIGN_OR_RETURN(Fact head,
                                  evaluators_[rule_idx]->BuildHead(subst));
          Derivation d;
          d.rule_id = rule.id;
          std::vector<MatchedFact> sorted = matched;
          std::sort(sorted.begin(), sorted.end(),
                    [](const MatchedFact& a, const MatchedFact& b) {
                      return a.body_index < b.body_index;
                    });
          for (const MatchedFact& m : sorted) d.support.push_back(m.id);
          if (removing) {
            return RemoveDerivation(head, d, event.time, out, queue);
          }
          return AddDerivation(head, d, event.time, out, queue);
        },
        &rstats);
    stats_.probes += rstats.probes;
    return st;
  };

  auto pit = positive_occurrences_.find(event.fact.predicate());
  if (pit != positive_occurrences_.end()) {
    for (auto [ri, li] : pit->second) {
      DEDUCE_RETURN_IF_ERROR(run(ri, li, /*removing=*/false));
    }
  }
  auto nit = negated_occurrences_.find(event.fact.predicate());
  if (nit != negated_occurrences_.end()) {
    for (auto [ri, li] : nit->second) {
      DEDUCE_RETURN_IF_ERROR(run(ri, li, /*removing=*/true));
    }
  }
  return Status::OK();
}

Status IncrementalEngine::ProcessDelete(const StreamEvent& event,
                                        std::vector<StreamEvent>* out,
                                        std::deque<StreamEvent>* queue) {
  std::vector<std::pair<Fact, TupleId>> pin = {{event.fact, event.id}};

  auto run = [&](const RelationReader& view, size_t rule_idx, size_t lit_idx,
                 bool removing) -> Status {
    const Rule& rule = program_.rules()[rule_idx];
    RuleEvalOptions opts;
    opts.pin_index = lit_idx;
    opts.pin_facts = &pin;
    RuleEvalStats rstats;
    Status st = evaluators_[rule_idx]->Evaluate(
        view, opts,
        [&](const Subst& subst,
            const std::vector<MatchedFact>& matched) -> Status {
          DEDUCE_ASSIGN_OR_RETURN(Fact head,
                                  evaluators_[rule_idx]->BuildHead(subst));
          Derivation d;
          d.rule_id = rule.id;
          std::vector<MatchedFact> sorted = matched;
          std::sort(sorted.begin(), sorted.end(),
                    [](const MatchedFact& a, const MatchedFact& b) {
                      return a.body_index < b.body_index;
                    });
          for (const MatchedFact& m : sorted) d.support.push_back(m.id);
          if (removing) {
            return RemoveDerivation(head, d, event.time, out, queue);
          }
          return AddDerivation(head, d, event.time, out, queue);
        },
        &rstats);
    stats_.probes += rstats.probes;
    return st;
  };

  // Phase A: the deleted tuple is visible (phantom) while computing the
  // derivations that die with it.
  {
    AliveView phantom_view(this, &event.fact, event.id);
    auto pit = positive_occurrences_.find(event.fact.predicate());
    if (pit != positive_occurrences_.end()) {
      for (auto [ri, li] : pit->second) {
        DEDUCE_RETURN_IF_ERROR(run(phantom_view, ri, li, /*removing=*/true));
      }
    }
  }
  // Phase B: derivations newly enabled by the absence of the tuple.
  {
    AliveView view(this);
    auto nit = negated_occurrences_.find(event.fact.predicate());
    if (nit != negated_occurrences_.end()) {
      for (auto [ri, li] : nit->second) {
        DEDUCE_RETURN_IF_ERROR(run(view, ri, li, /*removing=*/false));
      }
    }
  }
  return Status::OK();
}

Status IncrementalEngine::AddDerivation(const Fact& fact, const Derivation& d,
                                        Timestamp t,
                                        std::vector<StreamEvent>* out,
                                        std::deque<StreamEvent>* queue) {
  auto& rel = store_[fact.predicate()];
  auto [it, inserted] = rel.map.emplace(fact, Entry{});
  if (inserted) rel.order.push_back(fact);
  Entry& e = it->second;

  switch (options_.strategy) {
    case MaintenanceStrategy::kDerivations:
      if (!e.derivs.insert(d).second) return Status::OK();  // duplicate
      ++live_derivations_;
      ++stats_.derivations_added;
      stats_.peak_derivations =
          std::max(stats_.peak_derivations, live_derivations_);
      break;
    case MaintenanceStrategy::kCounting:
      ++e.count;
      ++stats_.derivations_added;
      break;
    case MaintenanceStrategy::kRederivation:
      ++stats_.derivations_added;
      break;
  }

  // A successful Add always activates a dead entry (the new derivation is
  // valid by construction).
  if (e.alive) return Status::OK();

  if (id_index_.size() > options_.max_facts) {
    return Status::FailedPrecondition("incremental engine exceeded max_facts");
  }
  // New generation of the derived tuple (§III-B: a derived tuple is
  // generated, with a fresh id, at its first instance).
  e.alive = true;
  e.id = TupleId{kNoNode, t, seq_++};
  e.gen_ts = t;
  id_index_[e.id] = {fact.predicate(), fact};
  ScheduleExpiry(fact.predicate(), fact, t);

  StreamEvent ev;
  ev.op = StreamOp::kInsert;
  ev.fact = fact;
  ev.id = e.id;
  ev.time = t;
  queue->push_back(ev);
  if (out != nullptr) out->push_back(ev);
  return Status::OK();
}

Status IncrementalEngine::RemoveDerivation(const Fact& fact,
                                           const Derivation& d, Timestamp t,
                                           std::vector<StreamEvent>* out,
                                           std::deque<StreamEvent>* queue) {
  Entry* e = FindEntry(fact);
  if (e == nullptr) return Status::OK();

  bool dies = false;
  switch (options_.strategy) {
    case MaintenanceStrategy::kDerivations:
      if (e->derivs.erase(d) == 0) return Status::OK();
      --live_derivations_;
      ++stats_.derivations_removed;
      dies = e->derivs.empty();
      break;
    case MaintenanceStrategy::kCounting:
      if (e->count == 0) return Status::OK();
      --e->count;
      ++stats_.derivations_removed;
      dies = e->count == 0;
      break;
    case MaintenanceStrategy::kRederivation:
      // DRed over-deletion: any derivation through the deleted tuple kills
      // the fact tentatively; survivors are recomputed in Rederive().
      ++stats_.derivations_removed;
      dies = true;
      break;
  }
  if (!dies || !e->alive || e->base) return Status::OK();

  e->alive = false;
  if (options_.strategy == MaintenanceStrategy::kRederivation) {
    dred_candidates_.emplace_back(fact.predicate(), fact);
  }
  StreamEvent ev;
  ev.op = StreamOp::kDelete;
  ev.fact = fact;
  ev.id = e->id;
  ev.time = t;
  queue->push_back(ev);
  if (out != nullptr) out->push_back(ev);
  return Status::OK();
}

Status IncrementalEngine::Rederive(Timestamp t, std::vector<StreamEvent>* out,
                                   std::deque<StreamEvent>* queue) {
  // Evaluate every rule whose head predicate has tentative deletions; any
  // candidate that is still derivable from alive facts is revived (its
  // insert event re-cascades via the queue).
  bool changed = true;
  while (changed && !dred_candidates_.empty()) {
    changed = false;
    ++stats_.rederive_rounds;
    std::unordered_set<SymbolId> preds;
    std::unordered_set<Fact, FactHash> candidates;
    for (const auto& [pred, fact] : dred_candidates_) {
      preds.insert(pred);
      candidates.insert(fact);
    }
    std::unordered_set<Fact, FactHash> derivable;
    AliveView view(this);
    for (size_t ri = 0; ri < program_.rules().size(); ++ri) {
      const Rule& rule = program_.rules()[ri];
      if (!preds.count(rule.head.predicate)) continue;
      RuleEvalStats rstats;
      Status st = evaluators_[ri]->Evaluate(
          view, RuleEvalOptions{},
          [&](const Subst& subst, const std::vector<MatchedFact>&) -> Status {
            DEDUCE_ASSIGN_OR_RETURN(Fact head, evaluators_[ri]->BuildHead(subst));
            if (candidates.count(head)) derivable.insert(head);
            return Status::OK();
          },
          &rstats);
      stats_.rederive_probes += rstats.probes;
      DEDUCE_RETURN_IF_ERROR(st);
    }
    std::vector<std::pair<SymbolId, Fact>> remaining;
    for (auto& [pred, fact] : dred_candidates_) {
      if (!derivable.count(fact)) {
        remaining.emplace_back(pred, fact);
        continue;
      }
      changed = true;
      Entry* e = FindEntry(fact);
      DEDUCE_CHECK(e != nullptr);
      if (e->alive) continue;
      e->alive = true;
      e->id = TupleId{kNoNode, t, seq_++};
      e->gen_ts = t;
      id_index_[e->id] = {fact.predicate(), fact};
      ScheduleExpiry(fact.predicate(), fact, t);
      StreamEvent ev;
      ev.op = StreamOp::kInsert;
      ev.fact = fact;
      ev.id = e->id;
      ev.time = t;
      queue->push_back(ev);
      if (out != nullptr) out->push_back(ev);
    }
    dred_candidates_ = std::move(remaining);
    // Drain the cascade produced by revivals before the next round.
    while (!queue->empty()) {
      StreamEvent ev = queue->front();
      queue->pop_front();
      if (ev.op == StreamOp::kInsert) {
        DEDUCE_RETURN_IF_ERROR(ProcessInsert(ev, out, queue));
      } else {
        DEDUCE_RETURN_IF_ERROR(ProcessDelete(ev, out, queue));
      }
    }
  }
  dred_candidates_.clear();
  return Status::OK();
}

Database IncrementalEngine::AliveDatabase() const {
  Database db;
  // Deterministic predicate order.
  std::vector<SymbolId> preds;
  for (const auto& [pred, rel] : store_) preds.push_back(pred);
  std::sort(preds.begin(), preds.end(), [](SymbolId a, SymbolId b) {
    return SymbolName(a) < SymbolName(b);
  });
  for (SymbolId pred : preds) {
    const auto& rel = store_.at(pred);
    for (const Fact& f : rel.order) {
      if (rel.map.at(f).alive) db.Insert(f);
    }
  }
  return db;
}

std::vector<Fact> IncrementalEngine::AliveFacts(SymbolId pred) const {
  std::vector<Fact> out;
  auto it = store_.find(pred);
  if (it == store_.end()) return out;
  for (const Fact& f : it->second.order) {
    if (it->second.map.at(f).alive) out.push_back(f);
  }
  return out;
}

bool IncrementalEngine::ProofDfs(const Fact& fact,
                                 std::set<std::string>* visiting,
                                 std::map<std::string, bool>* memo) const {
  const Entry* e = FindEntry(fact);
  if (e == nullptr || !e->alive) return false;
  if (e->base) return true;
  std::string key = fact.ToString();
  auto mit = memo->find(key);
  if (mit != memo->end()) return mit->second;
  if (visiting->count(key)) return false;  // cycle on this path
  visiting->insert(key);
  bool ok = false;
  for (const Derivation& d : e->derivs) {
    bool all = true;
    for (const TupleId& id : d.support) {
      auto iit = id_index_.find(id);
      if (iit == id_index_.end()) {
        all = false;
        break;
      }
      const Entry* se = FindEntry(iit->second.second);
      if (se == nullptr || !se->alive || se->id != id) {
        all = false;
        break;
      }
      if (!ProofDfs(iit->second.second, visiting, memo)) {
        all = false;
        break;
      }
    }
    if (all) {
      ok = true;
      break;
    }
  }
  visiting->erase(key);
  // Memoize positives always; negatives only at the top of the recursion
  // (a "false" under a visiting set may be a cycle artifact).
  if (ok || visiting->empty()) (*memo)[key] = ok;
  return ok;
}

StatusOr<bool> IncrementalEngine::HasValidProofTree(const Fact& fact) const {
  if (options_.strategy != MaintenanceStrategy::kDerivations) {
    return StatusOr<bool>(Status::FailedPrecondition(
        "proof trees are only tracked by the derivations strategy"));
  }
  std::set<std::string> visiting;
  std::map<std::string, bool> memo;
  return ProofDfs(fact, &visiting, &memo);
}

StatusOr<std::vector<Fact>> IncrementalEngine::FactsWithoutValidProof() const {
  if (options_.strategy != MaintenanceStrategy::kDerivations) {
    return StatusOr<std::vector<Fact>>(Status::FailedPrecondition(
        "proof trees are only tracked by the derivations strategy"));
  }
  std::vector<Fact> bad;
  for (const auto& [pred, rel] : store_) {
    if (!analysis_.idb.count(pred)) continue;
    for (const Fact& f : rel.order) {
      if (!rel.map.at(f).alive) continue;
      std::set<std::string> visiting;
      std::map<std::string, bool> memo;
      if (!ProofDfs(f, &visiting, &memo)) bad.push_back(f);
    }
  }
  std::sort(bad.begin(), bad.end(), [](const Fact& a, const Fact& b) {
    return a.ToString() < b.ToString();
  });
  return bad;
}

}  // namespace deduce

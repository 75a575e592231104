#include "deduce/engine/engine.h"

#include <algorithm>
#include <set>

#include "deduce/common/strings.h"
#include "deduce/engine/observe.h"

namespace deduce {

namespace {

/// Total hop length of walking `path` in order.
int WalkHops(const RoutingTable& routing, const std::vector<NodeId>& path) {
  int hops = 0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    int d = routing.HopDistance(path[i], path[i + 1]);
    if (d < 0) return -1;
    hops += d;
  }
  return hops;
}

}  // namespace

StatusOr<std::unique_ptr<DistributedEngine>> DistributedEngine::Create(
    Network* network, const Program& program, const EngineOptions& options) {
  BuiltinRegistry registry = options.registry != nullptr
                                 ? *options.registry
                                 : BuiltinRegistry::Default();
  DEDUCE_ASSIGN_OR_RETURN(QueryPlan plan,
                          CompilePlan(program, registry, options.planner));
  return CreateFromPlan(network, std::move(plan), ResultFanout(), options);
}

StatusOr<std::unique_ptr<DistributedEngine>> DistributedEngine::CreateFromPlan(
    Network* network, QueryPlan plan, ResultFanout fanout,
    const EngineOptions& options) {
  // Theorem 3's phase bounds (below) grow with the network diameter; a
  // disconnected network has none, and a message across the cut has no
  // route. Rejected before anything (the budget hook) is installed on
  // the network.
  const int diameter = network->topology().DiameterHops();
  if (diameter < 0) {
    return Status::FailedPrecondition(
        "topology is disconnected: the engine needs a connected network");
  }
  auto engine = std::unique_ptr<DistributedEngine>(new DistributedEngine());
  engine->network_ = network;
  engine->shared_ = std::make_unique<EngineShared>();
  EngineShared& shared = *engine->shared_;

  shared.registry = options.registry != nullptr ? *options.registry
                                                : BuiltinRegistry::Default();
  shared.plan = std::move(plan);
  shared.result_fanout = std::move(fanout);
  shared.topology = &network->topology();
  shared.regions = std::make_unique<RegionMapper>(shared.topology);
  shared.routing = std::make_unique<RoutingTable>(shared.topology);
  shared.geohash = std::make_unique<GeoHash>(shared.topology);
  shared.transport = options.transport;
  shared.repair = options.repair;
  shared.checksum = options.checksum;
  shared.liveness.down.assign(
      static_cast<size_t>(network->node_count()), 0);
  shared.link = &network->link();
  shared.metrics = options.metrics;
  shared.trace = options.trace;
  shared.provenance = options.provenance;
  shared.budget = options.budget;
  if (shared.budget.enabled) {
    // MemSqueeze (chaos axis): the fault plan can shrink every live budget
    // cap mid-run. EngineShared is heap-owned by the engine and the hook
    // is cleared with the apps on the next SetApp cycle, so the capture
    // stays valid for the network's app generation.
    EngineShared* sp = engine->shared_.get();
    network->AddFaultHook([sp](const FaultEvent& ev) {
      if (ev.kind != FaultEvent::Kind::kMemSqueeze) return;
      sp->budget.Squeeze(static_cast<double>(ev.magnitude) / 100.0);
      ++sp->stats.budget_squeezes;
      if (sp->metrics != nullptr) {
        sp->metrics->Add(0, "budget", "budget_squeezes");
      }
    });
  }

  // --- shed-taint dependency closure ---
  // deps(head) = head plus every predicate reachable through rule bodies.
  // NodeRuntime::ShedTaints scopes the sticky shed taint through it, so a
  // shed degrades only results it could actually have made incomplete —
  // which is what keeps one tenant's overload from tainting a disjoint
  // tenant's result homes on a shared engine.
  for (const Rule& rule : shared.plan.program.rules()) {
    auto& deps = shared.taint_deps[rule.head.predicate];
    deps.insert(rule.head.predicate);
    for (const Literal& lit : rule.body) {
      if (lit.is_relational()) deps.insert(lit.atom.predicate);
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (auto& [head, deps] : shared.taint_deps) {
      std::vector<SymbolId> add;
      for (SymbolId p : deps) {
        if (p == head) continue;
        auto it = shared.taint_deps.find(p);
        if (it == shared.taint_deps.end()) continue;
        for (SymbolId q : it->second) {
          if (deps.count(q) == 0) add.push_back(q);
        }
      }
      if (!add.empty()) {
        changed = true;
        deps.insert(add.begin(), add.end());
      }
    }
  }

  // --- per-delta evaluability tables ---
  size_t n_deltas = shared.plan.deltas.size();
  shared.launch_evaluable.resize(n_deltas);
  shared.sweep_checked_negation.resize(n_deltas);
  shared.total_passes.resize(n_deltas);
  uint32_t max_passes = 1;
  for (size_t di = 0; di < n_deltas; ++di) {
    const DeltaPlan& delta = shared.plan.deltas[di];
    const Rule& rule = shared.plan.program.rules()[delta.rule_index];
    auto& launch = shared.launch_evaluable[di];
    auto& sweep_neg = shared.sweep_checked_negation[di];
    launch.assign(rule.body.size(), 0);
    sweep_neg.assign(rule.body.size(), 0);
    bool has_sweep_neg = false;
    for (size_t li = 0; li < rule.body.size(); ++li) {
      if (li == delta.pinned_literal) continue;
      const Literal& lit = rule.body[li];
      if (!lit.is_relational()) continue;
      StoragePolicy sp = shared.plan.pred_plan(lit.atom.predicate).storage;
      bool local_everywhere = sp == StoragePolicy::kBroadcast ||
                              sp == StoragePolicy::kSpatial;
      switch (delta.strategy) {
        case JoinStrategy::kLocalOnly:
          launch[li] = 1;
          break;
        case JoinStrategy::kColumnSweep:
        case JoinStrategy::kSerpentine:
          launch[li] = local_everywhere ? 1 : 0;
          if (lit.kind == Literal::Kind::kNegated && !local_everywhere) {
            sweep_neg[li] = 1;
            has_sweep_neg = true;
          }
          break;
        case JoinStrategy::kCentroid:
        case JoinStrategy::kLocalRoute:
          break;  // resolved at the centroid / at route steps
      }
    }
    uint32_t passes = 1;
    if (delta.strategy == JoinStrategy::kColumnSweep ||
        delta.strategy == JoinStrategy::kSerpentine) {
      passes = delta.multipass
                   ? static_cast<uint32_t>(delta.pass_literals.size())
                   : 1;
      if (passes == 0) passes = 1;
      if (has_sweep_neg) ++passes;
    }
    shared.total_passes[di] = passes;
    max_passes = std::max(max_passes, passes);
  }

  // --- timing discipline (Theorem 3 bounds) ---
  const LinkModel& link = network->link();
  SimTime hop = link.MaxHopDelay(kMaxMessageBytes);

  int max_storage_hops = 0;
  int max_sweep_walk = 0;
  bool need_band_walk = false;
  bool need_serpentine = false;
  bool need_vertical = false;
  for (const auto& [pred, pp] : shared.plan.preds) {
    switch (pp.storage) {
      case StoragePolicy::kRow:
        need_band_walk = true;
        break;
      case StoragePolicy::kBroadcast:
      case StoragePolicy::kCentroid:
        max_storage_hops = std::max(max_storage_hops, diameter);
        break;
      case StoragePolicy::kSpatial:
        max_storage_hops = std::max(max_storage_hops, pp.spatial_radius);
        break;
      case StoragePolicy::kLocal:
        break;
    }
  }
  for (const DeltaPlan& d : shared.plan.deltas) {
    if (d.strategy == JoinStrategy::kColumnSweep) need_vertical = true;
    if (d.strategy == JoinStrategy::kSerpentine) need_serpentine = true;
  }
  if (need_band_walk) {
    for (int v = 0; v < shared.topology->node_count(); ++v) {
      if (shared.regions->HorizontalPath(v).empty()) continue;
      if (shared.regions->HorizontalPath(v)[0] != v) continue;
      int w = WalkHops(*shared.routing, shared.regions->HorizontalPath(v));
      if (w >= 0) max_storage_hops = std::max(max_storage_hops, w);
    }
  }
  if (need_vertical) {
    // VerticalPath(v) depends only on v's x coordinate: walk one path per
    // distinct column.
    std::set<double> walked;
    for (int v = 0; v < shared.topology->node_count(); ++v) {
      if (!walked.insert(shared.topology->location(v).x).second) continue;
      int w = WalkHops(*shared.routing, shared.regions->VerticalPath(v));
      if (w >= 0) max_sweep_walk = std::max(max_sweep_walk, w);
    }
  }
  if (need_serpentine) {
    int w = WalkHops(*shared.routing, shared.regions->SerpentinePath());
    if (w >= 0) max_sweep_walk = std::max(max_sweep_walk, w);
  }
  max_sweep_walk = std::max(max_sweep_walk, diameter);  // centroid / transit

  shared.timing.tau_c = link.max_clock_skew;
  shared.timing.tau_s = static_cast<SimTime>(
      options.timing_margin *
      static_cast<double>(hop * (max_storage_hops + 2)));
  shared.timing.tau_j = static_cast<SimTime>(
      options.timing_margin *
      static_cast<double>(hop * (diameter + max_sweep_walk + 2) *
                          static_cast<int>(max_passes)));

  shared.timing.finalize_delay =
      options.finalize_delay >= 0 ? options.finalize_delay
                                  : shared.timing.JoinDelay();

  // --- install runtimes ---
  for (int i = 0; i < network->node_count(); ++i) {
    auto runtime = std::make_unique<NodeRuntime>(&shared, i);
    engine->runtimes_.push_back(runtime.get());
    network->SetApp(i, std::move(runtime));
  }
  // `shared.plan` lives in the heap-allocated EngineShared, so the sink's
  // pointer stays valid for the engine's lifetime.
  InstallEngineObservability(network, &shared.plan, options.metrics,
                             options.trace, options.provenance.enabled,
                             options.checksum);
  network->Start();
  return engine;
}

Status DistributedEngine::Inject(NodeId node, StreamOp op, const Fact& fact) {
  if (node < 0 || node >= network_->node_count()) {
    return Status::OutOfRange(StrFormat("no node %d", node));
  }
  return runtimes_[static_cast<size_t>(node)]->Inject(
      &network_->context(node), op, fact);
}

std::vector<Fact> DistributedEngine::ResultFacts(SymbolId pred) const {
  std::vector<Fact> out;
  for (NodeRuntime* rt : runtimes_) {
    std::vector<Fact> local = rt->HomeFacts(pred);
    out.insert(out.end(), local.begin(), local.end());
  }
  return out;
}

Database DistributedEngine::ResultDatabase() const {
  Database db;
  for (SymbolId pred : shared_->plan.analysis.predicates) {
    if (!shared_->plan.analysis.idb.count(pred)) continue;
    for (const Fact& f : ResultFacts(pred)) db.Insert(f);
  }
  return db;
}

Database DistributedEngine::UndegradedResultDatabase() const {
  Database db;
  for (SymbolId pred : shared_->plan.analysis.predicates) {
    if (!shared_->plan.analysis.idb.count(pred)) continue;
    for (NodeRuntime* rt : runtimes_) {
      for (const Fact& f : rt->UndegradedHomeFacts(pred)) db.Insert(f);
    }
  }
  return db;
}

size_t DistributedEngine::TotalReplicas() const {
  size_t n = 0;
  for (NodeRuntime* rt : runtimes_) n += rt->ReplicaCount();
  return n;
}

size_t DistributedEngine::TotalDerivations() const {
  size_t n = 0;
  for (NodeRuntime* rt : runtimes_) n += rt->DerivationCount();
  return n;
}

size_t DistributedEngine::MaxNodeReplicas() const {
  size_t n = 0;
  for (NodeRuntime* rt : runtimes_) n = std::max(n, rt->ReplicaCount());
  return n;
}

std::vector<ProvenanceEdge> DistributedEngine::ProvenanceEdges() const {
  std::vector<ProvenanceEdge> out;
  for (NodeRuntime* rt : runtimes_) {
    const ProvenanceStore* store = rt->provenance_store();
    if (store == nullptr) continue;
    std::vector<ProvenanceEdge> edges = store->Edges();
    out.insert(out.end(), edges.begin(), edges.end());
  }
  return out;
}

// --- multi-tenant engine ----------------------------------------------------

Status MultiTenantEngine::AddProgram(const std::string& tenant,
                                     const Program& program) {
  if (engine_ != nullptr) {
    return Status::FailedPrecondition(
        "MultiTenantEngine: AddProgram after Start");
  }
  if (tenant.empty()) {
    return Status::InvalidArgument("MultiTenantEngine: empty tenant name");
  }
  for (const TenantProgram& tp : programs_) {
    if (tp.tenant == tenant) {
      return Status::InvalidArgument(
          StrFormat("MultiTenantEngine: duplicate tenant '%s'",
                    tenant.c_str()));
    }
  }
  TenantProgram tp;
  tp.tenant = tenant;
  tp.program = program;
  programs_.push_back(std::move(tp));
  return Status::OK();
}

Status MultiTenantEngine::Start(Network* network) {
  if (engine_ != nullptr) {
    return Status::FailedPrecondition("MultiTenantEngine: already started");
  }
  BuiltinRegistry registry = options_.registry != nullptr
                                 ? *options_.registry
                                 : BuiltinRegistry::Default();
  DEDUCE_ASSIGN_OR_RETURN(
      multi_, CompileMultiPlan(programs_, registry, options_.planner));
  DEDUCE_ASSIGN_OR_RETURN(
      engine_, DistributedEngine::CreateFromPlan(network, multi_.plan,
                                                 multi_.fanout, options_));
  if (options_.metrics != nullptr) {
    options_.metrics->Add(-1, "tenant", "tenants", programs_.size());
    options_.metrics->Add(-1, "tenant", "subplans_requested",
                          multi_.subplans_requested);
    options_.metrics->Add(-1, "tenant", "subplans_total",
                          multi_.subplans_total);
    options_.metrics->Add(-1, "tenant", "subplans_shared",
                          multi_.subplans_shared);
    uint64_t fanout_edges = 0;
    for (const auto& [canon, fans] : multi_.fanout) {
      (void)canon;
      fanout_edges += fans.size();
    }
    options_.metrics->Add(-1, "tenant", "fanout_edges", fanout_edges);
  }
  return Status::OK();
}

Status MultiTenantEngine::Inject(NodeId node, StreamOp op, const Fact& fact) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("MultiTenantEngine: not started");
  }
  return engine_->Inject(node, op, fact);
}

void MultiTenantEngine::Run() { engine_->Run(); }

const TenantView* MultiTenantEngine::FindView(
    const std::string& tenant) const {
  for (const TenantView& v : multi_.views) {
    if (v.tenant == tenant) return &v;
  }
  return nullptr;
}

StatusOr<std::vector<Fact>> MultiTenantEngine::ResultFacts(
    const std::string& tenant, SymbolId pred) const {
  const TenantView* view = FindView(tenant);
  if (view == nullptr) {
    return StatusOr<std::vector<Fact>>(Status::NotFound(
        StrFormat("MultiTenantEngine: unknown tenant '%s'", tenant.c_str())));
  }
  auto it = view->read.find(pred);
  if (it == view->read.end()) {
    return StatusOr<std::vector<Fact>>(Status::NotFound(StrFormat(
        "MultiTenantEngine: tenant '%s' has no predicate '%s'",
        tenant.c_str(), SymbolName(pred).c_str())));
  }
  std::vector<Fact> facts = engine_->ResultFacts(it->second);
  if (it->second != pred) {
    // Non-strict collision rename: relabel back to the tenant's own name.
    for (Fact& f : facts) f = Fact(pred, f.args());
  }
  return facts;
}

StatusOr<Database> MultiTenantEngine::ResultDatabase(
    const std::string& tenant) const {
  const TenantView* view = FindView(tenant);
  if (view == nullptr) {
    return StatusOr<Database>(Status::NotFound(
        StrFormat("MultiTenantEngine: unknown tenant '%s'", tenant.c_str())));
  }
  Database db;
  for (SymbolId pred : view->derived) {
    DEDUCE_ASSIGN_OR_RETURN(std::vector<Fact> facts,
                            ResultFacts(tenant, pred));
    for (const Fact& f : facts) db.Insert(f);
  }
  return db;
}

StatusOr<Database> MultiTenantEngine::UndegradedResultDatabase(
    const std::string& tenant) const {
  const TenantView* view = FindView(tenant);
  if (view == nullptr) {
    return StatusOr<Database>(Status::NotFound(
        StrFormat("MultiTenantEngine: unknown tenant '%s'", tenant.c_str())));
  }
  Database db;
  const Network* net = engine_->network();
  for (SymbolId pred : view->derived) {
    SymbolId eval = view->read.at(pred);
    for (int i = 0; i < net->node_count(); ++i) {
      for (const Fact& f : engine_->runtime(i).UndegradedHomeFacts(eval)) {
        db.InsertAs(f, pred);
      }
    }
  }
  return db;
}

// --- centralized baseline ---------------------------------------------------

class CentralizedEngine::ForwarderApp : public NodeApp {
 public:
  ForwarderApp(CentralizedEngine* owner, NodeId id) : owner_(owner), id_(id) {}

  void OnMessage(NodeContext* ctx, const Message& msg) override {
    StatusOr<StoreWire> store = StoreWire::Decode(msg);
    if (!store.ok()) {
      owner_->errors_.push_back("bad message: " + store.status().message());
      return;
    }
    if (store->final_target != id_) {
      NodeId next = owner_->routing_->NextHop(id_, store->final_target);
      if (next == kNoNode) {
        owner_->errors_.push_back(
            StrFormat("no route to sink from %d", id_));
        return;
      }
      ctx->Send(next, msg);
      return;
    }
    // At the sink: apply to the incremental engine in arrival order.
    StreamEvent ev;
    ev.op = store->deletion ? StreamOp::kDelete : StreamOp::kInsert;
    ev.fact = store->fact;
    ev.id = store->id;
    ev.time = ctx->LocalTime();
    Status st = owner_->sink_engine_->Apply(ev, nullptr);
    if (!st.ok()) owner_->errors_.push_back(st.ToString());
  }

 private:
  CentralizedEngine* owner_;
  NodeId id_;
};

StatusOr<std::unique_ptr<CentralizedEngine>> CentralizedEngine::Create(
    Network* network, const Program& program, NodeId sink,
    const IncrementalOptions& options) {
  auto engine = std::unique_ptr<CentralizedEngine>(new CentralizedEngine());
  engine->network_ = network;
  engine->sink_ = sink;
  engine->routing_ = std::make_shared<RoutingTable>(&network->topology());
  DEDUCE_ASSIGN_OR_RETURN(engine->sink_engine_,
                          IncrementalEngine::Create(program, options));
  for (int i = 0; i < network->node_count(); ++i) {
    network->SetApp(i, std::make_unique<ForwarderApp>(engine.get(), i));
  }
  network->Start();
  return engine;
}

Status CentralizedEngine::Inject(NodeId node, StreamOp op, const Fact& fact) {
  NodeContext& ctx = network_->context(node);
  StoreWire store;
  store.final_target = sink_;
  store.pred = fact.predicate();
  store.fact = fact;
  store.id = TupleId{node, ctx.LocalTime(), seq_++};
  store.gen_ts = ctx.LocalTime();
  store.deletion = op == StreamOp::kDelete;
  store.del_ts = ctx.LocalTime();
  if (node == sink_) {
    // Local sensing at the sink: apply directly.
    StreamEvent ev;
    ev.op = op;
    ev.fact = fact;
    ev.id = store.id;
    ev.time = ctx.LocalTime();
    return sink_engine_->Apply(ev, nullptr);
  }
  NodeId next = routing_->NextHop(node, sink_);
  if (next == kNoNode) {
    return Status::FailedPrecondition("sink unreachable");
  }
  ctx.Send(next, store.Encode());
  return Status::OK();
}

std::vector<Fact> CentralizedEngine::ResultFacts(SymbolId pred) const {
  return sink_engine_->AliveFacts(pred);
}

}  // namespace deduce

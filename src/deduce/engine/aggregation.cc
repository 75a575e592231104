#include "deduce/engine/aggregation.h"

#include <algorithm>
#include <memory>

#include "deduce/eval/monoid.h"
#include "deduce/net/codec.h"

namespace deduce {

namespace {

constexpr uint16_t kPartialMsg = 200;

/// Partial state record (TAG): enough to merge any of the supported
/// aggregates.
struct PartialState {
  double sum = 0;
  int64_t count = 0;
  double min = 0;
  double max = 0;
  bool has_value = false;

  void Add(double v) {
    if (!has_value) {
      min = max = v;
      has_value = true;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    sum += v;
    ++count;
  }
  void Merge(const PartialState& o) {
    if (!o.has_value) return;
    if (!has_value) {
      *this = o;
      return;
    }
    sum += o.sum;
    count += o.count;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  /// Extraction delegates to the shared aggregate monoid (eval/monoid.h);
  /// the TAG record is its double-specialized instance, carrying both
  /// extrema so one wire format serves every kind.
  double Final(AggKind kind) const {
    if (!has_value) return 0;
    AggState s;
    s.count = count;
    s.sum = sum;
    s.sum_is_int = false;
    s.best = Term::Real(kind == AggKind::kMin ? min : max);
    return AggExtract(kind, s).value().AsNumber();
  }
};

struct Shared {
  TagAggregation::Options options;
  SinkTree tree;
  int max_depth = 0;
  std::function<std::optional<double>(NodeId, int)> reader;
  std::map<int, PartialState> root_results;
};

class TagApp : public NodeApp {
 public:
  TagApp(std::shared_ptr<Shared> shared, NodeId id)
      : shared_(std::move(shared)), id_(id) {}

  void Start(NodeContext* ctx) override {
    for (int e = 0; e < shared_->options.epochs; ++e) {
      ctx->SetTimer(SendTime(e), [this, ctx, e] { Report(ctx, e); });
    }
  }

  void OnMessage(NodeContext* ctx, const Message& msg) override {
    (void)ctx;
    if (msg.type != kPartialMsg) return;
    PayloadReader r(msg.payload);
    auto epoch = r.ReadInt();
    auto sum = r.ReadDouble();
    auto count = r.ReadInt();
    auto mn = r.ReadDouble();
    auto mx = r.ReadDouble();
    if (!epoch.ok() || !sum.ok() || !count.ok() || !mn.ok() || !mx.ok()) {
      return;
    }
    PartialState p;
    p.sum = *sum;
    p.count = *count;
    p.min = *mn;
    p.max = *mx;
    p.has_value = *count > 0;
    pending_[static_cast<int>(*epoch)].Merge(p);
  }

 private:
  /// The epoch's slot fired: fold in the local reading and push one
  /// partial upward.
  void Report(NodeContext* ctx, int epoch) {
    PartialState& state = pending_[epoch];
    std::optional<double> reading = shared_->reader(id_, epoch);
    if (reading.has_value()) state.Add(*reading);

    if (id_ == shared_->tree.root) {
      shared_->root_results[epoch] = state;
      return;
    }
    PayloadWriter w;
    w.WriteInt(epoch);
    w.WriteDouble(state.sum);
    w.WriteInt(state.count);
    w.WriteDouble(state.min);
    w.WriteDouble(state.max);
    Message m;
    m.type = kPartialMsg;
    m.payload = w.Take();
    ctx->Send(shared_->tree.parent[static_cast<size_t>(id_)], m);
  }

  /// Depth-slotted schedule: deeper nodes report earlier in the epoch.
  SimTime SendTime(int epoch) const {
    int depth = shared_->tree.depth[static_cast<size_t>(id_)];
    SimTime slot = shared_->options.epoch /
                   static_cast<SimTime>(shared_->max_depth + 2);
    return static_cast<SimTime>(epoch) * shared_->options.epoch +
           static_cast<SimTime>(shared_->max_depth - depth + 1) * slot;
  }

  std::shared_ptr<Shared> shared_;
  NodeId id_;
  std::map<int, PartialState> pending_;
};

}  // namespace

std::vector<TagAggregation::EpochResult> TagAggregation::Run(
    Network* network, const Options& options,
    const std::function<std::optional<double>(NodeId, int)>& reader) {
  auto shared = std::make_shared<Shared>();
  shared->options = options;
  shared->tree = SinkTree::Build(network->topology(), options.root);
  for (int d : shared->tree.depth) shared->max_depth = std::max(shared->max_depth, d);
  shared->reader = reader;

  for (int i = 0; i < network->node_count(); ++i) {
    network->SetApp(i, std::make_unique<TagApp>(shared, i));
  }
  network->Start();
  network->sim().Run();

  std::vector<EpochResult> out;
  for (const auto& [epoch, state] : shared->root_results) {
    EpochResult r;
    r.epoch = epoch;
    r.value = state.Final(options.kind);
    r.count = state.count;
    out.push_back(r);
  }
  return out;
}

}  // namespace deduce

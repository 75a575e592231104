#include "deduce/net/network.h"

#include <algorithm>

#include "deduce/common/logging.h"
#include "deduce/common/metrics.h"

namespace deduce {

uint64_t NetworkStats::TotalMessages() const {
  uint64_t n = 0;
  for (const PerNode& p : per_node) n += p.sent_messages;
  return n;
}

uint64_t NetworkStats::TotalBytes() const {
  uint64_t n = 0;
  for (const PerNode& p : per_node) n += p.sent_bytes;
  return n;
}

uint64_t NetworkStats::MaxNodeMessages() const {
  uint64_t n = 0;
  for (const PerNode& p : per_node) {
    n = std::max(n, p.sent_messages + p.received_messages);
  }
  return n;
}

double NetworkStats::TotalEnergyMicroJ() const {
  // CC2420-ish at 3V, 250kbps: tx ~0.6 uJ/byte, rx ~0.67 uJ/byte.
  constexpr double kTxPerByte = 0.60;
  constexpr double kRxPerByte = 0.67;
  double e = 0;
  for (const PerNode& p : per_node) {
    e += kTxPerByte * static_cast<double>(p.sent_bytes) +
         kRxPerByte * static_cast<double>(p.received_bytes);
  }
  return e;
}

void NetworkStats::ExportTo(MetricsRegistry* registry) const {
  if (registry == nullptr || !registry->enabled()) return;
  for (size_t i = 0; i < per_node.size(); ++i) {
    const PerNode& p = per_node[i];
    int node = static_cast<int>(i);
    registry->Add(node, "net", "sent_messages", p.sent_messages);
    registry->Add(node, "net", "sent_bytes", p.sent_bytes);
    registry->Add(node, "net", "received_messages", p.received_messages);
    registry->Add(node, "net", "received_bytes", p.received_bytes);
    registry->Add(node, "net", "dropped_messages", p.dropped_messages);
  }
  registry->Add(-1, "net", "mac_ack_failures", mac_ack_failures);
  registry->Add(-1, "net", "nodes_failed", nodes_failed);
  registry->Add(-1, "net", "nodes_recovered", nodes_recovered);
  registry->Add(-1, "net", "frames_coalesced", frames_coalesced);
  registry->Add(-1, "chaos", "links_cut", links_cut);
  registry->Add(-1, "chaos", "corrupted_delivered", corrupted_delivered);
  registry->Add(-1, "chaos", "duplicated", duplicated);
  registry->Add(-1, "chaos", "reordered", reordered);
  registry->Add(-1, "chaos", "deliveries_stalled", deliveries_stalled);
}

const Location& NodeContext::location() const {
  return network_->topology_.location(id_);
}

const std::vector<NodeId>& NodeContext::neighbors() const {
  return network_->topology_.neighbors(id_);
}

const Topology& NodeContext::topology() const { return network_->topology_; }

SimTime NodeContext::LocalTime() const {
  return network_->sim_.now() + network_->skews_[static_cast<size_t>(id_)];
}

bool NodeContext::Send(NodeId to, Message msg) {
  return network_->Deliver(id_, to, std::move(msg));
}

void NodeContext::SetTimer(SimTime delay, Simulator::EventFn fn) {
  Network* net = network_;
  size_t i = static_cast<size_t>(id_);
  // The down node's event is still scheduled, so a run's event count and
  // quiescence time do not depend on what its closure would have done.
  if (net->failed_[i]) {
    net->sim_.ScheduleAfter(delay, [] {});
    return;
  }
  uint64_t inc = net->incarnations_[i];
  net->sim_.ScheduleAfter(delay, [net, i, inc, fn = std::move(fn)]() mutable {
    if (net->failed_[i] || net->incarnations_[i] != inc) return;
    fn();
  });
}

Rng& NodeContext::rng() {
  return *network_->node_rngs_[static_cast<size_t>(id_)];
}

Network::Network(Topology topology, LinkModel link, uint64_t seed)
    : topology_(std::move(topology)), link_(link), rng_(seed) {
  int n = topology_.node_count();
  apps_.resize(static_cast<size_t>(n));
  contexts_.reserve(static_cast<size_t>(n));
  node_rngs_.reserve(static_cast<size_t>(n));
  skews_.reserve(static_cast<size_t>(n));
  failed_.assign(static_cast<size_t>(n), false);
  incarnations_.assign(static_cast<size_t>(n), 0);
  stall_.assign(static_cast<size_t>(n), 0);
  stats_.per_node.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    contexts_.push_back(std::make_unique<NodeContext>(this, i));
    node_rngs_.push_back(std::make_unique<Rng>(rng_.Fork()));
    skews_.push_back(link_.max_clock_skew > 0
                         ? rng_.Uniform(0, link_.max_clock_skew)
                         : 0);
  }
}

void Network::SetApp(NodeId id, std::unique_ptr<NodeApp> app) {
  apps_[static_cast<size_t>(id)] = std::move(app);
}

void Network::Start() {
  for (int i = 0; i < node_count(); ++i) {
    DEDUCE_CHECK(apps_[static_cast<size_t>(i)] != nullptr)
        << "node " << i << " has no app";
    NodeId id = i;
    sim_.ScheduleAt(sim_.now(), [this, id]() {
      if (failed_[static_cast<size_t>(id)]) return;
      apps_[static_cast<size_t>(id)]->Start(
          contexts_[static_cast<size_t>(id)].get());
    });
  }
}

void Network::FailNode(NodeId id) {
  if (failed_[static_cast<size_t>(id)]) return;
  failed_[static_cast<size_t>(id)] = true;
  ++incarnations_[static_cast<size_t>(id)];
  ++stats_.nodes_failed;
}

void Network::RecoverNode(NodeId id) {
  if (!failed_[static_cast<size_t>(id)]) return;
  failed_[static_cast<size_t>(id)] = false;
  ++stats_.nodes_recovered;
  apps_[static_cast<size_t>(id)]->OnRestart(
      contexts_[static_cast<size_t>(id)].get());
}

void Network::ApplyFaultPlan(const FaultPlan& plan) {
  for (const FaultEvent& ev : plan.events) {
    sim_.ScheduleAt(ev.time, [this, ev]() {
      switch (ev.kind) {
        case FaultEvent::Kind::kFail:
          FailNode(ev.node);
          break;
        case FaultEvent::Kind::kRecover:
          RecoverNode(ev.node);
          break;
        case FaultEvent::Kind::kAddLinkFault:
          AddLinkFault(ev.rule);
          break;
        case FaultEvent::Kind::kHealLinks:
          HealLinks(ev.rule.src, ev.rule.dst);
          break;
        case FaultEvent::Kind::kSlowNode:
          SetNodeStall(ev.node, ev.magnitude);
          break;
        case FaultEvent::Kind::kMemSqueeze:
        case FaultEvent::Kind::kInjectStorm:
          // Not network-level faults: the engine (budget squeeze) and the
          // scenario harness (storm expansion) own these. Hooks let them
          // observe the firing without the network knowing their types.
          for (const auto& hook : fault_hooks_) hook(ev);
          break;
      }
    });
  }
}

void Network::SetNodeStall(NodeId id, SimTime stall) {
  stall_[static_cast<size_t>(id)] = stall < 0 ? 0 : stall;
}

void Network::AddLinkFault(LinkFaultRule rule) {
  link_faults_.push_back(std::move(rule));
}

void Network::HealLinks(const std::vector<NodeId>& src,
                        const std::vector<NodeId>& dst) {
  link_faults_.erase(
      std::remove_if(link_faults_.begin(), link_faults_.end(),
                     [&](const LinkFaultRule& r) {
                       return r.src == src && r.dst == dst;
                     }),
      link_faults_.end());
}

namespace {

bool InSet(const std::vector<NodeId>& set, NodeId n) {
  return set.empty() || std::find(set.begin(), set.end(), n) != set.end();
}

FaultEvent LinkFaultEvent(SimTime time, FaultEvent::Kind kind,
                          LinkFaultRule rule) {
  FaultEvent ev;
  ev.time = time;
  ev.kind = kind;
  ev.rule = std::move(rule);
  return ev;
}

}  // namespace

const LinkFaultRule* Network::MatchLinkFault(LinkFaultRule::Kind kind,
                                             NodeId from, NodeId to) {
  for (const LinkFaultRule& r : link_faults_) {
    if (r.kind != kind || !InSet(r.src, from) || !InSet(r.dst, to)) continue;
    if (r.rate >= 1.0 || rng_.Bernoulli(r.rate)) return &r;
  }
  return nullptr;
}

FaultPlan& FaultPlan::CutLinks(SimTime time, std::vector<NodeId> src,
                               std::vector<NodeId> dst) {
  LinkFaultRule r;
  r.kind = LinkFaultRule::Kind::kCut;
  r.src = std::move(src);
  r.dst = std::move(dst);
  events.push_back(
      LinkFaultEvent(time, FaultEvent::Kind::kAddLinkFault, std::move(r)));
  return *this;
}

FaultPlan& FaultPlan::HealLinks(SimTime time, std::vector<NodeId> src,
                                std::vector<NodeId> dst) {
  LinkFaultRule r;
  r.src = std::move(src);
  r.dst = std::move(dst);
  events.push_back(
      LinkFaultEvent(time, FaultEvent::Kind::kHealLinks, std::move(r)));
  return *this;
}

FaultPlan& FaultPlan::CorruptLinks(SimTime time, std::vector<NodeId> src,
                                   std::vector<NodeId> dst, double rate) {
  LinkFaultRule r;
  r.kind = LinkFaultRule::Kind::kCorrupt;
  r.src = std::move(src);
  r.dst = std::move(dst);
  r.rate = rate;
  events.push_back(
      LinkFaultEvent(time, FaultEvent::Kind::kAddLinkFault, std::move(r)));
  return *this;
}

FaultPlan& FaultPlan::DuplicateLinks(SimTime time, std::vector<NodeId> src,
                                     std::vector<NodeId> dst, double rate) {
  LinkFaultRule r;
  r.kind = LinkFaultRule::Kind::kDuplicate;
  r.src = std::move(src);
  r.dst = std::move(dst);
  r.rate = rate;
  events.push_back(
      LinkFaultEvent(time, FaultEvent::Kind::kAddLinkFault, std::move(r)));
  return *this;
}

FaultPlan& FaultPlan::DelayLinks(SimTime time, std::vector<NodeId> src,
                                 std::vector<NodeId> dst, double rate,
                                 SimTime extra_delay) {
  LinkFaultRule r;
  r.kind = LinkFaultRule::Kind::kDelay;
  r.src = std::move(src);
  r.dst = std::move(dst);
  r.rate = rate;
  r.extra_delay = extra_delay;
  events.push_back(
      LinkFaultEvent(time, FaultEvent::Kind::kAddLinkFault, std::move(r)));
  return *this;
}

FaultPlan FaultPlan::Churn(const std::vector<NodeId>& nodes,
                           SimTime first_fail, SimTime downtime,
                           SimTime stagger) {
  FaultPlan plan;
  SimTime t = first_fail;
  for (NodeId n : nodes) {
    plan.Fail(t, n);
    if (downtime >= 0) plan.Recover(t + downtime, n);
    t += stagger;
  }
  return plan;
}

FaultPlan& FaultPlan::SlowNode(SimTime time, NodeId node, SimTime stall) {
  FaultEvent ev;
  ev.time = time;
  ev.node = node;
  ev.kind = FaultEvent::Kind::kSlowNode;
  ev.magnitude = stall;
  events.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::MemSqueeze(SimTime time, double factor) {
  FaultEvent ev;
  ev.time = time;
  ev.kind = FaultEvent::Kind::kMemSqueeze;
  // Stored as an integer percentage so fault plans stay exactly
  // serializable in the scenario text format.
  ev.magnitude = static_cast<int64_t>(factor * 100.0 + 0.5);
  events.push_back(std::move(ev));
  return *this;
}

FaultPlan& FaultPlan::InjectStorm(SimTime time, NodeId node,
                                  const std::string& pred, int64_t count) {
  FaultEvent ev;
  ev.time = time;
  ev.node = node;
  ev.kind = FaultEvent::Kind::kInjectStorm;
  ev.magnitude = count;
  ev.arg = pred;
  events.push_back(std::move(ev));
  return *this;
}

FaultPlan FaultPlan::RebootStorm(const std::vector<NodeId>& nodes,
                                 SimTime first_fail, SimTime downtime,
                                 SimTime stagger, int waves,
                                 SimTime wave_gap) {
  FaultPlan plan;
  for (int w = 0; w < waves; ++w) {
    FaultPlan wave = Churn(nodes, first_fail + wave_gap * w, downtime,
                           stagger);
    plan.events.insert(plan.events.end(), wave.events.begin(),
                       wave.events.end());
  }
  return plan;
}

bool Network::Deliver(NodeId from, NodeId to, Message msg) {
  DEDUCE_CHECK(topology_.AreNeighbors(from, to))
      << "node " << from << " cannot reach non-neighbor " << to;
  if (failed_[static_cast<size_t>(from)]) return false;
  msg.src = from;
  msg.dst = to;
  size_t bytes = msg.WireSize();

  auto& sender = stats_.per_node[static_cast<size_t>(from)];
  ++stats_.sent_by_type[msg.type];

  // Simplified link-layer ARQ: up to 1 + retries attempts, each an
  // independent loss trial and a real transmission (counted and paid for).
  // A dead receiver never acks, so the sender burns every attempt. A cut
  // link looks exactly like a dead receiver to the sender.
  bool receiver_up = !failed_[static_cast<size_t>(to)];
  if (!link_faults_.empty() &&
      MatchLinkFault(LinkFaultRule::Kind::kCut, from, to) != nullptr) {
    receiver_up = false;
    ++stats_.links_cut;
  }
  int attempts = 0;
  bool delivered = false;
  for (int a = 0; a <= link_.retries; ++a) {
    ++attempts;
    if (!(link_.loss_rate > 0 && rng_.Bernoulli(link_.loss_rate)) &&
        receiver_up) {
      delivered = true;
      break;
    }
  }
  sender.sent_messages += static_cast<uint64_t>(attempts);
  sender.sent_bytes += bytes * static_cast<uint64_t>(attempts);
  if (!traces_.empty()) {
    TraceEvent ev;
    ev.time = sim_.now();
    ev.src = from;
    ev.dst = to;
    ev.type = msg.type;
    ev.bytes = bytes;
    ev.attempts = attempts;
    ev.delivered = delivered;
    ev.msg = &msg;
    for (const auto& sink : traces_) sink(ev);
  }
  if (!delivered) {
    ++sender.dropped_messages;
    ++stats_.mac_ack_failures;
    return false;
  }
  SimTime per_attempt =
      link_.base_delay +
      (link_.jitter > 0 ? rng_.Uniform(0, link_.jitter) : 0) +
      link_.per_byte_delay * static_cast<SimTime>(bytes);
  SimTime delay = per_attempt * static_cast<SimTime>(attempts);
  bool duplicate = false;
  if (!link_faults_.empty()) {
    // In-flight corruption: flip 1-3 payload bytes. The receiver still
    // pays for the reception; whether it detects the damage is up to the
    // engine's decoders (see EngineStats::decode_errors).
    if (!msg.payload.empty() &&
        MatchLinkFault(LinkFaultRule::Kind::kCorrupt, from, to) != nullptr) {
      int flips = static_cast<int>(rng_.Uniform(1, 3));
      for (int i = 0; i < flips; ++i) {
        size_t pos = static_cast<size_t>(rng_.Uniform(
            0, static_cast<int64_t>(msg.payload.size()) - 1));
        msg.payload[pos] ^= static_cast<uint8_t>(rng_.Uniform(1, 255));
      }
      ++stats_.corrupted_delivered;
    }
    if (MatchLinkFault(LinkFaultRule::Kind::kDuplicate, from, to) !=
        nullptr) {
      duplicate = true;
      ++stats_.duplicated;
    }
    const LinkFaultRule* slow =
        MatchLinkFault(LinkFaultRule::Kind::kDelay, from, to);
    if (slow != nullptr && slow->extra_delay > 0) {
      delay += rng_.Uniform(0, slow->extra_delay);
      ++stats_.reordered;
    }
  }
  // Straggler receiver (SlowNode): its radio queue drains late. A fixed
  // stall, no RNG draw — runs without stalls stay bit-identical.
  if (stall_[static_cast<size_t>(to)] > 0) {
    delay += stall_[static_cast<size_t>(to)];
    ++stats_.deliveries_stalled;
  }
  if (batched_delivery_) {
    SimTime at = sim_.now() + delay;
    // A duplicated frame arrives a further hop-delay later — a different
    // tick, so it lands in its own batch, with its own copy.
    ScheduleBatched(from, to, at, bytes, duplicate ? msg : std::move(msg));
    if (duplicate) {
      ScheduleBatched(from, to, at + per_attempt, bytes, std::move(msg));
    }
    return true;
  }
  auto shared = std::make_shared<Message>(std::move(msg));
  auto deliver = [this, to, bytes, shared]() {
    if (failed_[static_cast<size_t>(to)]) return;
    auto& receiver = stats_.per_node[static_cast<size_t>(to)];
    ++receiver.received_messages;
    receiver.received_bytes += bytes;
    apps_[static_cast<size_t>(to)]->OnMessage(
        contexts_[static_cast<size_t>(to)].get(), *shared);
  };
  sim_.ScheduleAfter(delay, deliver);
  // A duplicated frame arrives a further hop-delay later: enough to land
  // behind other traffic and exercise receiver-side dedup.
  if (duplicate) sim_.ScheduleAfter(delay + per_attempt, deliver);
  return true;
}

void Network::ScheduleBatched(NodeId from, NodeId to, SimTime at,
                              size_t bytes, Message msg) {
  BatchKey key{at, from, to};
  auto it = pending_batches_.find(key);
  if (it != pending_batches_.end()) {
    // An event for this edge+tick is already in the calendar queue; ride it.
    it->second.push_back(PendingFrame{bytes, std::move(msg)});
    ++stats_.frames_coalesced;
    return;
  }
  // Not a braced list: that would copy the frame out of it.
  std::vector<PendingFrame> frames;
  frames.push_back(PendingFrame{bytes, std::move(msg)});
  pending_batches_.emplace(key, std::move(frames));
  sim_.ScheduleAt(at, [this, key]() {
    auto node = pending_batches_.extract(key);
    if (node.empty()) return;
    size_t dst = static_cast<size_t>(key.to);
    for (const PendingFrame& f : node.mapped()) {
      if (failed_[dst]) return;
      auto& receiver = stats_.per_node[dst];
      ++receiver.received_messages;
      receiver.received_bytes += f.bytes;
      apps_[dst]->OnMessage(contexts_[dst].get(), f.msg);
    }
  });
}

}  // namespace deduce

#include "deduce/engine/repair.h"

#include <algorithm>
#include <set>
#include <utility>

#include "deduce/common/hash.h"
#include "deduce/engine/runtime.h"

namespace deduce {

namespace {

/// Order-independent replica fingerprint: mixed so that XOR over a set is
/// sensitive to every TupleId field and to the insert/deletion-mark state.
/// Under the retraction protocol tombstones are additionally numbered by
/// their deletion timestamp (`del_ts`, 0 when absent or when
/// `number_tombstones` is off): two replicas that both carry a mark but
/// disagree on its generation then hash apart, so anti-entropy converges
/// the marks instead of treating the stores as already equal. Gated on the
/// engine-level flag — both ends of an exchange share it, so digests stay
/// comparable without a wire-format change.
uint64_t ReplicaFingerprint(const TupleId& id, bool have_insert,
                            bool has_del, Timestamp del_ts,
                            bool number_tombstones) {
  uint64_t h = Mix64(static_cast<uint64_t>(static_cast<uint32_t>(id.source)));
  h = Mix64(h ^ static_cast<uint64_t>(id.timestamp));
  h = Mix64(h ^ id.seq);
  uint64_t flags = (have_insert ? 1u : 0u) | (has_del ? 2u : 0u);
  uint64_t out = Mix64(h ^ flags);
  if (number_tombstones && has_del) {
    out = Mix64(out ^ static_cast<uint64_t>(del_ts));
  }
  return out;
}

}  // namespace

const RepairOptions& RepairManager::opts() const {
  return rt_->shared_->repair;
}

bool RepairManager::SharedReplica(SymbolId pred, NodeId source, NodeId a,
                                  NodeId b) const {
  auto it = rt_->shared_->plan.preds.find(pred);
  if (it == rt_->shared_->plan.preds.end()) return false;
  const PredicatePlan& pp = it->second;
  const RegionMapper& regions = *rt_->shared_->regions;
  switch (pp.storage) {
    case StoragePolicy::kBroadcast:
      return true;
    case StoragePolicy::kRow: {
      int band = regions.BandOf(source);
      return regions.BandOf(a) == band && regions.BandOf(b) == band;
    }
    case StoragePolicy::kSpatial: {
      const RoutingTable& routing = *rt_->shared_->routing;
      int ra = routing.HopDistance(source, a);
      int rb = routing.HopDistance(source, b);
      return ra >= 0 && ra <= pp.spatial_radius && rb >= 0 &&
             rb <= pp.spatial_radius;
    }
    case StoragePolicy::kLocal:
    case StoragePolicy::kCentroid:
      // Single-holder policies: no peer redundancy to repair from.
      return false;
  }
  return false;
}

bool RepairManager::WithinLifetime(SymbolId pred, Timestamp gen_ts,
                                   Timestamp now) const {
  Timestamp window = rt_->shared_->plan.pred_plan(pred).window;
  if (window == kNoWindow) return true;
  return gen_ts + window + rt_->shared_->timing.ExpirySlack() > now;
}

template <typename Fn>
void RepairManager::ForEachShared(SymbolId pred, NodeId other, Timestamp now,
                                  Fn&& fn) const {
  auto it = rt_->replicas_.find(pred);
  if (it == rt_->replicas_.end()) return;
  for (const auto& [id, rep] : it->second) {
    if (!SharedReplica(pred, id.source, rt_->id_, other)) continue;
    if (rep.have_insert && !WithinLifetime(pred, rep.gen_ts, now)) continue;
    fn(id, rep);
  }
}

std::vector<PredDigest> RepairManager::ComputeDigests(NodeId other,
                                                      Timestamp now) const {
  std::vector<SymbolId> preds;
  for (const auto& [pred, reps] : rt_->replicas_) {
    if (!reps.empty()) preds.push_back(pred);
  }
  std::sort(preds.begin(), preds.end());
  std::vector<PredDigest> out;
  for (SymbolId pred : preds) {
    PredDigest d;
    d.pred = pred;
    ForEachShared(pred, other, now, [&](const TupleId& id,
                                        const Replica& rep) {
      ++d.count;
      d.fingerprint ^= ReplicaFingerprint(
          id, rep.have_insert, rep.del_ts.has_value(),
          rep.del_ts.value_or(0), rt_->retraction_on());
    });
    if (d.count > 0) out.push_back(d);
  }
  return out;
}

std::vector<RepairPullWire::Known> RepairManager::BuildKnown(
    const std::vector<SymbolId>& preds, NodeId other, Timestamp now) const {
  std::vector<RepairPullWire::Known> out;
  for (SymbolId pred : preds) {
    ForEachShared(pred, other, now, [&](const TupleId& id,
                                        const Replica& rep) {
      RepairPullWire::Known k;
      k.pred = pred;
      k.id = id;
      k.have_insert = rep.have_insert;
      k.has_del = rep.del_ts.has_value();
      out.push_back(k);
    });
  }
  return out;
}

NodeId RepairManager::PickResyncPeer() const {
  const LivenessView& live = rt_->shared_->liveness;
  for (NodeId v : rt_->shared_->regions->BandPeers(rt_->id_)) {
    if (!live.IsDown(v)) return v;
  }
  return kNoNode;
}

std::vector<NodeId> RepairManager::AdjacentBandPeers() const {
  const std::vector<NodeId>& band =
      rt_->shared_->regions->HorizontalPath(rt_->id_);
  std::vector<NodeId> out;
  size_t mine = 0;
  while (mine < band.size() && band[mine] != rt_->id_) ++mine;
  if (mine >= band.size()) return out;
  const LivenessView& live = rt_->shared_->liveness;
  for (size_t i = mine; i-- > 0;) {
    if (!live.IsDown(band[i])) {
      out.push_back(band[i]);
      break;
    }
  }
  for (size_t i = mine + 1; i < band.size(); ++i) {
    if (!live.IsDown(band[i])) {
      out.push_back(band[i]);
      break;
    }
  }
  return out;
}

SimTime RepairManager::ResyncTimeout(NodeId peer) const {
  if (opts().resync_timeout > 0) return opts().resync_timeout;
  // Worst case is the full three-leg exchange with replies near the
  // message-size cap; 4x the transport's round-trip bound covers it.
  NodeId target = peer == kNoNode ? rt_->id_ : peer;
  return 4 * rt_->RtoFor(target, 2048);
}

void RepairManager::OnRestart(NodeContext* ctx) {
  // In-flight exchanges died with the incarnation (their timers too).
  active_.clear();
  ae_armed_ = false;
  activity_ = 0;
  consumed_ = 0;
  if (!opts().enabled) return;
  degraded_ = true;
  resync_attempts_ = 0;
  resync_began_ = ctx->LocalTime();
  ++rt_->shared_->stats.resyncs_started;
  if (rt_->shared_->metrics != nullptr) {
    rt_->shared_->metrics->Add(rt_->id_, "repair", "resyncs_started");
  }
  StartResync(ctx);
}

void RepairManager::StartResync(NodeContext* ctx) {
  if (!degraded_) return;
  if (resync_attempts_ >= opts().max_resync_attempts) {
    AbandonResync();
    return;
  }
  ++resync_attempts_;
  NodeId peer = PickResyncPeer();
  if (peer == kNoNode) {
    // Nobody in the band looks alive right now; burn the attempt and retry
    // after a timeout (suspicions may clear in the meantime).
    ctx->SetTimer(ResyncTimeout(kNoNode), [this, ctx] { StartResync(ctx); });
    return;
  }
  StartExchange(ctx, peer, /*resync=*/true);
}

void RepairManager::AbandonResync() {
  if (!degraded_) return;
  degraded_ = false;
  ++rt_->shared_->stats.resyncs_abandoned;
  if (rt_->shared_->metrics != nullptr) {
    rt_->shared_->metrics->Add(rt_->id_, "repair", "resyncs_abandoned");
  }
}

void RepairManager::StartExchange(NodeContext* ctx, NodeId peer, bool resync) {
  uint32_t round = ++round_;
  Exchange ex;
  ex.peer = peer;
  ex.resync = resync;
  ex.started = ctx->LocalTime();
  active_[round] = ex;
  ++rt_->shared_->stats.repair_digest_rounds;
  if (rt_->shared_->metrics != nullptr) {
    rt_->shared_->metrics->Add(rt_->id_, "repair", "digest_rounds");
  }
  DigestRequestWire req;
  req.final_target = peer;
  req.requester = rt_->id_;
  req.round = round;
  req.anti_entropy = !resync;
  rt_->SendEngineMessage(ctx, peer, req.Encode());
  if (resync) {
    ctx->SetTimer(ResyncTimeout(peer), [this, ctx, round] {
      if (active_.erase(round) > 0) StartResync(ctx);
    });
  } else {
    // Anti-entropy rounds are best-effort; drop the bookkeeping after two
    // periods so a lost reply cannot leak exchange state forever.
    ctx->SetTimer(2 * opts().anti_entropy_period,
                  [this, round] { active_.erase(round); });
  }
}

void RepairManager::FinishExchange(NodeContext* ctx, uint32_t round) {
  auto it = active_.find(round);
  if (it == active_.end()) return;
  bool resync = it->second.resync;
  active_.erase(it);
  if (!resync || !degraded_) return;
  degraded_ = false;
  EngineStats& st = rt_->shared_->stats;
  ++st.resyncs_completed;
  uint64_t duration =
      static_cast<uint64_t>(ctx->LocalTime() - resync_began_);
  st.resync_time_us += duration;
  if (rt_->shared_->metrics != nullptr) {
    rt_->shared_->metrics->Add(rt_->id_, "repair", "resyncs_completed");
    rt_->shared_->metrics->Observe(rt_->id_, "repair", "resync_us",
                                   static_cast<double>(duration));
  }
}

void RepairManager::OnReplicaActivity(NodeContext* ctx) {
  ++activity_;
  if (opts().anti_entropy_period <= 0 || ae_armed_) return;
  ae_armed_ = true;
  // Deterministic per-node stagger so band neighbors don't fire in
  // lockstep.
  SimTime stagger = static_cast<SimTime>(rt_->id_ % 16) * 1013;
  ctx->SetTimer(opts().anti_entropy_period + stagger,
                [this, ctx] { OnAntiEntropyTimer(ctx); });
}

void RepairManager::OnAntiEntropyTimer(NodeContext* ctx) {
  ae_armed_ = false;
  // No store change since the last round: go quiet (the next replica
  // activity re-arms the timer), letting the simulation quiesce.
  if (consumed_ == activity_) return;
  consumed_ = activity_;
  // Exchange with both adjacent band members: one-sided exchanges strand
  // the far side of the band, hop-by-hop both-ways is what makes a repair
  // propagate across it.
  for (NodeId peer : AdjacentBandPeers()) {
    StartExchange(ctx, peer, /*resync=*/false);
  }
  ae_armed_ = true;
  SimTime stagger = static_cast<SimTime>(rt_->id_ % 16) * 1013;
  ctx->SetTimer(opts().anti_entropy_period + stagger,
                [this, ctx] { OnAntiEntropyTimer(ctx); });
}

void RepairManager::HandleDigestRequest(NodeContext* ctx,
                                        const DigestRequestWire& req) {
  if (req.requester == kNoNode || req.requester == rt_->id_) return;
  ++rt_->shared_->stats.repair_digest_replies;
  if (rt_->shared_->metrics != nullptr) {
    rt_->shared_->metrics->Add(rt_->id_, "repair", "digest_replies");
  }
  DigestReplyWire reply;
  reply.final_target = req.requester;
  reply.replier = rt_->id_;
  reply.round = req.round;
  reply.digests = ComputeDigests(req.requester, ctx->LocalTime());
  rt_->SendEngineMessage(ctx, req.requester, reply.Encode());
}

void RepairManager::HandleDigestReply(NodeContext* ctx,
                                      const DigestReplyWire& reply) {
  auto it = active_.find(reply.round);
  if (it == active_.end() || it->second.peer != reply.replier) return;
  Timestamp now = ctx->LocalTime();
  std::map<SymbolId, std::pair<uint64_t, uint64_t>> mine;
  for (const PredDigest& d : ComputeDigests(reply.replier, now)) {
    mine[d.pred] = {d.count, d.fingerprint};
  }
  std::set<SymbolId> mismatched;
  for (const PredDigest& d : reply.digests) {
    auto m = mine.find(d.pred);
    if (m == mine.end()) {
      if (d.count > 0) mismatched.insert(d.pred);
    } else if (m->second != std::make_pair(d.count, d.fingerprint)) {
      mismatched.insert(d.pred);
    }
    if (m != mine.end()) mine.erase(m);
  }
  // Whatever is left the peer lacks entirely — it must pull from us, which
  // the pull's `known` set lets it discover.
  for (const auto& [pred, digest] : mine) {
    if (digest.first > 0) mismatched.insert(pred);
  }
  if (mismatched.empty()) {
    FinishExchange(ctx, reply.round);
    return;
  }
  RepairPullWire pull;
  pull.final_target = reply.replier;
  pull.requester = rt_->id_;
  pull.round = reply.round;
  pull.reverse = false;
  pull.preds.assign(mismatched.begin(), mismatched.end());
  pull.known = BuildKnown(pull.preds, reply.replier, now);
  rt_->SendEngineMessage(ctx, reply.replier, pull.Encode());
}

void RepairManager::HandleRepairPull(NodeContext* ctx,
                                     const RepairPullWire& pull) {
  if (pull.requester == kNoNode || pull.requester == rt_->id_) return;
  Timestamp now = ctx->LocalTime();
  std::map<std::pair<SymbolId, TupleId>, const RepairPullWire::Known*> known;
  for (const RepairPullWire::Known& k : pull.known) {
    known[{k.pred, k.id}] = &k;
  }
  RepairPushWire push;
  push.final_target = pull.requester;
  push.replier = rt_->id_;
  push.round = pull.round;
  for (SymbolId pred : pull.preds) {
    ForEachShared(pred, pull.requester, now, [&](const TupleId& id,
                                                 const Replica& rep) {
      auto kit = known.find({pred, id});
      const RepairPullWire::Known* k =
          kit == known.end() ? nullptr : kit->second;
      bool missing_insert = rep.have_insert && (k == nullptr || !k->have_insert);
      bool missing_del =
          rep.del_ts.has_value() && (k == nullptr || !k->has_del);
      if (k != nullptr && !missing_insert && !missing_del) return;
      RepairPushWire::Entry e;
      e.pred = pred;
      e.fact = rep.fact;
      e.id = id;
      e.gen_ts = rep.gen_ts;
      e.have_insert = rep.have_insert;
      e.has_del = rep.del_ts.has_value();
      e.del_ts = rep.del_ts.value_or(0);
      push.entries.push_back(std::move(e));
    });
  }
  rt_->shared_->stats.repair_replicas_pushed += push.entries.size();
  if (rt_->shared_->metrics != nullptr && !push.entries.empty()) {
    rt_->shared_->metrics->Add(rt_->id_, "repair", "replicas_pushed",
                               push.entries.size());
  }
  // Always reply, even with nothing to ship: the push completes the
  // requester's round.
  rt_->SendEngineMessage(ctx, pull.requester, push.Encode());

  if (pull.reverse) return;
  // Requester-side surplus: replicas it listed as known that we lack (or
  // hold in a weaker state). Pull them back — flagged reverse, so serving
  // it cannot trigger yet another pull and the exchange terminates.
  bool surplus = false;
  for (const RepairPullWire::Known& k : pull.known) {
    if (!SharedReplica(k.pred, k.id.source, rt_->id_, pull.requester)) {
      continue;
    }
    const Replica* rep = nullptr;
    auto rit = rt_->replicas_.find(k.pred);
    if (rit != rt_->replicas_.end()) rep = rit->second.Find(k.id);
    if (rep == nullptr ? (k.have_insert || k.has_del)
                       : ((k.have_insert && !rep->have_insert) ||
                          (k.has_del && !rep->del_ts.has_value()))) {
      surplus = true;
      break;
    }
  }
  if (!surplus) return;
  RepairPullWire back;
  back.final_target = pull.requester;
  back.requester = rt_->id_;
  back.round = ++round_;  // not registered in active_: push-only round
  back.reverse = true;
  back.preds = pull.preds;
  back.known = BuildKnown(back.preds, pull.requester, now);
  rt_->SendEngineMessage(ctx, pull.requester, back.Encode());
}

void RepairManager::HandleRepairPush(NodeContext* ctx,
                                     const RepairPushWire& push) {
  if (push.replier == kNoNode || push.replier == rt_->id_) return;
  Timestamp now = ctx->LocalTime();
  uint64_t merged = 0;
  for (const RepairPushWire::Entry& e : push.entries) {
    if (rt_->shared_->plan.preds.find(e.pred) ==
        rt_->shared_->plan.preds.end()) {
      continue;
    }
    // Re-check shareability and lifetime on our side: the pusher's view may
    // be stale, and merging an already-expired replica would resurrect it.
    if (!SharedReplica(e.pred, e.id.source, rt_->id_, push.replier)) continue;
    if (e.have_insert && !WithinLifetime(e.pred, e.gen_ts, now)) continue;
    // `cur` is dropped before RecordReplica below inserts: rows move.
    bool need_insert = e.have_insert;
    bool need_del = e.has_del;
    auto rit = rt_->replicas_.find(e.pred);
    if (rit != rt_->replicas_.end()) {
      if (const Replica* cur = rit->second.Find(e.id)) {
        need_insert = need_insert && !cur->have_insert;
        need_del = need_del && !cur->del_ts.has_value();
      }
    }
    if (need_insert) {
      // Route through RecordReplica so the §IV-B expiry timer is re-armed
      // relative to the original generation timestamp.
      StoreWire sw;
      sw.pred = e.pred;
      sw.fact = e.fact;
      sw.id = e.id;
      sw.gen_ts = e.gen_ts;
      sw.deletion = false;
      rt_->RecordReplica(ctx, sw);
      ++merged;
    }
    if (need_del) {
      StoreWire sw;
      sw.pred = e.pred;
      sw.fact = e.fact;
      sw.id = e.id;
      sw.gen_ts = e.gen_ts;
      sw.deletion = true;
      sw.del_ts = e.del_ts;
      rt_->RecordReplica(ctx, sw);
      if (!need_insert) ++merged;
    }
  }
  rt_->shared_->stats.repair_replicas_pulled += merged;
  if (rt_->shared_->metrics != nullptr && merged > 0) {
    rt_->shared_->metrics->Add(rt_->id_, "repair", "replicas_pulled", merged);
  }
  auto it = active_.find(push.round);
  if (it != active_.end() && it->second.peer == push.replier) {
    FinishExchange(ctx, push.round);
  }
}

}  // namespace deduce

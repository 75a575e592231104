#include "replay.h"

#include <algorithm>
#include <string>
#include <variant>

#include "deduce/engine/observe.h"
#include "deduce/engine/wire.h"
#include "deduce/routing/routing.h"
#include "ledger.h"

namespace deduce::perfbench {

namespace {

/// Timed passes over the sample; the median pass is reported.
constexpr int kPasses = 7;
/// Cold next-hop calls each run a full BFS, so only a prefix is timed.
constexpr size_t kColdFrames = 256;

using Decoded = std::variant<StoreWire, JoinPassWire, ResultWire>;

bool DecodeFrame(const Message& msg, Decoded* out) {
  switch (msg.type) {
    case kStoreMsg: {
      StatusOr<StoreWire> w = StoreWire::Decode(msg);
      if (!w.ok()) return false;
      *out = std::move(w).value();
      return true;
    }
    case kJoinPassMsg: {
      StatusOr<JoinPassWire> w = JoinPassWire::Decode(msg);
      if (!w.ok()) return false;
      *out = std::move(w).value();
      return true;
    }
    case kResultMsg: {
      StatusOr<ResultWire> w = ResultWire::Decode(msg);
      if (!w.ok()) return false;
      *out = std::move(w).value();
      return true;
    }
    default:
      return false;
  }
}

/// Median over kPasses of `pass()`'s wall time, divided by `items`.
template <typename Fn>
double MedianNsPerItem(size_t items, Fn pass) {
  if (items == 0) return 0;
  std::vector<int64_t> ns;
  for (int i = 0; i < kPasses; ++i) {
    int64_t start = NowNs();
    pass();
    ns.push_back(NowNs() - start);
  }
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[ns.size() / 2]) /
         static_cast<double>(items);
}

}  // namespace

void FrameSampler::Observe(const TraceEvent& ev) {
  uint64_t index = seen_++;
  if (ev.msg == nullptr || index % stride_ != 0) return;
  if (frames_.size() == capacity_) {
    // Keep the frames whose hop index is a multiple of the doubled stride:
    // those sit at the even positions of the buffer.
    for (size_t i = 1; 2 * i < frames_.size(); ++i) {
      frames_[i] = std::move(frames_[2 * i]);
    }
    frames_.resize((frames_.size() + 1) / 2);
    stride_ *= 2;
    if (index % stride_ != 0) return;
  }
  frames_.push_back(*ev.msg);
}

ReplayCosts ReplayFrames(const std::vector<Message>& sample,
                         const Topology& topology, const QueryPlan& plan) {
  ReplayCosts out;
  std::vector<const Message*> frames;
  std::vector<Decoded> decoded;
  std::vector<NodeId> targets;
  for (const Message& msg : sample) {
    Decoded d;
    StatusOr<NodeId> target = PeekFinalTarget(msg);
    if (!DecodeFrame(msg, &d) || !target.ok() || *target == kNoNode ||
        *target == msg.src) {
      continue;
    }
    frames.push_back(&msg);
    decoded.push_back(std::move(d));
    targets.push_back(*target);
  }
  out.frames = frames.size();
  if (frames.empty()) return out;

  double bytes = 0;
  for (const Message* msg : frames) {
    bytes += static_cast<double>(msg->WireSize());
  }
  out.frame_bytes = bytes / static_cast<double>(frames.size());

  size_t sink = 0;  // keeps the timed results observable
  out.decode_ns = MedianNsPerItem(frames.size(), [&] {
    Decoded d;
    for (const Message* msg : frames) sink += DecodeFrame(*msg, &d) ? 1 : 0;
  });
  out.encode_ns = MedianNsPerItem(decoded.size(), [&] {
    for (const Decoded& d : decoded) {
      sink += std::visit([](const auto& w) { return w.Encode(); }, d)
                  .payload.size();
    }
  });

  RoutingTable warm(&topology);
  for (size_t i = 0; i < frames.size(); ++i) {
    sink += static_cast<size_t>(warm.GeoNextHop(frames[i]->src, targets[i]));
  }
  out.next_hop_ns = MedianNsPerItem(frames.size(), [&] {
    for (size_t i = 0; i < frames.size(); ++i) {
      sink +=
          static_cast<size_t>(warm.GeoNextHop(frames[i]->src, targets[i]));
    }
  });

  size_t cold_frames = std::min(frames.size(), kColdFrames);
  int64_t cold_start = NowNs();
  for (size_t i = 0; i < cold_frames; ++i) {
    RoutingTable fresh(&topology);
    sink += static_cast<size_t>(fresh.GeoNextHop(frames[i]->src, targets[i]));
  }
  out.next_hop_cold_ns = static_cast<double>(NowNs() - cold_start) /
                         static_cast<double>(cold_frames);

  out.attribute_ns = MedianNsPerItem(frames.size(), [&] {
    std::string phase;
    std::string pred;
    uint64_t seq = 0;
    for (const Message* msg : frames) {
      AttributeEngineMessage(plan, *msg, &phase, &pred, &seq);
      sink += phase.size() + pred.size();
    }
  });

  // An impossible sink value never happens; the branch keeps every timed
  // call's result live without a volatile.
  if (sink == static_cast<size_t>(-1)) out.frames = 0;
  return out;
}

}  // namespace deduce::perfbench

#ifndef DEDUCE_PERFBENCH_REPLAY_H_
#define DEDUCE_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "deduce/engine/plan.h"
#include "deduce/net/network.h"

namespace deduce::perfbench {

/// Bounded, deterministic sample of the frames a run transmits, fed by a
/// Network trace sink. Keeps every `stride`-th hop; when the buffer is
/// full it drops every other kept frame and doubles the stride, so the
/// sample always spans the whole run.
class FrameSampler {
 public:
  explicit FrameSampler(size_t capacity) : capacity_(capacity) {}

  void Observe(const TraceEvent& ev);

  const std::vector<Message>& frames() const { return frames_; }
  uint64_t hops_seen() const { return seen_; }

 private:
  size_t capacity_;
  uint64_t stride_ = 1;
  uint64_t seen_ = 0;
  std::vector<Message> frames_;
};

/// Per-frame costs of the layers a hop passes through, timed by replaying
/// sampled frames through the public codec, routing and attribution
/// calls after the run.
struct ReplayCosts {
  size_t frames = 0;        ///< Frames replayed (store, join pass, result).
  double decode_ns = 0;     ///< Typed Decode of the frame.
  double encode_ns = 0;     ///< Encode of the decoded message.
  double frame_bytes = 0;   ///< Mean wire size (payload + link header).
  double next_hop_ns = 0;   ///< GeoNextHop(src, final target), warm table.
  double next_hop_cold_ns = 0;  ///< The same on a fresh table.
  double attribute_ns = 0;  ///< AttributeEngineMessage.
};

ReplayCosts ReplayFrames(const std::vector<Message>& frames,
                         const Topology& topology, const QueryPlan& plan);

}  // namespace deduce::perfbench

#endif  // DEDUCE_PERFBENCH_REPLAY_H_

// Shared helpers for the test binaries.

#ifndef DEDUCE_TESTS_TEST_UTIL_H_
#define DEDUCE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "deduce/engine/wire.h"
#include "deduce/net/network.h"

namespace deduce {

/// Derives a deterministic per-test RNG seed from `base` and the
/// DEDUCE_TEST_SEED environment variable, so CI can sweep the
/// stochastic tests (loss, jitter, churn) across several seeds without
/// touching the sources. Unset/empty/garbage => `base` unchanged, which
/// keeps plain local runs byte-for-byte reproducible.
inline uint64_t TestSeed(uint64_t base) {
  const char* env = std::getenv("DEDUCE_TEST_SEED");
  if (env == nullptr || *env == '\0') return base;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return base;
  return base + 1'000'003 * static_cast<uint64_t>(v);
}

/// Appends to `out`, in send order, the store inside every transport
/// envelope `node` transmits (each link-layer send, delivered or not).
inline void RecordEnvelopedStores(Network* net, NodeId node,
                                  std::vector<StoreWire>* out) {
  net->AddTraceSink([node, out](const TraceEvent& ev) {
    if (ev.src != node || ev.msg == nullptr || ev.msg->type != kReliableMsg) {
      return;
    }
    StatusOr<ReliableWire> envelope = ReliableWire::Decode(*ev.msg);
    if (!envelope.ok() || envelope->inner_type != kStoreMsg) return;
    Message inner;
    inner.type = envelope->inner_type;
    inner.payload = envelope->inner_payload;
    StatusOr<StoreWire> store = StoreWire::Decode(inner);
    if (store.ok()) out->push_back(std::move(store).value());
  });
}

}  // namespace deduce

#endif  // DEDUCE_TESTS_TEST_UTIL_H_

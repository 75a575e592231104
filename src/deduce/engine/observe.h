#ifndef DEDUCE_ENGINE_OBSERVE_H_
#define DEDUCE_ENGINE_OBSERVE_H_

#include <string>

#include "deduce/common/metrics.h"
#include "deduce/common/trace.h"
#include "deduce/engine/plan.h"
#include "deduce/net/network.h"

namespace deduce {

/// Attributes an engine message to its phase and predicate for traffic
/// accounting. The phase comes from the type code: kStoreMsg -> "store",
/// kJoinPassMsg -> "sweep", kResultMsg -> "result", kAggMsg -> "agg",
/// kAckMsg -> "ack", digest and repair messages -> "repair", unknown
/// types -> "other". A reliable envelope is attributed to its inner
/// message, and `seq` gets its transport sequence number; a damaged or
/// nested envelope is "other". `pred` is set to the predicate the bytes
/// were spent on (head predicate for passes and aggregates) when the
/// payload decodes (DecodeEngineMessage) and names one, and is left as it
/// was otherwise.
void AttributeEngineMessage(const QueryPlan& plan, const Message& msg,
                            std::string* phase, std::string* pred,
                            uint64_t* seq);

/// Installs a Network trace sink (via AddTraceSink) that turns every
/// transmission into a JSONL TraceRecord (kind "hop") in `trace` and live
/// per-phase / per-predicate counters in `metrics` (components "traffic"
/// and "pred"). Either sink target may be null; when both are null nothing
/// is installed, keeping the hot path free of the callback entirely.
///
/// With `provenance` set (EngineOptions::provenance.enabled), hop records
/// additionally carry the contributing trace-id set extracted from the
/// in-flight payload (CollectTraceIds, schema v2) and `metrics` gains a
/// per-predicate "prov" `<pred>.hop_bytes` histogram — the bytes-per-hop
/// distribution of each predicate's attributed traffic.
///
/// With `checksum` set (EngineOptions::checksum) every frame carries its
/// 4-byte trailer (SealFrame); it is stripped before attribution and id
/// collection, so no decoder reads it as a field.
void InstallEngineObservability(Network* network, const QueryPlan* plan,
                                MetricsRegistry* metrics, TraceWriter* trace,
                                bool provenance, bool checksum);

}  // namespace deduce

#endif  // DEDUCE_ENGINE_OBSERVE_H_

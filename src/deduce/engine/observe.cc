#include "deduce/engine/observe.h"

#include "deduce/engine/wire.h"

namespace deduce {

namespace {

std::string HeadPredName(const QueryPlan& plan, size_t rule_index) {
  const auto& rules = plan.program.rules();
  if (rule_index >= rules.size()) return "";
  return SymbolName(rules[rule_index].head.predicate);
}

/// The phase a frame of `type` is charged to, whether or not its payload
/// decodes. An envelope is charged to the message inside it, so its own
/// type, like an unknown one, is "other".
const char* PhaseOf(uint16_t type) {
  switch (type) {
    case kStoreMsg:
      return "store";
    case kJoinPassMsg:
      return "sweep";
    case kResultMsg:
      return "result";
    case kAggMsg:
      return "agg";
    case kAckMsg:
      return "ack";
    case kDigestRequestMsg:
    case kDigestReplyMsg:
    case kRepairPullMsg:
    case kRepairPushMsg:
      return "repair";
    default:
      return "other";
  }
}

void AttributeInto(const QueryPlan& plan, uint16_t type,
                   const std::vector<uint8_t>& payload, bool in_envelope,
                   std::string* phase, std::string* pred, uint64_t* seq) {
  *phase = PhaseOf(type);
  StatusOr<EngineWire> wire = DecodeEngineMessage(type, payload);
  if (!wire.ok()) return;
  std::visit(
      Overloaded{
          [&](const StoreWire& w) { *pred = SymbolName(w.pred); },
          [&](const JoinPassWire& w) {
            if (w.delta_index < plan.deltas.size()) {
              *pred = HeadPredName(plan, plan.deltas[w.delta_index].rule_index);
            }
          },
          [&](const ResultWire& w) { *pred = SymbolName(w.pred); },
          [&](const AggWire& w) {
            if (w.plan_index < plan.aggregates.size()) {
              *pred =
                  HeadPredName(plan, plan.aggregates[w.plan_index].rule_index);
            }
          },
          [&](const ReliableWire& w) {
            // Nested envelopes are a protocol fault; one level is all there
            // is, and a nested one stays "other".
            if (in_envelope) return;
            *seq = w.seq;
            AttributeInto(plan, w.inner_type, w.inner_payload, true, phase,
                          pred, seq);
          },
          [](const auto&) {},  // acks and repair traffic name no predicate
      },
      *wire);
}

}  // namespace

void AttributeEngineMessage(const QueryPlan& plan, const Message& msg,
                            std::string* phase, std::string* pred,
                            uint64_t* seq) {
  AttributeInto(plan, msg.type, msg.payload, false, phase, pred, seq);
}

void InstallEngineObservability(Network* network, const QueryPlan* plan,
                                MetricsRegistry* metrics, TraceWriter* trace,
                                bool provenance, bool checksum) {
  if (metrics == nullptr && (trace == nullptr || !trace->on())) return;
  network->AddTraceSink([plan, metrics, trace, provenance,
                         checksum](const TraceEvent& ev) {
    const Message* msg = ev.msg;
    // The sink sees a frame as it is sent, before any damage in flight, so
    // a sealed frame's trailer verifies here and what is decoded is the
    // message inside it.
    Message unsealed;
    if (checksum && msg != nullptr) {
      unsealed = *msg;
      if (CheckAndStripFrame(&unsealed)) msg = &unsealed;
    }
    std::string phase = "other";
    std::string pred;
    uint64_t seq = 0;
    if (msg != nullptr) {
      AttributeEngineMessage(*plan, *msg, &phase, &pred, &seq);
    }
    uint64_t attempts = ev.attempts > 0 ? static_cast<uint64_t>(ev.attempts)
                                        : 1;
    if (metrics != nullptr && metrics->enabled()) {
      metrics->Add(ev.src, "traffic", "msgs_" + phase, attempts);
      metrics->Add(ev.src, "traffic", "bytes_" + phase, attempts * ev.bytes);
      if (!pred.empty()) {
        metrics->Add(-1, "pred", pred + ".messages", attempts);
        metrics->Add(-1, "pred", pred + ".bytes", attempts * ev.bytes);
        if (provenance) {
          metrics->Observe(-1, "prov", pred + ".hop_bytes",
                           static_cast<int64_t>(attempts * ev.bytes));
        }
      }
    }
    if (trace != nullptr && trace->on()) {
      TraceRecord r;
      r.time = ev.time;
      r.node = ev.src;
      r.kind = "hop";
      r.phase = phase;
      r.pred = pred;
      r.src = ev.src;
      r.dst = ev.dst;
      r.bytes = ev.bytes;
      r.seq = seq;
      r.attempts = ev.attempts;
      r.delivered = ev.delivered;
      if (provenance && msg != nullptr) {
        r.tids = CollectTraceIds(*msg);
        if (!r.tids.empty()) r.schema = 2;
      }
      trace->Emit(r);
    }
  });
}

}  // namespace deduce

// R-Micro: engineering microbenchmarks (google-benchmark) for the hot
// paths: parsing, term matching/unification, the wire codec and the engine
// frames built on it, semi-naive fixpoints, incremental maintenance
// throughput, and the simulator event loop (calendar queue vs the
// pre-optimization binary-heap scheduler).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <queue>

#include "deduce/datalog/parser.h"
#include "deduce/engine/wire.h"
#include "deduce/eval/incremental.h"
#include "deduce/eval/seminaive.h"
#include "deduce/net/codec.h"
#include "deduce/net/simulator.h"

namespace deduce {
namespace {

void BM_ParseRule(benchmark::State& state) {
  const char* text =
      "cov(L1, T) :- veh(\"enemy\", L1, T), veh(\"friendly\", L2, T), "
      "dist(L1, L2) <= 5.";
  for (auto _ : state) {
    auto rule = ParseRule(text);
    benchmark::DoNotOptimize(rule);
  }
}
BENCHMARK(BM_ParseRule);

void BM_MatchTerm(benchmark::State& state) {
  Term pattern = ParseTerm("f(X, g(Y, 3), [A | B])").value();
  Term ground = ParseTerm("f(1, g(2, 3), [4, 5, 6])").value();
  for (auto _ : state) {
    Subst subst;
    bool ok = MatchTerm(pattern, ground, &subst);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_MatchTerm);

void BM_Unify(benchmark::State& state) {
  Term a = ParseTerm("f(X, g(X, Z), h(W))").value();
  Term b = ParseTerm("f(g(1, 2), Y, h(3))").value();
  for (auto _ : state) {
    Subst subst;
    bool ok = Unify(a, b, &subst);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Unify);

void BM_CodecRoundTrip(benchmark::State& state) {
  Fact fact(Intern("veh"),
            {Term::Sym("enemy"),
             Term::Function("loc", {Term::Int(12), Term::Int(34)}),
             Term::Int(1000)});
  for (auto _ : state) {
    PayloadWriter w;
    w.WriteFact(fact);
    PayloadReader r(w.bytes());
    auto f = r.ReadFact();
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_CodecRoundTrip);

/// A storage-walk frame as a row walk of a 100x100 grid carries it: a
/// three-integer tuple with 50 nodes of its row still to visit.
StoreWire StoreWalkFrame() {
  StoreWire w;
  w.final_target = 5700;
  w.pred = Intern("r");
  w.fact = Fact(w.pred, {Term::Int(417), Term::Int(5699), Term::Int(88)});
  w.id = TupleId{5699, 1234567, 42};
  w.gen_ts = 1234567;
  for (NodeId v = 5701; v <= 5750; ++v) w.path_remaining.push_back(v);
  return w;
}

/// A join pass sweeping a column of the same grid, carrying one partial
/// with three bindings and one support.
JoinPassWire ColumnPassFrame() {
  JoinPassWire w;
  w.final_target = 4957;
  w.update_ts = 1234567;
  w.update_id = TupleId{5699, 1234567, 42};
  for (NodeId v = 5057; v <= 9957; v += 100) w.path_remaining.push_back(v);
  PartialWire p;
  p.matched_mask = 1;
  p.bindings.Bind(Intern("K"), Term::Int(417));
  p.bindings.Bind(Intern("N1"), Term::Int(5699));
  p.bindings.Bind(Intern("I1"), Term::Int(88));
  p.support = {{0, w.update_id}};
  w.partials.push_back(std::move(p));
  return w;
}

template <typename Wire>
Message Reencode(const Message& frame) {
  return Wire::Decode(frame)->Encode();
}

/// What a walk hop pays the codec: decode the frame, encode it again. The
/// min over repetitions is the steady figure; single runs move with the
/// host's pace.
void BM_FrameEncodeDecode(benchmark::State& state, Message frame) {
  Message (*reencode)(const Message&) = frame.type == kStoreMsg
                                            ? Reencode<StoreWire>
                                            : Reencode<JoinPassWire>;
  for (auto _ : state) {
    Message again = reencode(frame);
    benchmark::DoNotOptimize(again.payload.data());
    benchmark::ClobberMemory();
  }
}

double MinOf(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

BENCHMARK_CAPTURE(BM_FrameEncodeDecode, store_walk_50,
                  StoreWalkFrame().Encode())
    ->Repetitions(9)
    ->ComputeStatistics("min", MinOf)
    ->ReportAggregatesOnly(true);
BENCHMARK_CAPTURE(BM_FrameEncodeDecode, column_pass_3,
                  ColumnPassFrame().Encode())
    ->Repetitions(9)
    ->ComputeStatistics("min", MinOf)
    ->ReportAggregatesOnly(true);

void BM_TransitiveClosure(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::string text =
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  Program program = ParseProgram(text).value();
  std::vector<Fact> edges;
  for (int i = 0; i + 1 < n; ++i) {
    edges.emplace_back(Intern("edge"), std::vector<Term>{Term::Int(i),
                                                         Term::Int(i + 1)});
  }
  for (auto _ : state) {
    auto db = EvaluateProgram(program, edges);
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n) * (n - 1) / 2);
}
BENCHMARK(BM_TransitiveClosure)->Arg(16)->Arg(32)->Arg(64);

void BM_IncrementalApply(benchmark::State& state) {
  Program program = ParseProgram(R"(
    .decl r/2 input.
    .decl s/2 input.
    t(X, Z) :- r(X, Y), s(Y, Z).
  )").value();
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = IncrementalEngine::Create(program, IncrementalOptions{});
    state.ResumeTiming();
    Timestamp t = 1;
    uint32_t seq = 0;
    for (int i = 0; i < 100; ++i, ++t) {
      StreamEvent ev;
      ev.op = StreamOp::kInsert;
      ev.fact = Fact(Intern(i % 2 ? "r" : "s"),
                     {Term::Int(i % 10), Term::Int((i + 3) % 10)});
      ev.id = TupleId{0, t, seq++};
      ev.time = t;
      (void)(*engine)->Apply(ev, nullptr);
    }
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_IncrementalApply);

void BM_XYStagedLogicH(benchmark::State& state) {
  const char* text = R"(
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X).
    h1(Y, D + 1) :- h(_, Y, D2), (D + 1) > D2, h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), NOT h1(Y, D + 1).
  )";
  Program program = ParseProgram(text).value();
  int n = static_cast<int>(state.range(0));
  std::vector<Fact> edges;
  for (int i = 0; i < n; ++i) {  // ring
    int j = (i + 1) % n;
    edges.emplace_back(Intern("g"), std::vector<Term>{Term::Int(i), Term::Int(j)});
    edges.emplace_back(Intern("g"), std::vector<Term>{Term::Int(j), Term::Int(i)});
  }
  for (auto _ : state) {
    auto db = EvaluateProgram(program, edges);
    benchmark::DoNotOptimize(db);
  }
}
BENCHMARK(BM_XYStagedLogicH)->Arg(8)->Arg(16);

// --- simulator event loop: calendar queue vs pre-optimization heap ---
//
// The heap baseline below is a verbatim copy of the scheduler Simulator
// used before the calendar-queue rewrite (global std::priority_queue of
// std::function events). Benchmarking both in one binary makes the
// speedup ratio machine-independent: tools/bench_compare.py checks
// calendar/heap items_per_second >= 1.5 in the bench-smoke CI job.
class ReferenceHeapSimulator {
 public:
  SimTime now() const { return now_; }

  void ScheduleAt(SimTime t, std::function<void()> fn) {
    if (t < now_) t = now_;
    queue_.push(Event{t, seq_++, std::move(fn)});
  }

  uint64_t Run(uint64_t max_events = UINT64_MAX) {
    uint64_t executed = 0;
    while (!queue_.empty() && executed < max_events) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.time;
      ev.fn();
      ++executed;
    }
    return executed;
  }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  SimTime now_ = 0;
  uint64_t seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

/// `sessions` concurrent self-rescheduling event chains, each hopping
/// `hops` times with pseudo-random 1..5000 us delays — the shape of a
/// simulated network's MAC/transport timers: a large steady pending set
/// with events clustered a few ms ahead of now.
template <typename Sim>
void DriveEventLoop(Sim* sim, int sessions, int hops) {
  struct Chain {
    static void Hop(Sim* sim, uint64_t rng_state, int left) {
      if (left == 0) return;
      uint64_t next = rng_state * 6364136223846793005ULL +
                      1442695040888963407ULL;
      SimTime delay = static_cast<SimTime>(1 + ((next >> 33) % 5000));
      sim->ScheduleAt(sim->now() + delay, [sim, next, left] {
        Hop(sim, next, left - 1);
      });
    }
  };
  for (int i = 0; i < sessions; ++i) {
    Chain::Hop(sim, 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1),
               hops);
  }
  sim->Run();
}

constexpr int kEventLoopHops = 32;

// Session counts bracket the pending-set sizes real engine simulations
// produce: a 14x14-grid distributed run keeps a few hundred timers and
// in-flight deliveries pending, so 256 is typical and 1024 is a
// generous upper bound.

void BM_SimulatorEventLoopCalendar(benchmark::State& state) {
  int sessions = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    DriveEventLoop(&sim, sessions, kEventLoopHops);
  }
  state.SetItemsProcessed(state.iterations() * sessions * kEventLoopHops);
}
BENCHMARK(BM_SimulatorEventLoopCalendar)->Arg(256)->Arg(1024);

void BM_SimulatorEventLoopHeap(benchmark::State& state) {
  int sessions = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ReferenceHeapSimulator sim;
    DriveEventLoop(&sim, sessions, kEventLoopHops);
  }
  state.SetItemsProcessed(state.iterations() * sessions * kEventLoopHops);
}
BENCHMARK(BM_SimulatorEventLoopHeap)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace deduce

BENCHMARK_MAIN();

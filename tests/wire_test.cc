#include "deduce/engine/wire.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "deduce/common/rng.h"
#include "deduce/engine/observe.h"
#include "deduce/net/codec.h"

namespace deduce {
namespace {

/// The symbol `prefix` followed by the decimal `i` ("p3", "X0").
SymbolId NumberedSymbol(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return Intern(name);
}

/// Random ground term generator for round-trip property tests.
Term RandomGroundTerm(Rng* rng, int depth = 0) {
  int kind = static_cast<int>(rng->Uniform(0, depth >= 3 ? 2 : 4));
  switch (kind) {
    case 0:
      return Term::Int(rng->Uniform(-1000000, 1000000));
    case 1:
      return Term::Real(rng->UniformDouble(-1e6, 1e6));
    case 2: {
      static const char* kSyms[] = {"enemy", "friendly", "a", "b",
                                    "long symbol with spaces"};
      return Term::Sym(kSyms[rng->Uniform(0, 4)]);
    }
    case 3: {
      std::vector<Term> args;
      int n = static_cast<int>(rng->Uniform(0, 3));
      for (int i = 0; i < n; ++i) args.push_back(RandomGroundTerm(rng, depth + 1));
      static const char* kFns[] = {"loc", "r", "f"};
      return Term::Function(kFns[rng->Uniform(0, 2)], std::move(args));
    }
    default: {
      std::vector<Term> elems;
      int n = static_cast<int>(rng->Uniform(0, 3));
      for (int i = 0; i < n; ++i) elems.push_back(RandomGroundTerm(rng, depth + 1));
      return Term::MakeList(elems);
    }
  }
}

Fact RandomFact(Rng* rng) {
  static const char* kPreds[] = {"veh", "report", "t", "j"};
  std::vector<Term> args;
  int n = static_cast<int>(rng->Uniform(0, 4));
  for (int i = 0; i < n; ++i) args.push_back(RandomGroundTerm(rng));
  return Fact(Intern(kPreds[rng->Uniform(0, 3)]), std::move(args));
}

TEST(WireTest, StoreRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    StoreWire w;
    w.final_target = static_cast<NodeId>(rng.Uniform(-1, 100));
    w.pred = Intern("veh");
    w.fact = RandomFact(&rng);
    w.id = TupleId{static_cast<NodeId>(rng.Uniform(0, 99)),
                   rng.Uniform(0, 1000000), static_cast<uint32_t>(i)};
    w.gen_ts = rng.Uniform(0, 1000000);
    w.deletion = rng.Bernoulli(0.5);
    w.del_ts = rng.Uniform(0, 1000000);
    for (int k = 0; k < rng.Uniform(0, 5); ++k) {
      w.path_remaining.push_back(static_cast<NodeId>(rng.Uniform(0, 99)));
    }
    w.flood_ttl = static_cast<int32_t>(rng.Uniform(-1, 20));

    Message m = w.Encode();
    auto back = StoreWire::Decode(m);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->final_target, w.final_target);
    EXPECT_EQ(back->fact, w.fact);
    EXPECT_EQ(back->id, w.id);
    EXPECT_EQ(back->gen_ts, w.gen_ts);
    EXPECT_EQ(back->deletion, w.deletion);
    EXPECT_EQ(back->path_remaining, w.path_remaining);
    EXPECT_EQ(back->flood_ttl, w.flood_ttl);
    auto target = PeekFinalTarget(m);
    ASSERT_TRUE(target.ok());
    EXPECT_EQ(*target, w.final_target);
  }
}

TEST(WireTest, JoinPassRoundTrip) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    JoinPassWire w;
    w.final_target = static_cast<NodeId>(rng.Uniform(0, 99));
    w.delta_index = static_cast<uint32_t>(rng.Uniform(0, 30));
    w.removal = rng.Bernoulli(0.5);
    w.update_ts = rng.Uniform(0, 1 << 30);
    w.update_id = TupleId{3, 12345, 6};
    w.pass_index = static_cast<uint32_t>(rng.Uniform(0, 4));
    w.degraded = rng.Bernoulli(0.5);
    for (int k = 0; k < rng.Uniform(0, 4); ++k) {
      w.path_remaining.push_back(static_cast<NodeId>(rng.Uniform(0, 99)));
    }
    for (int p = 0; p < rng.Uniform(0, 4); ++p) {
      PartialWire partial;
      partial.matched_mask = static_cast<uint32_t>(rng.NextUint64());
      for (int b = 0; b < rng.Uniform(0, 3); ++b) {
        partial.bindings.Bind(NumberedSymbol("X", b), RandomGroundTerm(&rng));
      }
      for (int s = 0; s < rng.Uniform(0, 3); ++s) {
        partial.support.emplace_back(
            static_cast<uint32_t>(s),
            TupleId{static_cast<NodeId>(s), rng.Uniform(0, 99999), 0});
      }
      w.partials.push_back(std::move(partial));
    }

    Message m = w.Encode();
    auto back = JoinPassWire::Decode(m);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->delta_index, w.delta_index);
    EXPECT_EQ(back->removal, w.removal);
    EXPECT_EQ(back->update_ts, w.update_ts);
    EXPECT_EQ(back->pass_index, w.pass_index);
    EXPECT_EQ(back->degraded, w.degraded);
    ASSERT_EQ(back->partials.size(), w.partials.size());
    for (size_t p = 0; p < w.partials.size(); ++p) {
      EXPECT_EQ(back->partials[p].matched_mask, w.partials[p].matched_mask);
      EXPECT_EQ(back->partials[p].bindings, w.partials[p].bindings);
      EXPECT_EQ(back->partials[p].support, w.partials[p].support);
    }
  }
}

TEST(WireTest, ResultRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    ResultWire w;
    w.final_target = static_cast<NodeId>(rng.Uniform(0, 99));
    w.pred = Intern("t");
    w.fact = RandomFact(&rng);
    w.removal = rng.Bernoulli(0.5);
    w.rule_id = static_cast<int32_t>(rng.Uniform(-1, 20));
    for (int s = 0; s < rng.Uniform(0, 5); ++s) {
      w.support.push_back(TupleId{static_cast<NodeId>(s), 77, 1});
    }
    w.update_ts = rng.Uniform(0, 1 << 30);
    w.degraded = rng.Bernoulli(0.5);
    auto back = ResultWire::Decode(w.Encode());
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->fact, w.fact);
    EXPECT_EQ(back->removal, w.removal);
    EXPECT_EQ(back->rule_id, w.rule_id);
    EXPECT_EQ(back->support, w.support);
    EXPECT_EQ(back->degraded, w.degraded);
  }
}

TEST(WireTest, AckRoundTrip) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    AckWire w;
    w.final_target = static_cast<NodeId>(rng.Uniform(0, 99));
    w.acker = static_cast<NodeId>(rng.Uniform(0, 99));
    w.seq = static_cast<uint32_t>(rng.Uniform(0, 1 << 30));
    Message m = w.Encode();
    auto back = AckWire::Decode(m);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->final_target, w.final_target);
    EXPECT_EQ(back->acker, w.acker);
    EXPECT_EQ(back->seq, w.seq);
    // Intermediate nodes must be able to forward an ack like any other
    // engine message.
    auto peek = PeekFinalTarget(m);
    ASSERT_TRUE(peek.ok());
    EXPECT_EQ(*peek, w.final_target);
  }
}

TEST(WireTest, ReliableRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    StoreWire inner;
    inner.final_target = static_cast<NodeId>(rng.Uniform(0, 99));
    inner.pred = Intern("veh");
    inner.fact = RandomFact(&rng);
    inner.id = TupleId{static_cast<NodeId>(rng.Uniform(0, 99)), 7, 1};
    Message inner_msg = inner.Encode();

    ReliableWire w;
    w.final_target = inner.final_target;
    w.origin = static_cast<NodeId>(rng.Uniform(0, 99));
    w.seq = static_cast<uint32_t>(rng.Uniform(0, 1 << 30));
    w.inner_type = inner_msg.type;
    w.inner_payload = inner_msg.payload;
    Message m = w.Encode();
    auto back = ReliableWire::Decode(m);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->final_target, w.final_target);
    EXPECT_EQ(back->origin, w.origin);
    EXPECT_EQ(back->seq, w.seq);
    EXPECT_EQ(back->inner_type, w.inner_type);
    EXPECT_EQ(back->inner_payload, w.inner_payload);
    // The envelope forwards by its own final_target, and the payload
    // survives the trip bit-for-bit.
    auto peek = PeekFinalTarget(m);
    ASSERT_TRUE(peek.ok());
    EXPECT_EQ(*peek, w.final_target);
    Message unwrapped;
    unwrapped.type = back->inner_type;
    unwrapped.payload = back->inner_payload;
    auto store = StoreWire::Decode(unwrapped);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store->fact, inner.fact);
  }
}

TEST(WireTest, RepairWiresRoundTrip) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    DigestRequestWire req;
    req.final_target = static_cast<NodeId>(rng.Uniform(0, 99));
    req.requester = static_cast<NodeId>(rng.Uniform(0, 99));
    req.round = static_cast<uint32_t>(rng.Uniform(0, 1 << 30));
    req.anti_entropy = rng.Bernoulli(0.5);
    Message req_msg = req.Encode();
    auto req_back = DigestRequestWire::Decode(req_msg);
    ASSERT_TRUE(req_back.ok()) << req_back.status();
    EXPECT_EQ(req_back->requester, req.requester);
    EXPECT_EQ(req_back->round, req.round);
    EXPECT_EQ(req_back->anti_entropy, req.anti_entropy);
    auto peek = PeekFinalTarget(req_msg);
    ASSERT_TRUE(peek.ok());
    EXPECT_EQ(*peek, req.final_target);

    DigestReplyWire reply;
    reply.final_target = req.requester;
    reply.replier = req.final_target;
    reply.round = req.round;
    for (int d = 0; d < rng.Uniform(0, 4); ++d) {
      PredDigest pd;
      pd.pred = NumberedSymbol("p", d);
      pd.count = rng.NextUint64();
      pd.fingerprint = rng.NextUint64();
      reply.digests.push_back(pd);
    }
    auto reply_back = DigestReplyWire::Decode(reply.Encode());
    ASSERT_TRUE(reply_back.ok()) << reply_back.status();
    EXPECT_EQ(reply_back->replier, reply.replier);
    EXPECT_EQ(reply_back->round, reply.round);
    ASSERT_EQ(reply_back->digests.size(), reply.digests.size());
    for (size_t d = 0; d < reply.digests.size(); ++d) {
      EXPECT_EQ(reply_back->digests[d].pred, reply.digests[d].pred);
      EXPECT_EQ(reply_back->digests[d].count, reply.digests[d].count);
      EXPECT_EQ(reply_back->digests[d].fingerprint,
                reply.digests[d].fingerprint);
    }

    RepairPullWire pull;
    pull.final_target = static_cast<NodeId>(rng.Uniform(0, 99));
    pull.requester = static_cast<NodeId>(rng.Uniform(0, 99));
    pull.round = req.round;
    pull.reverse = rng.Bernoulli(0.5);
    for (int p = 0; p < rng.Uniform(0, 3); ++p) {
      pull.preds.push_back(NumberedSymbol("p", p));
    }
    for (int k = 0; k < rng.Uniform(0, 4); ++k) {
      RepairPullWire::Known known;
      known.pred = Intern("p0");
      known.id = TupleId{static_cast<NodeId>(rng.Uniform(0, 99)),
                         rng.Uniform(0, 1000000), static_cast<uint32_t>(k)};
      known.have_insert = rng.Bernoulli(0.5);
      known.has_del = rng.Bernoulli(0.5);
      pull.known.push_back(known);
    }
    auto pull_back = RepairPullWire::Decode(pull.Encode());
    ASSERT_TRUE(pull_back.ok()) << pull_back.status();
    EXPECT_EQ(pull_back->requester, pull.requester);
    EXPECT_EQ(pull_back->reverse, pull.reverse);
    EXPECT_EQ(pull_back->preds, pull.preds);
    ASSERT_EQ(pull_back->known.size(), pull.known.size());
    for (size_t k = 0; k < pull.known.size(); ++k) {
      EXPECT_EQ(pull_back->known[k].pred, pull.known[k].pred);
      EXPECT_EQ(pull_back->known[k].id, pull.known[k].id);
      EXPECT_EQ(pull_back->known[k].have_insert, pull.known[k].have_insert);
      EXPECT_EQ(pull_back->known[k].has_del, pull.known[k].has_del);
    }

    RepairPushWire push;
    push.final_target = pull.requester;
    push.replier = pull.final_target;
    push.round = pull.round;
    for (int e = 0; e < rng.Uniform(0, 4); ++e) {
      RepairPushWire::Entry entry;
      entry.pred = NumberedSymbol("p", e);
      entry.fact = RandomFact(&rng);
      entry.id = TupleId{static_cast<NodeId>(rng.Uniform(0, 99)),
                         rng.Uniform(0, 1000000), static_cast<uint32_t>(e)};
      entry.gen_ts = rng.Uniform(0, 1000000);
      entry.have_insert = rng.Bernoulli(0.5);
      entry.has_del = rng.Bernoulli(0.5);
      entry.del_ts = rng.Uniform(0, 1000000);
      push.entries.push_back(std::move(entry));
    }
    auto push_back = RepairPushWire::Decode(push.Encode());
    ASSERT_TRUE(push_back.ok()) << push_back.status();
    EXPECT_EQ(push_back->replier, push.replier);
    EXPECT_EQ(push_back->round, push.round);
    ASSERT_EQ(push_back->entries.size(), push.entries.size());
    for (size_t e = 0; e < push.entries.size(); ++e) {
      EXPECT_EQ(push_back->entries[e].pred, push.entries[e].pred);
      EXPECT_EQ(push_back->entries[e].fact, push.entries[e].fact);
      EXPECT_EQ(push_back->entries[e].id, push.entries[e].id);
      EXPECT_EQ(push_back->entries[e].gen_ts, push.entries[e].gen_ts);
      EXPECT_EQ(push_back->entries[e].have_insert,
                push.entries[e].have_insert);
      EXPECT_EQ(push_back->entries[e].has_del, push.entries[e].has_del);
      EXPECT_EQ(push_back->entries[e].del_ts, push.entries[e].del_ts);
    }
  }
}

/// One fixed frame of each of the ten formats. Between them they carry a
/// deletion mark, flood mode, a nonzero tenant, negative and 64-bit
/// values, doubles, nested functions and lists, and a join pass with two
/// partials of three bindings each.
std::vector<Message> GoldenFrames() {
  // Interned before anything else here, in this order, under names no
  // other test uses, so that their ids ascend in this order.
  SymbolId var_a = Intern("golden_var_a");
  SymbolId var_b = Intern("golden_var_b");
  SymbolId var_c = Intern("golden_var_c");
  Term nested = Term::Function(
      "loc", {Term::Real(-2.5),
              Term::MakeList({Term::Int(-7), Term::Sym("hot"),
                              Term::Function("f", {Term::Int(300)})})});
  Fact fact(Intern("reading"),
            {Term::Int(-1), nested, Term::Real(0.125), Term::Sym("north")});
  std::vector<Message> frames;

  StoreWire mark;  // a deletion mark on a storage walk
  mark.final_target = 12;
  mark.pred = fact.predicate();
  mark.fact = fact;
  mark.id = TupleId{3, 1000001, 7};
  mark.gen_ts = 999999;
  mark.deletion = true;
  mark.del_ts = 1500000;
  mark.path_remaining = {13, 14, 200};
  frames.push_back(mark.Encode());

  StoreWire flood;  // flood mode: no path, a hop budget
  flood.final_target = 0;
  flood.pred = fact.predicate();
  flood.fact = Fact(Intern("reading"), {Term::Int(64)});
  flood.id = TupleId{0, -5, 0};
  flood.gen_ts = -5;
  flood.flood_ttl = 4;
  frames.push_back(flood.Encode());

  JoinPassWire pass;
  pass.final_target = 40;
  pass.delta_index = 2;
  pass.removal = true;
  pass.update_ts = 123456789;
  pass.update_id = TupleId{9, 123456789, 1};
  pass.pass_index = 1;
  pass.path_remaining = {41, 42};
  PartialWire first;
  first.matched_mask = 0x5;
  first.bindings.Bind(var_a, Term::Int(-3));
  first.bindings.Bind(var_b, Term::Sym("tank"));
  first.bindings.Bind(var_c, nested);
  first.support = {{0, TupleId{9, 123456789, 1}}, {2, TupleId{17, 99, 4}}};
  PartialWire second;
  second.matched_mask = 0x80000001u;
  second.bindings.Bind(var_a, Term::Real(1e300));
  second.bindings.Bind(var_b, Term::MakeList({}));
  second.bindings.Bind(var_c, Term::Int(1));
  second.support = {{0, TupleId{9, 123456789, 1}}};
  pass.partials = {first, second};
  pass.degraded = true;
  frames.push_back(pass.Encode());

  ResultWire result;  // a tenant's fan-out copy
  result.final_target = 77;
  result.pred = Intern("alert");
  result.fact = Fact(Intern("alert"), {nested, Term::Int(5)});
  result.removal = false;
  result.rule_id = -1;
  result.support = {TupleId{9, 123456789, 1}, TupleId{17, 99, 4}};
  result.update_ts = 123456789;
  result.degraded = true;
  result.tenant = 300;
  frames.push_back(result.Encode());

  AggWire agg;
  agg.final_target = 5;
  agg.plan_index = 1;
  agg.removal = true;
  agg.group = {Term::Sym("north"), nested};
  agg.value = Term::Real(-0.75);
  agg.contributor = TupleId{4, 8, 15};
  agg.update_ts = 16;
  frames.push_back(agg.Encode());

  AckWire ack;
  ack.final_target = 23;
  ack.acker = 42;
  ack.seq = 4000000000u;
  frames.push_back(ack.Encode());

  ReliableWire envelope;
  envelope.final_target = 23;
  envelope.origin = 42;
  envelope.seq = 129;
  envelope.inner_type = kStoreMsg;
  envelope.inner_payload = flood.Encode().payload;
  frames.push_back(envelope.Encode());

  DigestRequestWire request;
  request.final_target = 6;
  request.requester = 7;
  request.round = 3;
  request.anti_entropy = true;
  frames.push_back(request.Encode());

  DigestReplyWire reply;
  reply.final_target = 7;
  reply.replier = 6;
  reply.round = 3;
  reply.digests = {PredDigest{Intern("reading"), 2, 0xfedcba9876543210ull},
                   PredDigest{Intern("alert"), 0, 0}};
  frames.push_back(reply.Encode());

  RepairPullWire pull;
  pull.final_target = 6;
  pull.requester = 7;
  pull.round = 4;
  pull.reverse = true;
  pull.preds = {Intern("reading"), Intern("alert")};
  pull.known = {{Intern("reading"), TupleId{3, 1000001, 7}, true, false},
                {Intern("reading"), TupleId{0, -5, 0}, false, true}};
  frames.push_back(pull.Encode());

  RepairPushWire push;
  push.final_target = 7;
  push.replier = 6;
  push.round = 4;
  push.entries = {{Intern("reading"), fact, TupleId{3, 1000001, 7}, 999999,
                   true, true, 1500000},
                  {Intern("reading"), flood.fact, TupleId{0, -5, 0}, -5, true,
                   false, 0}};
  frames.push_back(push.Encode());
  return frames;
}

/// Pinned encodings of GoldenFrames(), in order. Round trips cannot see a
/// change that alters Encode and Decode alike; these bytes can.
struct GoldenFrame {
  uint16_t type;
  const char* hex;
};
constexpr GoldenFrame kGoldenFrames[] = {
    {kStoreMsg,
     "180772656164696e670772656164696e6704000104036c6f6302010000000000"
     "0004c004035b7c5d02000d04035b7c5d020203686f7404035b7c5d0204016601"
     "00d80402025b5d01000000000000c03f02056e6f7274680682897a07fe887a01"
     "c08db701031a1c900301"},
    {kStoreMsg, "000772656164696e670772656164696e67010080010009000900000008"},
    {kJoinPassMsg,
     "500201aab4de7512aab4de7501010252540205030c676f6c64656e5f7661725f"
     "6100050c676f6c64656e5f7661725f62020474616e6b0c676f6c64656e5f7661"
     "725f6304036c6f63020100000000000004c004035b7c5d02000d04035b7c5d02"
     "0203686f7404035b7c5d020401660100d80402025b5d020012aab4de75010222"
     "c601048180808008030c676f6c64656e5f7661725f61019c7500883ce4377e0c"
     "676f6c64656e5f7661725f6202025b5d0c676f6c64656e5f7661725f63000201"
     "0012aab4de750101"},
    {kResultMsg,
     "9a0105616c65727405616c6572740204036c6f63020100000000000004c00403"
     "5b7c5d02000d04035b7c5d020203686f7404035b7c5d020401660100d8040202"
     "5b5d000a00010212aab4de750122c60104aab4de7501ac02"},
    {kAggMsg,
     "0a01010202056e6f72746804036c6f63020100000000000004c004035b7c5d02"
     "000d04035b7c5d020203686f7404035b7c5d020401660100d80402025b5d0100"
     "0000000000e8bf08100f20"},
    {kAckMsg, "2e5480d0acf30e"},
    {kReliableMsg,
     "2e548101011d000772656164696e670772656164696e67010080010009000900"
     "000008"},
    {kDigestRequestMsg, "0c0e0301"},
    {kDigestReplyMsg,
     "0e0c03020772656164696e670290e4d0b287d3aeeefe0105616c6572740000"},
    {kRepairPullMsg,
     "0c0e0401020772656164696e6705616c657274020772656164696e670682897a"
     "0701000772656164696e670009000001"},
    {kRepairPushMsg,
     "0e0c04020772656164696e670772656164696e6704000104036c6f6302010000"
     "0000000004c004035b7c5d02000d04035b7c5d020203686f7404035b7c5d0204"
     "01660100d80402025b5d01000000000000c03f02056e6f7274680682897a07fe"
     "887a0101c08db7010772656164696e670772656164696e670100800100090009"
     "010000"},
};

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  for (uint8_t b : bytes) {
    static const char kDigits[] = "0123456789abcdef";
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

TEST(WireTest, GoldenBytesOfEveryFormat) {
  std::vector<Message> frames = GoldenFrames();
  ASSERT_EQ(frames.size(), std::size(kGoldenFrames));
  for (size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(frames[i].type, kGoldenFrames[i].type);
    EXPECT_EQ(Hex(frames[i].payload), kGoldenFrames[i].hex);
  }
}

TEST(WireTest, EveryGoldenFrameDecodesThroughDecodeEngineMessage) {
  for (const Message& frame : GoldenFrames()) {
    SCOPED_TRACE(frame.type);
    StatusOr<EngineWire> wire = DecodeEngineMessage(frame.type, frame.payload);
    ASSERT_TRUE(wire.ok()) << wire.status();
    Message again =
        std::visit([](const auto& w) { return w.Encode(); }, *wire);
    EXPECT_EQ(again.type, frame.type);
    EXPECT_EQ(again.payload, frame.payload);
  }
}

TEST(WireTest, DecodeEngineMessageFailsAsThePerTypeDecoder) {
  // A named payload: GCC 12 at -O3 reports a false -Warray-bounds in
  // NodeListCases when this call takes a braced list.
  const std::vector<uint8_t> zeros(2, 0);
  for (uint16_t type : {uint16_t{0}, uint16_t{11}, uint16_t{0xffff}}) {
    StatusOr<EngineWire> unknown = DecodeEngineMessage(type, zeros);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  }
  // Every prefix of every golden frame gives the status its type's own
  // Decode gives (a few prefixes of the tenant-carrying result decode).
  for (const Message& frame : GoldenFrames()) {
    SCOPED_TRACE(frame.type);
    StatusOr<EngineWire> full = DecodeEngineMessage(frame.type, frame.payload);
    ASSERT_TRUE(full.ok()) << full.status();
    std::visit(
        [&frame](const auto& w) {
          using Wire = std::decay_t<decltype(w)>;
          for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
            Message m = frame;
            m.payload.resize(cut);
            StatusOr<Wire> want = Wire::Decode(m);
            StatusOr<EngineWire> got = DecodeEngineMessage(m.type, m.payload);
            ASSERT_EQ(got.ok(), want.ok()) << "cut at " << cut;
            EXPECT_EQ(got.status().code(), want.status().code());
            EXPECT_EQ(got.status().message(), want.status().message());
          }
        },
        *full);
  }
}

/// (phase, pred, seq) as AttributeEngineMessage reports them.
using Attribution = std::tuple<std::string, std::string, uint64_t>;

TEST(WireTest, DamagedFramesAreAttributedByTypeWithoutAPredicate) {
  QueryPlan plan;
  auto attribute = [&plan](const Message& m) {
    Attribution a{"unset", "", 0};
    AttributeEngineMessage(plan, m, &std::get<0>(a), &std::get<1>(a),
                           &std::get<2>(a));
    return a;
  };
  std::vector<Message> frames = GoldenFrames();
  const Message& store = frames[0];
  ASSERT_EQ(store.type, kStoreMsg);
  Message damaged = store;
  damaged.payload.resize(store.payload.size() / 2);
  EXPECT_EQ(attribute(store), (Attribution{"store", "reading", 0}));
  EXPECT_EQ(attribute(damaged), (Attribution{"store", "", 0}));

  // An envelope is charged to the message inside it and reports its
  // sequence number, even when that message is damaged.
  ReliableWire envelope;
  envelope.final_target = 23;
  envelope.origin = 42;
  envelope.seq = 129;
  envelope.inner_type = kStoreMsg;
  envelope.inner_payload = store.payload;
  EXPECT_EQ(attribute(envelope.Encode()),
            (Attribution{"store", "reading", 129}));
  envelope.inner_payload = damaged.payload;
  EXPECT_EQ(attribute(envelope.Encode()), (Attribution{"store", "", 129}));

  // A damaged envelope is "other".
  Message cut = envelope.Encode();
  cut.payload.resize(cut.payload.size() - 1);
  EXPECT_EQ(attribute(cut), (Attribution{"other", "", 0}));
}

/// A row walk across the 8192 boundary, where a node id's zigzag varint
/// grows from two bytes to three, out to the widest int32.
StoreWire WideNodeIdFrame() {
  StoreWire w;
  w.final_target = 8190;
  w.pred = Intern("reading");
  w.fact = Fact(Intern("reading"), {Term::Int(8191), Term::Int(-8193)});
  w.id = TupleId{8189, 77, 3};
  w.gen_ts = 77;
  w.path_remaining = {8191, 8192, 8193, 9999, 16384, 1048576, 2147483647};
  return w;
}

TEST(WireTest, GoldenBytesOfWideNodeIds) {
  Message m = WideNodeIdFrame().Encode();
  EXPECT_EQ(m.type, kStoreMsg);
  EXPECT_EQ(Hex(m.payload),
            "fc7f0772656164696e670772656164696e670200fe7f00818001fa7f9a0103"
            "9a01000007fe7f8080018280019e9c0180800280808001feffffff0f01");
  StatusOr<StoreWire> back = StoreWire::Decode(m);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->path_remaining, WideNodeIdFrame().path_remaining);
}

/// How node lists were read before they became one run: the count, bounded
/// by the bytes left, then one ReadInt per id, cast to NodeId.
StatusOr<std::vector<NodeId>> PerElementNodeIds(PayloadReader* r) {
  StatusOr<uint64_t> n = r->ReadUint();
  if (!n.ok()) return StatusOr<std::vector<NodeId>>(n.status());
  if (*n > r->remaining()) {
    return StatusOr<std::vector<NodeId>>(
        Status::InvalidArgument("list length exceeds payload"));
  }
  std::vector<NodeId> ids;
  for (uint64_t i = 0; i < *n; ++i) {
    StatusOr<int64_t> v = r->ReadInt();
    if (!v.ok()) return StatusOr<std::vector<NodeId>>(v.status());
    ids.push_back(static_cast<NodeId>(*v));
  }
  return ids;
}

/// Node-list bytes (count included) for the edge cases of the one-run
/// reader, whether the frame goes on after them, and the decode error
/// ("" when the frame decodes).
struct NodeListCase {
  const char* name;
  std::vector<uint8_t> list;
  bool tail;
  std::string error;
};

std::vector<NodeListCase> NodeListCases() {
  std::vector<uint8_t> overlong(10, 0x80);
  overlong.push_back(0x01);
  std::vector<uint8_t> widest(9, 0xff);
  widest.push_back(0x01);
  PayloadWriter outside;  // ids beyond int32, which the cast truncates
  outside.WriteUint(4);
  outside.WriteInt(int64_t{1} << 33);
  outside.WriteInt(-(int64_t{1} << 40) - 5);
  outside.WriteInt(int64_t{2147483648});
  outside.WriteInt(int64_t{-2147483649});
  PayloadWriter wide;  // three-byte and longer varints
  wide.WriteUint(5);
  for (int64_t id : {8191, 8192, 9999, 1048576, 2147483647}) wide.WriteInt(id);
  std::vector<uint8_t> widest_list = {2, 0x02};
  widest_list.insert(widest_list.end(), widest.begin(), widest.end());
  std::vector<uint8_t> overlong_list = {2, 0x02};
  overlong_list.insert(overlong_list.end(), overlong.begin(), overlong.end());
  const std::string truncated = "truncated varint in payload";
  const std::string too_long = "list length exceeds payload";
  return {
      {"empty", {0x00}, true, ""},
      {"wide", wide.bytes(), true, ""},
      {"outside_int32", outside.bytes(), true, ""},
      {"ten_byte_varint", widest_list, true, ""},
      {"overlong_varint", overlong_list, true, "overlong varint in payload"},
      {"truncated_inside", {0x03, 0x02, 0x04, 0x86}, false, truncated},
      {"truncated_after_first", {0x03, 0x02}, false, too_long},
      {"count_beyond_bytes", {0x7f, 0x02, 0x04}, true, too_long},
      {"count_beyond_bytes_no_tail", {0x05, 0x02, 0x04}, false, too_long},
      {"huge_count", {0xff, 0xff, 0xff, 0xff, 0x0f, 0x02}, true, too_long},
      {"truncated_count", {0x80}, false, truncated},
  };
}

/// Decoding a frame whose node list holds `c.list` gives the status and
/// the ids the per-element reader gives, and the pinned error.
template <typename Wire>
void ExpectNodeListLikePerElement(const NodeListCase& c,
                                  const std::vector<uint8_t>& head,
                                  const std::vector<uint8_t>& tail) {
  SCOPED_TRACE(c.name);
  Message m;
  m.payload = head;
  m.payload.insert(m.payload.end(), c.list.begin(), c.list.end());
  if (c.tail) m.payload.insert(m.payload.end(), tail.begin(), tail.end());
  StatusOr<Wire> got = Wire::Decode(m);

  std::vector<uint8_t> rest = c.list;
  if (c.tail) rest.insert(rest.end(), tail.begin(), tail.end());
  PayloadReader ref(rest);
  StatusOr<std::vector<NodeId>> want = PerElementNodeIds(&ref);
  EXPECT_EQ(got.ok() ? "" : got.status().message(), c.error);
  if (!want.ok()) {
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->path_remaining, *want);
}

TEST(WireTest, NodeListsDecodeAsPerElement) {
  // Each frame cut just before its node list; the tail is what follows it.
  PayloadWriter store_head;
  store_head.WriteInt(8190);
  store_head.WriteSymbol(Intern("reading"));
  store_head.WriteFact(Fact(Intern("reading"), {Term::Int(1)}));
  store_head.WriteTupleId(TupleId{8189, 77, 3});
  store_head.WriteInt(77);
  store_head.WriteUint(0);
  store_head.WriteInt(0);
  PayloadWriter store_tail;
  store_tail.WriteInt(-1);

  PayloadWriter pass_head;
  pass_head.WriteInt(4957);
  pass_head.WriteUint(1);
  pass_head.WriteUint(0);
  pass_head.WriteInt(1234567);
  pass_head.WriteTupleId(TupleId{5699, 1234567, 42});
  pass_head.WriteUint(0);
  PayloadWriter pass_tail;
  pass_tail.WriteUint(0);
  pass_tail.WriteUint(1);

  for (const NodeListCase& c : NodeListCases()) {
    ExpectNodeListLikePerElement<StoreWire>(c, store_head.bytes(),
                                            store_tail.bytes());
    ExpectNodeListLikePerElement<JoinPassWire>(c, pass_head.bytes(),
                                               pass_tail.bytes());
  }
}

TEST(WireTest, NodeIdRunMatchesReadIntPerId) {
  // The codec alone, where a count beyond the bytes left is not refused up
  // front: the run must still fail with the error ReadInt meets first.
  std::vector<uint8_t> overlong = {0x02};
  overlong.insert(overlong.end(), 10, 0x80);
  overlong.push_back(0x01);
  struct Case {
    size_t n;
    std::vector<uint8_t> bytes;
    std::string error;  // "" when the run decodes
  };
  std::vector<Case> cases = {
      {0, {}, ""},
      {0, {0x02}, ""},
      {2, {0x02, 0x04, 0x06}, ""},
      {3, {0x02, 0x04}, "truncated varint in payload"},
      {30, overlong, "overlong varint in payload"},
      {2, {0x80, 0x80, 0x01, 0xfe, 0xff, 0xff, 0xff, 0x0f}, ""},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.n);
    PayloadReader bulk(c.bytes);
    std::vector<NodeId> got = {7};  // stale ids must go
    Status status = bulk.ReadNodeIds(c.n, &got);
    EXPECT_EQ(status.message(), c.error);

    PayloadReader each(c.bytes);
    std::vector<NodeId> want;
    Status want_status;
    for (size_t i = 0; i < c.n && want_status.ok(); ++i) {
      StatusOr<int64_t> v = each.ReadInt();
      if (v.ok()) {
        want.push_back(static_cast<NodeId>(*v));
      } else {
        want_status = v.status();
      }
    }
    EXPECT_EQ(status.code(), want_status.code());
    EXPECT_EQ(status.message(), want_status.message());
    if (want_status.ok()) {
      EXPECT_EQ(got, want);
      EXPECT_EQ(bulk.remaining(), each.remaining());
    }
  }
}

TEST(WireTest, StringLengthNearTwoToTheSixtyFourIsAnError) {
  // A length whose sum with the read position wraps past zero.
  std::vector<uint8_t> bytes(9, 0xff);
  bytes.push_back(0x01);
  bytes.push_back('a');
  PayloadReader r(bytes);
  StatusOr<std::string_view> s = r.ReadBytes();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().message(), "truncated string in payload");
}

/// Fuzz: random bytes must never crash a decoder — only produce errors or
/// (rarely) a valid message.
TEST(WireTest, FuzzDecodersNeverCrash) {
  Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    Message m;
    m.type = static_cast<uint16_t>(rng.Uniform(1, 6));
    size_t len = static_cast<size_t>(rng.Uniform(0, 64));
    for (size_t b = 0; b < len; ++b) {
      m.payload.push_back(static_cast<uint8_t>(rng.Uniform(0, 255)));
    }
    (void)StoreWire::Decode(m);
    (void)JoinPassWire::Decode(m);
    (void)ResultWire::Decode(m);
    (void)AckWire::Decode(m);
    (void)ReliableWire::Decode(m);
    (void)DigestRequestWire::Decode(m);
    (void)DigestReplyWire::Decode(m);
    (void)RepairPullWire::Decode(m);
    (void)RepairPushWire::Decode(m);
    (void)PeekFinalTarget(m);
  }
  SUCCEED();
}

/// Truncation fuzz: valid messages cut at every prefix length decode to an
/// error, never crash, never read out of bounds.
TEST(WireTest, TruncationsAreErrors) {
  Rng rng(5);
  StoreWire w;
  w.final_target = 3;
  w.pred = Intern("veh");
  w.fact = RandomFact(&rng);
  w.id = TupleId{1, 2, 3};
  w.path_remaining = {4, 5, 6};
  Message full = w.Encode();
  for (size_t cut = 0; cut + 1 < full.payload.size(); ++cut) {
    Message m = full;
    m.payload.resize(cut);
    auto r = StoreWire::Decode(m);
    EXPECT_FALSE(r.ok()) << "cut at " << cut << " decoded successfully";
  }
}

}  // namespace
}  // namespace deduce

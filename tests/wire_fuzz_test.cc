// Fuzz-style robustness tests for the wire codecs: every Decode must
// survive arbitrary, truncated and bit-flipped payloads — returning an
// error Status (or a semantically-garbled but well-formed value), never
// crashing or reading out of bounds. The chaos harness corrupts payloads
// in flight (LinkFaultRule::kCorrupt), so these paths are hit routinely;
// run under ASan/UBSan to catch over-reads (the CI sanitizer job does).

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "deduce/datalog/symbol.h"
#include "deduce/engine/wire.h"

namespace deduce {
namespace {

/// Deterministic xorshift64* so the fuzz corpus is identical on every run.
class FuzzRng {
 public:
  explicit FuzzRng(uint64_t seed) : state_(seed ? seed : 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dULL;
  }
  uint8_t Byte() { return static_cast<uint8_t>(Next() & 0xff); }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// Decodes `msg` as its declared engine type. The return value is
/// irrelevant — the test is that this returns at all.
void DecodeByType(const Message& msg) {
  switch (msg.type) {
    case kStoreMsg:
      (void)StoreWire::Decode(msg);
      break;
    case kJoinPassMsg:
      (void)JoinPassWire::Decode(msg);
      break;
    case kResultMsg:
      (void)ResultWire::Decode(msg);
      break;
    case kAggMsg:
      (void)AggWire::Decode(msg);
      break;
    case kAckMsg:
      (void)AckWire::Decode(msg);
      break;
    case kReliableMsg:
      (void)ReliableWire::Decode(msg);
      break;
    case kDigestRequestMsg:
      (void)DigestRequestWire::Decode(msg);
      break;
    case kDigestReplyMsg:
      (void)DigestReplyWire::Decode(msg);
      break;
    case kRepairPullMsg:
      (void)RepairPullWire::Decode(msg);
      break;
    case kRepairPushMsg:
      (void)RepairPushWire::Decode(msg);
      break;
    default:
      break;
  }
  (void)PeekFinalTarget(msg);
}

Fact SampleFact() {
  return Fact(Intern("r"), {Term::Int(3), Term::Int(7), Term::Int(42)});
}

/// One well-formed frame of every engine message type, with every
/// variable-length section populated.
std::vector<Message> SampleFrames() {
  std::vector<Message> frames;

  StoreWire store;
  store.final_target = 5;
  store.pred = Intern("r");
  store.fact = SampleFact();
  store.id = TupleId{2, 1000, 1};
  store.gen_ts = 1234;
  store.deletion = true;
  store.del_ts = 2345;
  store.path_remaining = {6, 7, 8};
  frames.push_back(store.Encode());

  JoinPassWire pass;
  pass.final_target = 3;
  pass.delta_index = 1;
  pass.removal = true;
  pass.update_ts = 999;
  pass.update_id = TupleId{1, 999, 0};
  pass.pass_index = 2;
  pass.path_remaining = {4, 5};
  PartialWire partial;
  partial.matched_mask = 0x3;
  partial.bindings.Bind(Intern("X"), Term::Int(9));
  partial.bindings.Bind(Intern("Y"), Term::Sym("hot"));
  partial.support = {{0, TupleId{1, 999, 0}}, {1, TupleId{2, 998, 1}}};
  pass.partials = {partial};
  pass.degraded = true;
  frames.push_back(pass.Encode());

  ResultWire result;
  result.final_target = 9;
  result.pred = Intern("t");
  result.fact = SampleFact();
  result.removal = false;
  result.rule_id = 0;
  result.support = {TupleId{1, 999, 0}, TupleId{2, 998, 1}};
  result.update_ts = 999;
  frames.push_back(result.Encode());

  AggWire agg;
  agg.final_target = 4;
  agg.plan_index = 0;
  agg.group = {Term::Int(1), Term::Sym("region")};
  agg.value = Term::Int(31);
  agg.contributor = TupleId{3, 500, 2};
  agg.update_ts = 500;
  frames.push_back(agg.Encode());

  AckWire ack;
  ack.final_target = 1;
  ack.acker = 2;
  ack.seq = 77;
  frames.push_back(ack.Encode());

  ReliableWire rel;
  rel.final_target = 6;
  rel.origin = 0;
  rel.seq = 12;
  rel.inner_type = kStoreMsg;
  rel.inner_payload = store.Encode().payload;
  frames.push_back(rel.Encode());

  DigestRequestWire dreq;
  dreq.final_target = 2;
  dreq.requester = 3;
  dreq.round = 1;
  dreq.anti_entropy = true;
  frames.push_back(dreq.Encode());

  DigestReplyWire drep;
  drep.final_target = 3;
  drep.replier = 2;
  drep.round = 1;
  drep.digests = {{Intern("r"), 4, 0xdeadbeef}, {Intern("s"), 2, 0xfeed}};
  frames.push_back(drep.Encode());

  RepairPullWire pull;
  pull.final_target = 2;
  pull.requester = 3;
  pull.round = 1;
  pull.reverse = false;
  pull.preds = {Intern("r"), Intern("s")};
  pull.known = {{Intern("r"), TupleId{1, 999, 0}, true, false}};
  frames.push_back(pull.Encode());

  RepairPushWire push;
  push.final_target = 3;
  push.replier = 2;
  push.round = 1;
  RepairPushWire::Entry entry;
  entry.pred = Intern("r");
  entry.fact = SampleFact();
  entry.id = TupleId{1, 999, 0};
  entry.gen_ts = 999;
  entry.have_insert = true;
  entry.has_del = true;
  entry.del_ts = 1500;
  push.entries = {entry};
  frames.push_back(push.Encode());

  return frames;
}

TEST(WireFuzzTest, EveryTruncationSurvives) {
  for (const Message& frame : SampleFrames()) {
    for (size_t len = 0; len < frame.payload.size(); ++len) {
      Message cut = frame;
      cut.payload.resize(len);
      DecodeByType(cut);  // Must not crash or over-read.
    }
  }
}

TEST(WireFuzzTest, EmptyPayloadIsAnError) {
  for (const Message& frame : SampleFrames()) {
    Message empty = frame;
    empty.payload.clear();
    EXPECT_FALSE(PeekFinalTarget(empty).ok());
  }
}

TEST(WireFuzzTest, EverySingleByteCorruptionSurvives) {
  for (const Message& frame : SampleFrames()) {
    for (size_t pos = 0; pos < frame.payload.size(); ++pos) {
      for (uint8_t bit = 0; bit < 8; ++bit) {
        Message bad = frame;
        bad.payload[pos] ^= static_cast<uint8_t>(1u << bit);
        DecodeByType(bad);  // Must not crash or over-read.
      }
    }
  }
}

TEST(WireFuzzTest, RandomPayloadsSurviveAllTypes) {
  FuzzRng rng(0x5eed);
  for (int iter = 0; iter < 2000; ++iter) {
    Message msg;
    msg.src = 0;
    msg.dst = 1;
    msg.type = static_cast<uint16_t>(rng.Below(12));  // incl. unknown types
    msg.payload.resize(rng.Below(96));
    for (uint8_t& b : msg.payload) b = rng.Byte();
    DecodeByType(msg);  // Must not crash or over-read.
  }
}

TEST(WireFuzzTest, RandomMutationsOfValidFramesSurvive) {
  FuzzRng rng(0xc0ffee);
  std::vector<Message> frames = SampleFrames();
  for (int iter = 0; iter < 2000; ++iter) {
    Message bad = frames[rng.Below(frames.size())];
    size_t flips = 1 + rng.Below(4);
    for (size_t i = 0; i < flips && !bad.payload.empty(); ++i) {
      bad.payload[rng.Below(bad.payload.size())] ^= rng.Byte();
    }
    if (rng.Below(4) == 0 && !bad.payload.empty()) {
      bad.payload.resize(rng.Below(bad.payload.size()));
    }
    DecodeByType(bad);  // Must not crash or over-read.
  }
}

TEST(WireFuzzTest, ChecksumRoundTripAndTamperDetection) {
  for (const Message& frame : SampleFrames()) {
    Message sealed = frame;
    SealFrame(&sealed);
    ASSERT_EQ(sealed.payload.size(), frame.payload.size() + 4);
    // PeekFinalTarget still works on a sealed frame.
    EXPECT_TRUE(PeekFinalTarget(sealed).ok());

    Message verify = sealed;
    EXPECT_TRUE(CheckAndStripFrame(&verify));
    EXPECT_EQ(verify.payload, frame.payload);

    // Any single-bit flip anywhere in the sealed frame must be caught.
    for (size_t pos = 0; pos < sealed.payload.size(); ++pos) {
      Message bad = sealed;
      bad.payload[pos] ^= 0x40;
      EXPECT_FALSE(CheckAndStripFrame(&bad));
    }
  }
}

TEST(WireFuzzTest, ChecksumRejectsShortFrames) {
  for (size_t len = 0; len < 4; ++len) {
    Message msg;
    msg.payload.assign(len, 0xab);
    EXPECT_FALSE(CheckAndStripFrame(&msg));
  }
}

}  // namespace
}  // namespace deduce

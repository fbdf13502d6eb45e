// Wire codecs and the live ingress policy.
#include "runtime/codec.hpp"

#include <gtest/gtest.h>

#include "svc/jitter.hpp"

namespace anon {
namespace {

// ---------- byte primitives ----------

TEST(ByteCodec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  Bytes b = w.take();
  ByteReader r(b);
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.u8(), std::nullopt);  // past the end
}

// ---------- message codecs ----------

TEST(EsCodec, RoundTrip) {
  for (const EsMessage& m :
       {EsMessage{}, EsMessage{Value(1)}, EsMessage{Value(-5), Value(7)},
        EsMessage{Value::Bottom(), Value(0)}}) {
    auto back = decode_es_message(encode_es_message(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
}

TEST(EsCodec, RejectsGarbage) {
  EXPECT_FALSE(decode_es_message({}).has_value());
  EXPECT_FALSE(decode_es_message({'X', 1, 2, 3}).has_value());
  Bytes good = encode_es_message(EsMessage{Value(1)});
  good.pop_back();  // truncated
  EXPECT_FALSE(decode_es_message(good).has_value());
  good = encode_es_message(EsMessage{Value(1)});
  good.push_back(0);  // trailing junk
  EXPECT_FALSE(decode_es_message(good).has_value());
}

TEST(EssCodec, RoundTripWithHistoriesAndCounters) {
  HistoryArena tx, rx;
  History h = tx.of({Value(1), Value(2), Value(3)});
  CounterMap c;
  c.set(tx.of({Value(1)}), 4);
  c.set(h, 9);
  EssMessage m{ValueSet{Value(2), Value::Bottom()}, h, c};
  auto back = decode_ess_message(encode_ess_message(m), &rx);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->proposed, m.proposed);
  EXPECT_EQ(back->history.values(), m.history.values());
  EXPECT_EQ(back->counters.size(), 2u);
  EXPECT_EQ(back->counters.get(rx.of({Value(1)})), 4u);
  EXPECT_EQ(back->counters.get(rx.of({Value(1), Value(2), Value(3)})), 9u);
}

TEST(EssCodec, DecodedHistoriesInternIntoReceiverArena) {
  HistoryArena tx, rx;
  EssMessage m{ValueSet{}, tx.of({Value(1), Value(2)}), CounterMap{}};
  auto a = decode_ess_message(encode_ess_message(m), &rx);
  auto b = decode_ess_message(encode_ess_message(m), &rx);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->history, b->history);  // pointer-equal via rx interning
}

TEST(EssCodec, RejectsGarbage) {
  HistoryArena rx;
  EXPECT_FALSE(decode_ess_message({}, &rx).has_value());
  EXPECT_FALSE(decode_ess_message({'S'}, &rx).has_value());
}

// ---------- live ingress policy ----------

TEST(JitterPolicy, LossPolicyDrops) {
  JitterPolicy policy(1, std::chrono::milliseconds(0), /*loss=*/1.0);
  for (std::size_t subscriber = 0; subscriber < 2; ++subscriber)
    EXPECT_FALSE(policy.delivery_delay(subscriber).has_value());
}

// The live loss knob and the simulator's FaultPlan share one coin: the
// JitterPolicy verdict sequence is exactly the hash_chance draws over the
// fault_stream_seed-derived stream.  Pins the unification so the two
// backends can't silently drift apart.
TEST(JitterPolicy, JitterLossMatchesFaultStreamHash) {
  const std::uint64_t seed = 42;
  const double loss = 0.5;
  JitterPolicy policy(seed, std::chrono::milliseconds(0), loss);
  const std::uint64_t stream = fault_stream_seed(seed, 0);
  std::size_t drops = 0;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const bool dropped = !policy.delivery_delay(/*subscriber=*/1).has_value();
    EXPECT_EQ(dropped, hash_chance(hash_mix(stream, i, 1, 0), loss));
    drops += dropped ? 1 : 0;
  }
  EXPECT_GT(drops, 0u);    // the coin actually flips both ways
  EXPECT_LT(drops, 256u);
}

}  // namespace
}  // namespace anon

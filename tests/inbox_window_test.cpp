// InboxWindow / InboxView / BatchInterner semantics (PR 2 tentpole):
// two-round read window, late-round clamping, early-round overflow,
// payload interning, and view determinism.
#include "giraf/inbox.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/value.hpp"

namespace anon {
namespace {

ValueSet vs(std::initializer_list<std::int64_t> xs) {
  ValueSet s;
  for (auto x : xs) s.insert(Value(x));
  return s;
}

// A message that counts its content comparisons, and those of an object
// with itself.  It has no MessageDigest specialization, so every message
// digests to the fallback constant and every pair of messages ties on
// digest: only pointer identity can spare a content compare.
struct Counted {
  int v = 0;
  static inline std::size_t compares = 0;
  static inline std::size_t self_compares = 0;

  static void note(const Counted& a, const Counted& b) {
    ++compares;
    if (&a == &b) ++self_compares;
  }
  friend bool operator==(const Counted& a, const Counted& b) {
    note(a, b);
    return a.v == b.v;
  }
  friend bool operator<(const Counted& a, const Counted& b) {
    note(a, b);
    return a.v < b.v;
  }
};

SharedBatch<Counted> counted_batch(int v) {
  return std::make_shared<const MessageBatch<Counted>>(
      detail::make_batch(std::vector<Counted>{Counted{v}}));
}

void reset_compares() {
  Counted::compares = 0;
  Counted::self_compares = 0;
}

TEST(InboxWindow, RejectsReadsOutsideTheTwoRoundWindow) {
  InboxWindow<ValueSet> w;
  w.advance_to(5);
  w.add_local(vs({1}), 5);
  w.add_local(vs({2}), 4);
  EXPECT_EQ(w.at(5).size(), 1u);
  EXPECT_EQ(w.at(4).size(), 1u);
  // Outside {k-1, k}: the regression the windowed inbox must keep.
  EXPECT_THROW(w.at(3), CheckFailure);
  EXPECT_THROW(w.at(6), CheckFailure);
  EXPECT_THROW(w.at(0), CheckFailure);
  w.advance_to(6);
  EXPECT_NO_THROW(w.at(5));
  EXPECT_THROW(w.at(4), CheckFailure);
}

TEST(InboxWindow, FarLateWritesClampIntoTheOldestReadableSlot) {
  InboxWindow<ValueSet> w;
  w.advance_to(10);
  w.add_local(vs({7}), 2);  // nine rounds late
  EXPECT_EQ(w.at(9).count(vs({7})), 1u);
  EXPECT_EQ(w.at(10).count(vs({7})), 0u);
}

TEST(InboxWindow, FarEarlyWritesWaitInOverflowAndMigrate) {
  InboxWindow<ValueSet> w;
  w.advance_to(1);
  w.add_local(vs({3}), 7);  // an unsynchronised peer is six rounds ahead
  EXPECT_THROW(w.at(7), CheckFailure);  // not readable yet
  w.advance_to(7);
  EXPECT_EQ(w.at(7).count(vs({3})), 1u);
}

TEST(InboxWindow, ForEachLiveSeesWindowAndOverflowOnce) {
  InboxWindow<ValueSet> w;
  w.advance_to(4);
  w.add_local(vs({1}), 1);  // clamps to round 3
  w.add_local(vs({2}), 4);
  w.add_local(vs({3}), 5);  // next round
  w.add_local(vs({4}), 9);  // overflow
  ValueSet all;
  std::size_t slots = 0;
  w.for_each_live([&](Round, const InboxView<ValueSet>& view) {
    ++slots;
    for (const ValueSet& m : view) set_union_inplace(all, m);
  });
  EXPECT_EQ(slots, 4u);
  EXPECT_EQ(all, vs({1, 2, 3, 4}));
}

TEST(InboxWindow, IdenticalContentDedupsAcrossBatches) {
  InboxWindow<ValueSet> w;
  w.advance_to(2);
  w.add_local(vs({5}), 2);
  w.add_local(vs({5}), 2);  // identical content, separate local batch
  w.add_local(vs({6}), 2);
  EXPECT_EQ(w.at(2).size(), 2u);
  EXPECT_EQ(w.at(2).count(vs({5})), 1u);
  EXPECT_EQ(w.at(2).count(vs({6})), 1u);
  EXPECT_EQ(w.at(2).count(vs({7})), 0u);
}

TEST(InboxWindow, SlotsAreClearedWhenReusedByTheRing) {
  // The 4-slot ring aliases round k and k+4; sliding must clear slots
  // before they are reused, so round-5 reads never see round-1 messages.
  InboxWindow<ValueSet> w;
  w.advance_to(1);
  w.add_local(vs({1}), 1);
  w.advance_to(5);
  EXPECT_EQ(w.at(5).size(), 0u);
  EXPECT_EQ(w.at(4).size(), 0u);
}

TEST(BatchInterner, IdenticalPayloadsShareOneObject) {
  BatchInterner<ValueSet> interner;
  InboxWindow<ValueSet> a, b, c;
  a.advance_to(1);
  b.advance_to(1);
  c.advance_to(1);
  a.add_local(vs({1, 2}), 1);
  b.add_local(vs({1, 2}), 1);  // same content, different "sender"
  c.add_local(vs({9}), 1);
  const SharedBatch<ValueSet> pa = interner.intern(a.at(1));
  const SharedBatch<ValueSet> pb = interner.intern(b.at(1));
  const SharedBatch<ValueSet> pc = interner.intern(c.at(1));
  EXPECT_EQ(pa.get(), pb.get());  // anonymity collapse: one payload
  EXPECT_NE(pa.get(), pc.get());
  interner.round_reset();
  // Content recurring in the very next round is *promoted*: the previous
  // round's object is reused (the steady state allocates nothing) and it
  // re-appears in fresh() so sharded barriers still canonicalize it.
  const SharedBatch<ValueSet> pa2 = interner.intern(a.at(1));
  EXPECT_EQ(pa.get(), pa2.get());
  ASSERT_EQ(interner.fresh().size(), 1u);
  EXPECT_EQ(interner.fresh()[0].get(), pa.get());
  interner.round_reset();
  interner.round_reset();  // content skipped a round: no longer promotable
  const SharedBatch<ValueSet> pa3 = interner.intern(a.at(1));
  EXPECT_NE(pa.get(), pa3.get());
  EXPECT_EQ(pa->msgs, pa3->msgs);
}

TEST(BatchInterner, SharedBatchesFeedReceiverInboxes) {
  BatchInterner<ValueSet> interner;
  InboxWindow<ValueSet> sender1, sender2;
  sender1.advance_to(1);
  sender2.advance_to(1);
  sender1.add_local(vs({4}), 1);
  sender2.add_local(vs({4}), 1);
  const auto p1 = interner.intern(sender1.at(1));
  const auto p2 = interner.intern(sender2.at(1));
  InboxWindow<ValueSet> receiver;
  receiver.advance_to(1);
  receiver.add_shared(p1, 1);
  receiver.add_shared(p2, 1);  // pointer-equal: dedups without compares
  EXPECT_EQ(receiver.at(1).size(), 1u);
  EXPECT_EQ(receiver.at(1).count(vs({4})), 1u);
}

TEST(InboxWindow, InternedPartsMergeByIdentity) {
  // One interned batch received from 64 senders, plus three distinct
  // batches: the merge must order and dedup the 64 parts by pointer and
  // never compare a message with itself.
  const SharedBatch<Counted> shared = counted_batch(5);
  InboxWindow<Counted> w;
  w.advance_to(2);
  for (int i = 0; i < 64; ++i) w.add_shared(shared, 2);
  for (int v : {9, 1, 7}) w.add_shared(counted_batch(v), 2);
  reset_compares();
  const InboxView<Counted>& view = w.at(2);
  EXPECT_EQ(Counted::self_compares, 0u)
      << "of " << Counted::compares << " content compares";
  ASSERT_EQ(view.size(), 4u);
  std::vector<int> got;
  for (const Counted& m : view) got.push_back(m.v);
  EXPECT_EQ(got, (std::vector<int>{1, 5, 7, 9}));
}

TEST(InboxWindow, SameContentComparesPayloadPointersFirst) {
  // Two windows holding the same payload objects are equal without a
  // single content compare.
  const SharedBatch<Counted> a = counted_batch(3);
  const SharedBatch<Counted> b = counted_batch(4);
  InboxWindow<Counted> x, y, z;
  for (InboxWindow<Counted>* w : {&x, &y, &z}) w->advance_to(2);
  x.add_shared(a, 2);
  x.add_shared(b, 2);
  y.add_shared(b, 2);
  y.add_shared(a, 2);
  z.add_shared(counted_batch(3), 2);  // equal content, distinct objects
  z.add_shared(counted_batch(4), 2);
  for (InboxWindow<Counted>* w : {&x, &y, &z}) w->at(2);  // materialize
  reset_compares();
  EXPECT_TRUE(x.same_content(y));
  EXPECT_EQ(Counted::compares, 0u);
  EXPECT_TRUE(x.same_content(z));  // content equality still decides
  EXPECT_GT(Counted::compares, 0u);
  EXPECT_EQ(Counted::self_compares, 0u);
}

TEST(InboxWindow, OverflowParkingIsCountedAndDrainsOnAdvance) {
  InboxWindow<ValueSet> w;
  w.advance_to(1);
  EXPECT_EQ(w.overflow_parked(), 0u);
  EXPECT_EQ(w.overflow_high_water(), 0u);
  w.add_local(vs({1}), 2);  // next round: ring slot, not overflow
  EXPECT_EQ(w.overflow_parked(), 0u);
  w.add_local(vs({2}), 5);  // far early: parked
  w.add_local(vs({3}), 6);
  w.add_local(vs({4}), 6);
  EXPECT_EQ(w.overflow_parked(), 3u);
  EXPECT_EQ(w.overflow_high_water(), 3u);
  w.advance_to(5);  // round-5 and round-6 parks migrate into the ring
  EXPECT_EQ(w.overflow_parked(), 0u);
  EXPECT_EQ(w.overflow_high_water(), 3u);  // high-water sticks
  EXPECT_EQ(w.at(5).count(vs({2})), 1u);
}

TEST(InboxWindow, OverflowParkingShedsGracefullyAtTheLimit) {
  // A peer running away from us hits the park limit — and the batch is
  // shed with a counted drop, NOT a CHECK abort (the pre-fault-layer
  // behavior).  Under heavy reorder/churn an over-eager peer is a
  // degradation to report, not a reason to kill the process.
  InboxWindow<ValueSet> w;
  w.advance_to(1);
  for (std::size_t i = 0; i < InboxWindow<ValueSet>::kOverflowParkLimit; ++i)
    w.add_local(vs({1}), 100 + static_cast<Round>(i));
  EXPECT_EQ(w.overflow_parked(), InboxWindow<ValueSet>::kOverflowParkLimit);
  EXPECT_EQ(w.overflow_dropped(), 0u);
  w.add_local(vs({2}), 99);  // over the cap: shed and counted
  EXPECT_EQ(w.overflow_parked(), InboxWindow<ValueSet>::kOverflowParkLimit);
  EXPECT_EQ(w.overflow_dropped(), 1u);
  // In-window writes are unaffected by a saturated park.
  w.add_local(vs({3}), 2);
  w.advance_to(2);
  EXPECT_EQ(w.at(2).count(vs({3})), 1u);
  // Sliding the window drains parks, re-opening capacity.
  w.advance_to(120);
  EXPECT_LT(w.overflow_parked(), InboxWindow<ValueSet>::kOverflowParkLimit);
  w.add_local(vs({4}), 100000);  // parks again, no drop
  EXPECT_EQ(w.overflow_dropped(), 1u);
}

TEST(InboxView, IterationOrderIsDeterministicAndDuplicateFree) {
  // Build the same inbox twice from batches arriving in different orders:
  // the materialized views must iterate identically (digest order is
  // content-derived).
  auto build = [](bool flip) {
    auto w = std::make_unique<InboxWindow<ValueSet>>();
    w->advance_to(3);
    if (flip) {
      w->add_local(vs({2, 3}), 3);
      w->add_local(vs({1}), 3);
      w->add_local(vs({2, 3}), 3);
    } else {
      w->add_local(vs({1}), 3);
      w->add_local(vs({2, 3}), 3);
    }
    return w;
  };
  auto wa = build(false);
  auto wb = build(true);
  const auto& va = wa->at(3);
  const auto& vb = wb->at(3);
  ASSERT_EQ(va.size(), 2u);
  ASSERT_EQ(vb.size(), 2u);
  auto ia = va.begin();
  auto ib = vb.begin();
  for (; ia != va.end(); ++ia, ++ib) EXPECT_EQ(*ia, *ib);
}

}  // namespace
}  // namespace anon

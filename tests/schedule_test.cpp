// Crash plans, hash utilities, and lock-step delivery mechanics.
#include "net/schedule.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/value.hpp"
#include "net/lockstep.hpp"

namespace anon {
namespace {

TEST(HashMix, DeterministicAndSpread) {
  EXPECT_EQ(hash_mix(1, 2, 3, 4), hash_mix(1, 2, 3, 4));
  EXPECT_NE(hash_mix(1, 2, 3, 4), hash_mix(1, 2, 3, 5));
  EXPECT_NE(hash_mix(1, 2, 3, 4), hash_mix(2, 2, 3, 4));
}

TEST(HashBelow, InRange) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    std::uint64_t h = hash_mix(42, i, 0, 0);
    EXPECT_LT(hash_below(h, 7), 7u);
  }
}

TEST(CrashPlan, Defaults) {
  CrashPlan plan;
  EXPECT_EQ(plan.crash_round(0), kNeverCrashes);
  EXPECT_FALSE(plan.ever_crashes(0));
  EXPECT_TRUE(plan.executes_eor(0, 1000000));
  EXPECT_TRUE(plan.receives_in_round(0, 1000000));
  EXPECT_EQ(plan.correct(3).size(), 3u);
}

TEST(CrashPlan, CrashSemantics) {
  CrashPlan plan;
  plan.crash_at(1, 5);
  // Executes its 5th end-of-round (the crashing broadcast) but not the 6th.
  EXPECT_TRUE(plan.executes_eor(1, 5));
  EXPECT_FALSE(plan.executes_eor(1, 6));
  // Dead during round 5 for receiving purposes.
  EXPECT_TRUE(plan.receives_in_round(1, 4));
  EXPECT_FALSE(plan.receives_in_round(1, 5));
  EXPECT_EQ(plan.correct(3), (std::vector<ProcId>{0, 2}));
  EXPECT_EQ(plan.crash_count(), 1u);
}

TEST(CrashPlan, ExplicitFinalAudience) {
  CrashPlan plan;
  CrashSpec spec;
  spec.crash_round = 2;
  spec.final_recipients = std::vector<ProcId>{0, 3};
  plan.set(1, spec);
  EXPECT_TRUE(plan.in_final_audience(1, 0, 5, 99));
  EXPECT_TRUE(plan.in_final_audience(1, 3, 5, 99));
  EXPECT_FALSE(plan.in_final_audience(1, 2, 5, 99));
  // Non-crashing senders deliver to everyone.
  EXPECT_TRUE(plan.in_final_audience(0, 2, 5, 99));
}

TEST(CrashPlan, FractionAudienceIsDeterministic) {
  CrashPlan plan;
  CrashSpec spec;
  spec.crash_round = 3;
  spec.final_fraction = 0.5;
  plan.set(2, spec);
  for (ProcId q = 0; q < 10; ++q)
    EXPECT_EQ(plan.in_final_audience(2, q, 10, 7),
              plan.in_final_audience(2, q, 10, 7));
}

// --- Lock-step engine mechanics, using EchoUnion-style automata. ---

class Collect final : public Automaton<ValueSet> {
 public:
  explicit Collect(std::int64_t seed) : seed_(seed) {}
  ValueSet initialize() override { return ValueSet{Value(seed_)}; }
  ValueSet compute(Round k, const Inboxes<ValueSet>& inboxes) override {
    seen_.clear();
    for (const ValueSet& m : inbox_at(inboxes, k))
      seen_.insert(m.begin(), m.end());
    return seen_;
  }
  ValueSet seen_;
  std::int64_t seed_;
};

std::vector<std::unique_ptr<Automaton<ValueSet>>> collectors(std::size_t n) {
  std::vector<std::unique_ptr<Automaton<ValueSet>>> autos;
  for (std::size_t i = 0; i < n; ++i)
    autos.push_back(std::make_unique<Collect>(static_cast<std::int64_t>(i)));
  return autos;
}

TEST(Lockstep, SynchronousDeliveryReachesEveryoneInRound) {
  SynchronousDelays delays;
  LockstepNet<ValueSet> net(collectors(4), delays, CrashPlan{});
  net.run_rounds(2);
  // After compute(1) with timely delivery, every process saw all 4 seeds.
  for (ProcId p = 0; p < 4; ++p) {
    const auto& a = dynamic_cast<const Collect&>(net.process(p).automaton());
    EXPECT_EQ(a.seen_.size(), 4u) << "process " << p;
  }
}

TEST(Lockstep, TraceRecordsTimelyDeliveries) {
  SynchronousDelays delays;
  LockstepNet<ValueSet> net(collectors(3), delays, CrashPlan{});
  net.run_rounds(3);
  std::size_t timely = 0;
  for (const auto& d : net.trace().deliveries())
    if (d.msg_round == d.receiver_round) ++timely;
  EXPECT_EQ(timely, net.trace().deliveries().size());
  EXPECT_GT(timely, 0u);
}

// Delay model: process 0's messages always arrive 2 rounds late.
class SlowSender final : public DelayModel {
 public:
  Round delay(Round, ProcId sender, ProcId) const override {
    return sender == 0 ? 2 : 0;
  }
};

TEST(Lockstep, LateMessagesMissTheRoundCompute) {
  SlowSender delays;
  LockstepNet<ValueSet> net(collectors(3), delays, CrashPlan{});
  net.run_rounds(2);
  // compute(1): processes 1,2 see seeds {1,2} but not 0's.
  for (ProcId p = 1; p < 3; ++p) {
    const auto& a = dynamic_cast<const Collect&>(net.process(p).automaton());
    EXPECT_EQ(a.seen_.count(Value(0)), 0u);
    EXPECT_EQ(a.seen_.size(), 2u);
  }
  // Process 0 sees its own seed plus 1, 2.
  const auto& a0 = dynamic_cast<const Collect&>(net.process(0).automaton());
  EXPECT_EQ(a0.seen_.size(), 3u);
}

TEST(Lockstep, CrashedProcessStopsParticipating) {
  SynchronousDelays delays;
  CrashPlan crashes;
  CrashSpec spec;
  spec.crash_round = 2;
  spec.final_recipients = std::vector<ProcId>{};  // silent crash
  crashes.set(0, spec);
  LockstepOptions opt;
  opt.relay_partial_broadcast = false;
  LockstepNet<ValueSet> net(collectors(3), delays, crashes, opt);
  net.run_rounds(5);
  EXPECT_EQ(net.process(0).round(), 2u);  // executed eor 1, 2 only
  EXPECT_GT(net.process(1).round(), 4u);
}

TEST(Lockstep, PartialFinalBroadcastWithoutRelay) {
  SynchronousDelays delays;
  CrashPlan crashes;
  CrashSpec spec;
  spec.crash_round = 1;  // crashes during its very first broadcast
  spec.final_recipients = std::vector<ProcId>{1};
  crashes.set(0, spec);
  LockstepOptions opt;
  opt.relay_partial_broadcast = false;
  LockstepNet<ValueSet> net(collectors(3), delays, crashes, opt);
  net.run_rounds(4);
  // The network itself never delivers 0's final broadcast to process 2
  // (process 1 may still relay the VALUE at the application level, which is
  // exactly how reliable dissemination is built on top — but the message
  // delivery did not happen).
  for (const auto& d : net.trace().deliveries())
    EXPECT_FALSE(d.sender == 0 && d.receiver == 2);
  const auto& a1 = dynamic_cast<const Collect&>(net.process(1).automaton());
  EXPECT_EQ(a1.seen_.count(Value(0)), 1u);  // audience got it
}

TEST(Lockstep, PartialFinalBroadcastWithRelayEventuallyReachesAll) {
  SynchronousDelays delays;
  CrashPlan crashes;
  CrashSpec spec;
  spec.crash_round = 1;
  spec.final_recipients = std::vector<ProcId>{1};
  crashes.set(0, spec);
  LockstepOptions opt;
  opt.relay_partial_broadcast = true;  // reliable broadcast semantics
  opt.relay_extra_delay = 2;
  LockstepNet<ValueSet> net(collectors(3), delays, crashes, opt);
  net.run_rounds(6);
  // Process 2 received the round-1 message late; it sits in inbox slot 1.
  bool relayed = false;
  for (const auto& d : net.trace().deliveries())
    if (d.sender == 0 && d.receiver == 2 && d.msg_round == 1 &&
        d.receiver_round > 1)
      relayed = true;
  EXPECT_TRUE(relayed);
}

TEST(Lockstep, MetricsCount) {
  SynchronousDelays delays;
  LockstepNet<ValueSet> net(collectors(3), delays, CrashPlan{});
  net.run_rounds(2);
  EXPECT_GT(net.sends(), 0u);
  EXPECT_GT(net.deliveries(), 0u);
  EXPECT_GT(net.bytes_sent(), 0u);
}

TEST(Lockstep, MetricsCountPerMessageOnEveryLink) {
  // sends and bytes_sent are both per message per link, so their ratio is
  // the true mean wire size even for multi-message batches (E10).  Here
  // every batch is a single ValueSet, all delivered before the run stops:
  // 2 waves × 3 processes × 2 links.  A ValueSet's wire size is
  // MessageSizeOf<ValueSet> = 16 + 8·|set|: the first wave carries 6
  // one-value sets (24 B), the second 6 three-value sets (40 B).
  SynchronousDelays delays;
  LockstepNet<ValueSet> net(collectors(3), delays, CrashPlan{});
  net.run_rounds(2);
  EXPECT_EQ(net.sends(), 12u);
  EXPECT_EQ(net.deliveries(), net.sends());
  EXPECT_EQ(net.bytes_sent(), 6u * 24 + 6u * 40);
}

TEST(Lockstep, MaxRoundsStopsRun) {
  SynchronousDelays delays;
  LockstepOptions opt;
  opt.max_rounds = 7;
  LockstepNet<ValueSet> net(collectors(2), delays, CrashPlan{}, opt);
  auto res = net.run([](const LockstepNet<ValueSet>&) { return false; });
  EXPECT_FALSE(res.stopped);
  EXPECT_EQ(res.rounds, 7u);
}

}  // namespace
}  // namespace anon

// Environment generators produce traces that the validators certify, and
// the validators reject traces that violate the properties.
#include "env/generate.hpp"
#include "env/validate.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "common/value.hpp"
#include "net/lockstep.hpp"

namespace anon {
namespace {

class Noop final : public Automaton<ValueSet> {
 public:
  ValueSet initialize() override { return ValueSet{Value(1)}; }
  ValueSet compute(Round, const Inboxes<ValueSet>&) override {
    return ValueSet{Value(1)};
  }
};

std::vector<std::unique_ptr<Automaton<ValueSet>>> noops(std::size_t n) {
  std::vector<std::unique_ptr<Automaton<ValueSet>>> autos;
  for (std::size_t i = 0; i < n; ++i) autos.push_back(std::make_unique<Noop>());
  return autos;
}

Trace run_trace(const EnvParams& env, const CrashPlan& crashes, Round rounds) {
  EnvDelayModel delays(env, crashes);
  LockstepNet<ValueSet> net(noops(env.n), delays, crashes);
  net.run_rounds(rounds);
  return net.trace();
}

class EnvGenTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnvGenTest, MsScheduleSatisfiesMs) {
  EnvParams env;
  env.kind = EnvKind::kMS;
  env.n = 5;
  env.seed = GetParam();
  Trace t = run_trace(env, CrashPlan{}, 30);
  auto res = check_environment(t, env.n, CrashPlan{}.correct(env.n));
  EXPECT_TRUE(res.ms_ok) << res.to_string();
  EXPECT_GE(res.checked_rounds, 29u);
}

TEST_P(EnvGenTest, EsScheduleHasEsWitnessAfterGst) {
  EnvParams env;
  env.kind = EnvKind::kES;
  env.n = 4;
  env.seed = GetParam();
  env.stabilization = 10;
  Trace t = run_trace(env, CrashPlan{}, 30);
  auto res = check_environment(t, env.n, CrashPlan{}.correct(env.n));
  EXPECT_TRUE(res.ms_ok) << res.to_string();
  ASSERT_TRUE(res.es_from.has_value()) << res.to_string();
  EXPECT_LE(*res.es_from, 11u);
}

TEST_P(EnvGenTest, EssScheduleHasStableSource) {
  EnvParams env;
  env.kind = EnvKind::kESS;
  env.n = 6;
  env.seed = GetParam();
  env.stabilization = 8;
  CrashPlan crashes;
  crashes.crash_at(2, 5);
  Trace t = run_trace(env, crashes, 40);
  auto res = check_environment(t, env.n, crashes.correct(env.n));
  EXPECT_TRUE(res.ms_ok) << res.to_string();
  ASSERT_TRUE(res.ess_from.has_value()) << res.to_string();
  EXPECT_LE(*res.ess_from, 9u);
  EnvDelayModel model(env, crashes);
  EXPECT_EQ(*res.ess_source, model.stable_source());
}

TEST_P(EnvGenTest, MsScheduleWithCrashesStillHasSources) {
  EnvParams env;
  env.kind = EnvKind::kMS;
  env.n = 6;
  env.seed = GetParam();
  CrashPlan crashes;
  crashes.crash_at(0, 3);
  crashes.crash_at(1, 7);
  crashes.crash_at(2, 7);
  Trace t = run_trace(env, crashes, 25);
  auto res = check_environment(t, env.n, crashes.correct(env.n));
  EXPECT_TRUE(res.ms_ok) << res.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvGenTest,
                         ::testing::Values(1, 2, 3, 7, 41, 1234, 99999));

// The source draw as EnvDelayModel made it while it kept per-process
// arrays: scan all n processes into an eligible vector, then index it with
// the round's hash.  The model now walks only its crash list; every draw
// must still pick the same process.
ProcId scan_stable_source(const EnvParams& env, const CrashPlan& crashes) {
  const std::vector<ProcId> correct = crashes.correct(env.n);
  return correct[hash_below(hash_mix(env.seed, 0x51ab1e, 0, 0),
                            correct.size())];
}

std::optional<ProcId> scan_planned_source(const EnvParams& env,
                                          const CrashPlan& crashes, Round k) {
  if (env.kind == EnvKind::kESS && k > env.stabilization)
    return scan_stable_source(env, crashes);
  std::vector<ProcId> eligible;
  for (ProcId p = 0; p < env.n; ++p)
    if (crashes.crash_round(p) > k) eligible.push_back(p);
  return eligible[hash_below(hash_mix(env.seed, 0x50ce, k, 0),
                             eligible.size())];
}

// Crash plans over n processes, each leaving at least one correct process:
// none, one crash at round 1, several at one round, and all but one
// process at spread rounds.  Every crash round lies in [1, 59], so k in
// [0, 60] covers one below, at and one above each of them.
std::vector<CrashPlan> source_draw_plans(std::size_t n) {
  std::vector<CrashPlan> plans(1);  // no crashes
  if (n < 2) return plans;
  CrashPlan first;
  first.crash_at(n - 1, 1);
  plans.push_back(first);
  CrashPlan several;
  for (ProcId p : {n - 1, ProcId{0}, n / 2})
    if (several.crash_count() + 1 < n) several.crash_at(p, 12);
  plans.push_back(several);
  CrashPlan all_but_one;
  const ProcId survivor = n / 3;
  for (ProcId p = 0; p < n; ++p)
    if (p != survivor) all_but_one.crash_at(p, 1 + (p * 7) % 59);
  plans.push_back(all_but_one);
  return plans;
}

TEST(EnvDelayModel, SourceDrawMatchesTheEligibleScan) {
  std::size_t draws = 0;
  for (EnvKind kind : {EnvKind::kMS, EnvKind::kES, EnvKind::kESS})
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 99999ull})
      for (std::size_t n : {1, 2, 3, 17, 64})
        for (const CrashPlan& crashes : source_draw_plans(n)) {
          EnvParams env;
          env.kind = kind;
          env.n = n;
          env.seed = seed;
          env.stabilization = 20;
          const EnvDelayModel model(env, crashes);
          ASSERT_EQ(model.stable_source(), scan_stable_source(env, crashes))
              << "seed " << seed << " n " << n;
          for (Round k = 0; k <= 60; ++k, ++draws)
            ASSERT_EQ(model.planned_source(k),
                      scan_planned_source(env, crashes, k))
                << to_string(kind) << " seed " << seed << " n " << n
                << " crashes " << crashes.crash_count() << " k " << k;
        }
  EXPECT_GT(draws, 10000u);
}

TEST(EnvValidate, DetectsMissingSource) {
  // Hand-build a trace where round 2 has no timely source.
  Trace t;
  for (ProcId p = 0; p < 2; ++p)
    for (Round k = 1; k <= 3; ++k) t.record_end_of_round(p, k, k);
  // Round 1 and 3: p0 timely to p1. Round 2: nothing timely.
  t.record_delivery(0, 1, 1, 1, 1);
  t.record_delivery(1, 1, 0, 1, 1);
  t.record_delivery(0, 2, 1, 3, 3);  // late
  t.record_delivery(1, 2, 0, 3, 3);  // late
  t.record_delivery(0, 3, 1, 3, 3);
  t.record_delivery(1, 3, 0, 3, 3);
  auto res = check_environment(t, 2, {0, 1});
  EXPECT_FALSE(res.ms_ok);
  EXPECT_EQ(res.first_ms_violation, 2u);
}

TEST(EnvValidate, SingleProcessIsTriviallyMs) {
  // With one (correct) process, its own message is local: it is a source.
  Trace t;
  for (Round k = 1; k <= 5; ++k) t.record_end_of_round(0, k, k);
  auto res = check_environment(t, 1, {0});
  EXPECT_TRUE(res.ms_ok);
  EXPECT_EQ(res.checked_rounds, 4u);  // round 5 is still open
  EXPECT_TRUE(res.es_from.has_value());
  EXPECT_TRUE(res.ess_from.has_value());
}

TEST(EnvValidate, ChecksOnlyCommonClosedPrefix) {
  // A correct process stuck in round 2 limits the checkable prefix to
  // round 1 (its round 2 is still open: late timely deliveries possible).
  Trace t;
  t.record_end_of_round(0, 1, 1);
  t.record_end_of_round(1, 1, 1);
  t.record_delivery(0, 1, 1, 1, 1);
  t.record_delivery(1, 1, 0, 1, 1);
  t.record_end_of_round(0, 2, 2);
  t.record_end_of_round(1, 2, 2);
  t.record_end_of_round(0, 3, 3);  // p1 never finishes round 3
  auto res = check_environment(t, 2, {0, 1});
  EXPECT_EQ(res.checked_rounds, 1u);
  EXPECT_TRUE(res.ms_ok);
}

TEST(EnvValidate, EmptyTraceNotCheckable) {
  Trace t;
  auto res = check_environment(t, 3, {0, 1, 2});
  EXPECT_FALSE(res.ms_ok);
  EXPECT_EQ(res.checked_rounds, 0u);
}

TEST(EnvValidate, EssWitnessIdentifiesTheStableProcess) {
  // p1 is the source in every round; p0 only in round 1.
  Trace t;
  const std::size_t n = 3;
  for (ProcId p = 0; p < n; ++p)
    for (Round k = 1; k <= 4; ++k) t.record_end_of_round(p, k, k);
  for (Round k = 1; k <= 4; ++k)
    for (ProcId q = 0; q < n; ++q)
      if (q != 1) t.record_delivery(1, k, q, k, k);
  for (ProcId q = 1; q < n; ++q) t.record_delivery(0, 1, q, 1, 1);
  auto res = check_environment(t, n, {0, 1, 2});
  EXPECT_TRUE(res.ms_ok);
  ASSERT_TRUE(res.ess_from.has_value());
  EXPECT_EQ(*res.ess_from, 1u);
  EXPECT_EQ(*res.ess_source, 1u);
}

TEST(HostileMs, SatisfiesMsButNeverStabilizes) {
  HostileMsModel delays(4, 7);
  LockstepNet<ValueSet> net(noops(4), delays, CrashPlan{});
  net.run_rounds(40);
  auto res = check_environment(net.trace(), 4, CrashPlan{}.correct(4));
  EXPECT_TRUE(res.ms_ok) << res.to_string();
  // The source moves every round: no stable-source suffix of length > 1,
  // and no all-timely suffix.
  if (res.ess_from.has_value()) {
    EXPECT_GE(*res.ess_from, res.checked_rounds);  // only a trivial suffix
  }
  if (res.es_from.has_value()) {
    EXPECT_GE(*res.es_from, res.checked_rounds);
  }
}

}  // namespace
}  // namespace anon

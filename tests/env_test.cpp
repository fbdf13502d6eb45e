// Environment generators produce traces that the validators certify, and
// the validators reject traces that violate the properties.  EnvMonitor,
// the one certifier in src/, is checked field by field against the
// map/set trace replay it replaced, kept here as the differential oracle.
#include "env/generate.hpp"
#include "env/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/value.hpp"
#include "emul/echo.hpp"
#include "emul/ms_emulation.hpp"
#include "env/faults.hpp"
#include "net/lockstep.hpp"

namespace anon {
namespace {

// The differential oracle: the original certifier, which rebuilds
// (sender, round) -> receivers as std::map/std::set from the whole trace.
EnvCheckResult oracle_check_environment(const Trace& trace, std::size_t n,
                                        const std::vector<ProcId>& correct) {
  EnvCheckResult res;
  ANON_CHECK(!correct.empty());

  // Rounds completed per process.
  std::vector<Round> completed(n, 0);
  for (const auto& e : trace.end_of_rounds())
    completed[e.process] = std::max(completed[e.process], e.round);

  Round K = kNeverCrashes;
  for (ProcId p : correct) K = std::min(K, completed[p]);
  if (K == kNeverCrashes || K <= 1) return res;  // nothing checkable
  K -= 1;  // the slowest process's current round is still open
  res.checked_rounds = K;

  // timely[(sender, k)] = receivers that got sender's round-k message no
  // later than their own round k (early receipt — receiver still in an
  // older round — is fine: the message sits in M[k] in time for
  // compute(k); only receiver_round > k misses the round).
  std::map<std::pair<ProcId, Round>, std::set<ProcId>> timely;
  for (const auto& d : trace.deliveries())
    if (d.receiver_round <= d.msg_round && d.msg_round <= K)
      timely[{d.sender, d.msg_round}].insert(d.receiver);

  // Which processes executed end-of-round k (sent a round-k message).
  std::set<std::pair<ProcId, Round>> eor;
  for (const auto& e : trace.end_of_rounds()) eor.insert({e.process, e.round});

  const std::set<ProcId> correct_set(correct.begin(), correct.end());

  auto is_timely_source = [&](ProcId s, Round k) {
    if (eor.count({s, k}) == 0) return false;
    auto it = timely.find({s, k});
    for (ProcId j : correct) {
      if (j == s) continue;  // own message is local
      if (it == timely.end() || it->second.count(j) == 0) return false;
    }
    return true;
  };

  // Per-round: all timely sources; whether all correct processes are timely.
  std::vector<std::vector<ProcId>> sources_per_round(K + 1);
  std::vector<bool> all_correct_timely(K + 1, false);
  res.ms_ok = true;
  for (Round k = 1; k <= K; ++k) {
    for (ProcId s = 0; s < n; ++s)
      if (is_timely_source(s, k)) sources_per_round[k].push_back(s);
    if (sources_per_round[k].empty() && res.ms_ok) {
      res.ms_ok = false;
      res.first_ms_violation = k;
    }
    bool all = true;
    for (ProcId j : correct)
      if (!is_timely_source(j, k)) {
        all = false;
        break;
      }
    all_correct_timely[k] = all;
    if (!sources_per_round[k].empty())
      res.sources.push_back(sources_per_round[k].front());
    else
      res.sources.push_back(n);  // sentinel: no source
  }
  if (!res.ms_ok) return res;

  // ES witness: smallest k0 with all_correct_timely on [k0, K].
  for (Round k0 = K;; --k0) {
    if (!all_correct_timely[k0]) {
      if (k0 < K) res.es_from = k0 + 1;
      break;
    }
    if (k0 == 1) {
      res.es_from = 1;
      break;
    }
  }

  // ESS witness: some process s timely-source on all of [k0, K]; take the
  // smallest such k0 over all s.
  std::optional<Round> best_k0;
  std::optional<ProcId> best_s;
  for (ProcId s = 0; s < n; ++s) {
    // Walk back from K while s stays a source.
    Round k0 = K + 1;
    for (Round k = K;; --k) {
      bool src = std::find(sources_per_round[k].begin(),
                           sources_per_round[k].end(),
                           s) != sources_per_round[k].end();
      if (!src) break;
      k0 = k;
      if (k == 1) break;
    }
    if (k0 <= K && (!best_k0 || k0 < *best_k0)) {
      best_k0 = k0;
      best_s = s;
    }
  }
  res.ess_from = best_k0;
  res.ess_source = best_s;
  return res;
}

std::string show(const std::optional<std::size_t>& v) {
  return v ? std::to_string(*v) : "-";
}

// Every field of EnvCheckResult, compared.
::testing::AssertionResult same_result(const EnvCheckResult& got,
                                       const EnvCheckResult& want) {
  std::ostringstream why;
  if (got.ms_ok != want.ms_ok) why << " ms_ok " << got.ms_ok << "/" << want.ms_ok;
  if (got.checked_rounds != want.checked_rounds)
    why << " checked_rounds " << got.checked_rounds << "/"
        << want.checked_rounds;
  if (got.first_ms_violation != want.first_ms_violation)
    why << " first_ms_violation " << got.first_ms_violation << "/"
        << want.first_ms_violation;
  if (got.es_from != want.es_from)
    why << " es_from " << show(got.es_from) << "/" << show(want.es_from);
  if (got.ess_from != want.ess_from)
    why << " ess_from " << show(got.ess_from) << "/" << show(want.ess_from);
  if (got.ess_source != want.ess_source)
    why << " ess_source " << show(got.ess_source) << "/"
        << show(want.ess_source);
  if (got.sources != want.sources) why << " sources differ";
  if (why.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "monitor/oracle:" << why.str() << " (" << got.to_string() << " vs "
         << want.to_string() << ")";
}

// The monitor's replay against the oracle's, on one trace.
::testing::AssertionResult monitor_matches_oracle(
    const Trace& t, std::size_t n, const std::vector<ProcId>& correct) {
  return same_result(check_environment(t, n, correct),
                     oracle_check_environment(t, n, correct));
}

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


// --- EnvMonitor edge cases (each also checked against the oracle) --------

// n processes that all run end-of-rounds 1..rounds.
Trace all_eors(std::size_t n, Round rounds) {
  Trace t;
  for (ProcId p = 0; p < n; ++p)
    for (Round k = 1; k <= rounds; ++k) t.record_end_of_round(p, k, k);
  return t;
}

TEST(EnvMonitor, EarlyReceiptIsTimelyLateReceiptIsNot) {
  // Round 1: p0's message reaches p1 while p1 is still in round 0 (early).
  // Round 2: p1's message reaches p0 in round 3 (late); p0's is on time.
  Trace t = all_eors(2, 4);
  t.record_delivery(0, 1, 1, 0, 0);
  t.record_delivery(0, 2, 1, 2, 2);
  t.record_delivery(1, 2, 0, 3, 3);
  t.record_delivery(0, 3, 1, 3, 3);
  const auto res = check_environment(t, 2, {0, 1});
  EXPECT_TRUE(res.ms_ok) << res.to_string();
  EXPECT_EQ(res.checked_rounds, 3u);
  EXPECT_EQ(res.sources, (std::vector<ProcId>{0, 0, 0}));
  ASSERT_TRUE(res.ess_from.has_value());
  EXPECT_EQ(*res.ess_from, 1u);
  EXPECT_EQ(*res.ess_source, 0u);
  EXPECT_FALSE(res.es_from.has_value());  // p1 is never timely
  EXPECT_TRUE(monitor_matches_oracle(t, 2, {0, 1}));

  Trace late = all_eors(2, 3);
  late.record_delivery(0, 1, 1, 2, 2);
  late.record_delivery(1, 1, 0, 2, 2);
  const auto bad = check_environment(late, 2, {0, 1});
  EXPECT_FALSE(bad.ms_ok);
  EXPECT_EQ(bad.first_ms_violation, 1u);
  EXPECT_TRUE(monitor_matches_oracle(late, 2, {0, 1}));
}

TEST(EnvMonitor, DuplicateDeliveriesCountOnce) {
  // p0's round-1 message reaches p1 twice but never p2: p0 needs two
  // correct receivers, so a double-counted duplicate would fake a source.
  EnvMonitor m(3, {0, 1, 2});
  for (ProcId p = 0; p < 3; ++p)
    for (Round k = 1; k <= 2; ++k) m.end_of_round(p, k);
  for (int i = 0; i < 2; ++i) m.delivery(0, 1, 1, 1);
  const auto res = m.result();
  EXPECT_FALSE(res.ms_ok);
  EXPECT_EQ(res.first_ms_violation, 1u);

  Trace t = all_eors(3, 2);
  for (int i = 0; i < 3; ++i) t.record_delivery(0, 1, 1, 1, 1);
  t.record_delivery(0, 1, 2, 1, 1);
  t.record_delivery(0, 1, 2, 0, 1);  // a second, early copy
  const auto ok = check_environment(t, 3, {0, 1, 2});
  EXPECT_TRUE(ok.ms_ok);
  EXPECT_EQ(ok.sources, std::vector<ProcId>{0});
  EXPECT_TRUE(monitor_matches_oracle(t, 3, {0, 1, 2}));
}

TEST(EnvMonitor, SelfAndNonCorrectReceiversAreIgnored) {
  // p2 crashes: p0 needs to reach p1 only.  p1's deliveries to itself and
  // to p2 do not make it a source; p0's round-1 message to p2 is not
  // needed.
  Trace t = all_eors(3, 2);
  t.record_delivery(0, 1, 1, 1, 1);
  t.record_delivery(1, 1, 1, 1, 1);
  t.record_delivery(1, 1, 2, 1, 1);
  const std::vector<ProcId> correct{0, 1};
  const auto res = check_environment(t, 3, correct);
  EXPECT_TRUE(res.ms_ok);
  EXPECT_EQ(res.sources, std::vector<ProcId>{0});
  ASSERT_TRUE(res.ess_source.has_value());
  EXPECT_EQ(*res.ess_source, 0u);
  EXPECT_TRUE(monitor_matches_oracle(t, 3, correct));

  // A non-correct sender that reaches every correct process is a source.
  Trace crashed = all_eors(3, 2);
  crashed.record_delivery(2, 1, 0, 1, 1);
  crashed.record_delivery(2, 1, 1, 1, 1);
  const auto c = check_environment(crashed, 3, correct);
  EXPECT_TRUE(c.ms_ok);
  EXPECT_EQ(c.sources, std::vector<ProcId>{2});
  EXPECT_TRUE(monitor_matches_oracle(crashed, 3, correct));
}

TEST(EnvMonitor, SenderWithoutEndOfRoundIsNotASource) {
  // p2 crashes before its end-of-round 2, yet (a faulty trace claims) its
  // round-2 message reached everyone: it is no round-2 source.
  Trace t;
  for (ProcId p = 0; p < 2; ++p)
    for (Round k = 1; k <= 3; ++k) t.record_end_of_round(p, k, k);
  t.record_end_of_round(2, 1, 1);
  for (Round k = 1; k <= 2; ++k) {
    t.record_delivery(2, k, 0, k, k);
    t.record_delivery(2, k, 1, k, k);
  }
  const std::vector<ProcId> correct{0, 1};
  const auto res = check_environment(t, 3, correct);
  EXPECT_FALSE(res.ms_ok);
  EXPECT_EQ(res.first_ms_violation, 2u);
  EXPECT_EQ(res.sources, (std::vector<ProcId>{2, 3}));
  EXPECT_TRUE(monitor_matches_oracle(t, 3, correct));
}

TEST(EnvMonitor, SingleProcessAndSingleCorrectProcess) {
  // n = 1: the process reaches nobody and needs nobody.
  Trace one = all_eors(1, 4);
  const auto r1 = check_environment(one, 1, {0});
  EXPECT_TRUE(r1.ms_ok);
  EXPECT_EQ(r1.checked_rounds, 3u);
  EXPECT_EQ(r1.sources, (std::vector<ProcId>{0, 0, 0}));
  EXPECT_EQ(r1.es_from, Round{1});
  EXPECT_EQ(r1.ess_from, Round{1});
  EXPECT_EQ(r1.ess_source, ProcId{0});
  EXPECT_TRUE(monitor_matches_oracle(one, 1, {0}));

  // |correct| = 1 of 3: the correct process is a source by itself, and a
  // crashed process is one as soon as it reaches the survivor.
  Trace t = all_eors(3, 3);
  t.record_delivery(2, 2, 1, 2, 2);
  const auto r3 = check_environment(t, 3, {1});
  EXPECT_TRUE(r3.ms_ok);
  EXPECT_EQ(r3.sources, (std::vector<ProcId>{1, 1}));
  EXPECT_EQ(r3.es_from, Round{1});
  EXPECT_EQ(r3.ess_from, Round{1});
  EXPECT_EQ(r3.ess_source, ProcId{1});
  EXPECT_TRUE(monitor_matches_oracle(t, 3, {1}));
}

TEST(EnvMonitor, AtMostOneCompletedRoundIsTheDefaultResult) {
  const EnvCheckResult none;
  for (Round rounds : {0, 1}) {
    Trace t = all_eors(3, rounds);
    t.record_delivery(0, 1, 1, 1, 1);
    t.record_delivery(0, 1, 2, 1, 1);
    EXPECT_TRUE(same_result(check_environment(t, 3, {0, 1, 2}), none));
    EXPECT_TRUE(monitor_matches_oracle(t, 3, {0, 1, 2}));
  }
  // One correct laggard holds K at 1 however far the others run.
  Trace lag = all_eors(2, 9);
  lag.record_end_of_round(2, 1, 1);
  EXPECT_TRUE(same_result(check_environment(lag, 3, {0, 1, 2}), none));
  EXPECT_TRUE(monitor_matches_oracle(lag, 3, {0, 1, 2}));
}

TEST(EnvMonitor, MsViolationLeavesWitnessesUnset) {
  // Round 2 lacks a source; rounds 1 and 3 have p0 and, from round 3 on,
  // everyone — yet a violated run reports no ES or ESS witness.
  Trace t = all_eors(2, 4);
  t.record_delivery(0, 1, 1, 1, 1);
  for (ProcId s = 0; s < 2; ++s) t.record_delivery(s, 3, 1 - s, 3, 3);
  const auto res = check_environment(t, 2, {0, 1});
  EXPECT_FALSE(res.ms_ok);
  EXPECT_EQ(res.first_ms_violation, 2u);
  EXPECT_FALSE(res.es_from.has_value());
  EXPECT_FALSE(res.ess_from.has_value());
  EXPECT_FALSE(res.ess_source.has_value());
  EXPECT_EQ(res.sources, (std::vector<ProcId>{0, 2, 0}));
  EXPECT_TRUE(monitor_matches_oracle(t, 2, {0, 1}));
}

TEST(EnvMonitor, EssTieGoesToTheSmallestId) {
  // p3 and p1 are sources in every round (p3's messages are recorded
  // first); p0 and p2 never.  Equal streaks: the witness is p1.
  const std::size_t n = 4;
  Trace t = all_eors(n, 5);
  for (Round k = 1; k <= 5; ++k)
    for (ProcId s : {ProcId{3}, ProcId{1}})
      for (ProcId q = 0; q < n; ++q)
        if (q != s) t.record_delivery(s, k, q, k, k);
  const auto res = check_environment(t, n, {0, 1, 2, 3});
  EXPECT_TRUE(res.ms_ok);
  EXPECT_EQ(res.ess_from, Round{1});
  EXPECT_EQ(res.ess_source, ProcId{1});
  EXPECT_FALSE(res.es_from.has_value());
  EXPECT_TRUE(monitor_matches_oracle(t, n, {0, 1, 2, 3}));
}

TEST(EnvMonitor, EventsPastTheCheckedPrefixAreIgnored) {
  // K = 2 (p1 completed 3 rounds).  Rounds 3.. have no deliveries at all,
  // and p0's deliveries there, timely or not, change nothing.
  Trace t = all_eors(2, 3);
  for (Round k = 4; k <= 40; ++k) t.record_end_of_round(0, k, k);
  for (Round k = 1; k <= 2; ++k) {
    t.record_delivery(0, k, 1, k, k);
    t.record_delivery(1, k, 0, k, k);
  }
  const auto base = check_environment(t, 2, {0, 1});
  for (Round k = 3; k <= 40; ++k) t.record_delivery(1, k, 0, 1, k);
  const auto res = check_environment(t, 2, {0, 1});
  EXPECT_TRUE(same_result(res, base));
  EXPECT_EQ(res.checked_rounds, 2u);
  EXPECT_EQ(res.es_from, Round{1});
  EXPECT_TRUE(monitor_matches_oracle(t, 2, {0, 1}));
}

TEST(EnvMonitor, CorruptRoundNumbersAreRejected) {
  EnvMonitor m(2, {0, 1});
  EXPECT_THROW(m.end_of_round(0, ~Round{0}), CheckFailure);
  EXPECT_THROW(m.delivery(0, ~Round{0}, 1, 0), CheckFailure);
  EXPECT_THROW(m.end_of_round(2, 1), CheckFailure);  // no such process
}

// --- Differential property tests: monitor == oracle --------------------

// A correct set of at least one process.
std::vector<ProcId> random_correct(Rng& r, std::size_t n) {
  std::vector<ProcId> correct;
  const double keep = 0.3 + 0.7 * r.real();
  for (ProcId p = 0; p < n; ++p)
    if (r.chance(keep)) correct.push_back(p);
  if (correct.empty()) correct.push_back(r.below(n));
  return correct;
}

// A synthetic trace with no causal order: end-of-round gaps and laggards,
// a per-round planned source, timely/early/late/self/duplicate deliveries
// to correct and crashed receivers alike, and traffic past the checked
// prefix.  Events are shuffled, so the trace's order means nothing.
Trace random_trace(Rng& r, std::size_t n) {
  Trace t;
  const Round rounds = 1 + r.below(10);
  const double timely = std::vector<double>{0.2, 0.6, 0.9, 1.0}[r.below(4)];
  std::vector<EndOfRoundEvent> eors;
  for (ProcId p = 0; p < n; ++p) {
    const Round last = rounds > 2 && r.chance(0.2) ? rounds - r.below(3)
                                                   : rounds;
    for (Round k = 1; k <= last; ++k) {
      if (r.chance(0.03)) continue;  // never ran this end-of-round
      eors.push_back({p, k, k});
      if (r.chance(0.02)) eors.push_back({p, k, k});
    }
    if (r.chance(0.02)) eors.push_back({p, 0, 0});
  }
  std::vector<DeliveryEvent> dels;
  for (Round k = 0; k <= rounds + 1; ++k) {
    const ProcId planned = r.chance(0.03) ? n : r.below(n);  // n: none
    for (ProcId s = 0; s < n; ++s)
      for (ProcId q = 0; q < n; ++q) {
        if (q == s && !r.chance(0.1)) continue;
        if (s != planned && !r.chance(0.9)) continue;
        Round rk = k;
        if (k > 0 && r.chance(0.2)) rk = k - 1 - r.below(k);  // early
        if (s != planned && !r.chance(timely)) rk = k + 1 + r.below(2);
        const int copies = r.chance(0.05) ? 2 : 1;
        for (int c = 0; c < copies; ++c) dels.push_back({s, k, q, rk, k});
      }
  }
  auto shuffle = [&r](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[r.below(i)]);
  };
  shuffle(eors);
  shuffle(dels);
  for (const auto& e : eors) t.record_end_of_round(e.process, e.round, e.time);
  for (const auto& d : dels)
    t.record_delivery(d.sender, d.msg_round, d.receiver, d.receiver_round,
                      d.time);
  return t;
}

TEST(EnvMonitorProperty, SyntheticTracesMatchTheOracle) {
  // Small n mostly; a few cases cross the 64-bit word of a bitset.
  const std::vector<std::size_t> sizes{1, 2, 2, 3, 3, 4, 5, 6, 7, 9, 12,
                                       63, 64, 65};
  std::size_t ms_ok = 0, violated = 0, es = 0, ess = 0;
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    Rng r(seed);
    std::size_t n = sizes[r.below(sizes.size())];
    if (n > 12 && !r.chance(0.25)) n = 1 + r.below(12);
    const std::vector<ProcId> correct = random_correct(r, n);
    const Trace t = random_trace(r, n);
    const EnvCheckResult want = oracle_check_environment(t, n, correct);
    ASSERT_TRUE(same_result(check_environment(t, n, correct), want))
        << "seed " << seed << " n " << n;

    // The same events fed online, end-of-rounds and deliveries
    // interleaved (the order a live engine would produce is one of many).
    EnvMonitor m(n, correct);
    std::size_t e = 0, d = 0;
    const auto& eors = t.end_of_rounds();
    const auto& dels = t.deliveries();
    while (e < eors.size() || d < dels.size()) {
      if (d == dels.size() || (e < eors.size() && r.chance(0.5))) {
        m.end_of_round(eors[e].process, eors[e].round);
        ++e;
      } else {
        m.delivery(dels[d].sender, dels[d].msg_round, dels[d].receiver,
                   dels[d].receiver_round);
        ++d;
      }
    }
    ASSERT_TRUE(same_result(m.result(), want)) << "seed " << seed;
    ms_ok += want.ms_ok;
    violated += want.checked_rounds > 0 && !want.ms_ok;
    es += want.es_from.has_value();
    ess += want.ess_from.has_value();
  }
  // The generator reaches every verdict, not just one.
  EXPECT_GT(ms_ok, 500u);
  EXPECT_GT(violated, 50u);
  EXPECT_GT(es, 200u);
  EXPECT_GT(ess, 500u);
}

// The e14 fault plan's shape (loss, duplication, reorder, an omission
// sender and a churn window); exempt_source off lets faults hit sources.
FaultParams e14_faults(double intensity, bool exempt_source) {
  FaultParams f;
  f.loss_prob = intensity;
  f.dup_prob = intensity / 2;
  f.dup_extra_delay = 2;
  f.reorder_prob = intensity;
  f.max_extra_delay = 3;
  f.omission_senders = {3};
  f.churn = {{5, 8, 20}};
  f.exempt_source = exempt_source;
  return f;
}

TEST(EnvMonitorProperty, LockstepTracesMatchTheOracle) {
  // LockstepNet feeds the monitor online while it records the full trace
  // for the oracle: MS, ES and ESS schedules, with and without crashes,
  // fault-free and under the e14 plan (which duplicates and reorders).
  std::size_t cases = 0, fault_cases = 0, not_ms = 0;
  for (EnvKind kind : {EnvKind::kMS, EnvKind::kES, EnvKind::kESS})
    for (std::uint64_t seed : {1ull, 2ull, 7ull, 1234ull})
      for (std::size_t n : {2, 5, 9, 65})
        for (int crash = 0; crash < 2; ++crash)
          for (int plan = 0; plan < 3; ++plan) {
            if (plan > 0 && n < 6) continue;  // the plan names p3 and p5
            if (n > 64 && seed > 2) continue;  // two bitset words: 2 seeds
            EnvParams env;
            env.kind = kind;
            env.n = n;
            env.seed = seed;
            env.stabilization = 6;
            CrashPlan crashes;
            if (crash != 0) {
              crashes.crash_at(0, 4);
              if (n > 2) crashes.crash_at(n - 1, 9);
            }
            EnvDelayModel delays(env, crashes);
            std::optional<FaultPlan> faults;
            if (plan > 0)
              faults.emplace(e14_faults(plan == 1 ? 0.15 : 0.3, plan == 1),
                             seed, n, &delays);
            const std::vector<ProcId> correct = crashes.correct(n);
            EnvMonitor monitor(n, correct);
            LockstepOptions opt;
            opt.seed = seed;
            opt.faults = faults ? &*faults : nullptr;
            opt.monitor = &monitor;
            LockstepNet<ValueSet> net(noops(n), delays, crashes, opt);
            net.run_rounds(n > 64 ? 14 : 30);
            const EnvCheckResult want =
                oracle_check_environment(net.trace(), n, correct);
            ASSERT_TRUE(same_result(monitor.result(), want))
                << to_string(kind) << " seed " << seed << " n " << n
                << " crash " << crash << " plan " << plan;
            ASSERT_TRUE(monitor_matches_oracle(net.trace(), n, correct));
            ASSERT_GT(want.checked_rounds, 10u);
            ++cases;
            fault_cases += plan > 0 && net.fault_dups() > 0;
            not_ms += !want.ms_ok;
          }
  EXPECT_EQ(cases, 3u * (4 * 3 + 2) * 2 + 3u * (4 + 2) * 2 * 2);
  EXPECT_GT(fault_cases, 20u);  // the plans really duplicated messages
  EXPECT_GT(not_ms, 0u);  // unexempted faults break MS somewhere
}

TEST(EnvMonitorProperty, EmulatedTracesMatchTheOracle) {
  // Algorithm 5's traces: skewed processes (rounds genuinely out of step,
  // so early and late receipt both occur) and weak-set operation faults.
  std::size_t cases = 0;
  for (std::uint64_t seed : {1ull, 5ull, 42ull, 777ull})
    for (std::size_t n : {3, 8, 33})
      for (int plan = 0; plan < 3; ++plan) {
        std::vector<std::unique_ptr<Automaton<ValueSet>>> autos;
        for (std::size_t i = 0; i < n; ++i)
          autos.push_back(
              std::make_unique<EchoAutomaton>(static_cast<std::int64_t>(i)));
        MsEmulationOptions opt;
        opt.seed = seed;
        opt.skew.assign(n, 1);
        opt.skew[1] = 4;
        opt.skew[n - 1] = 2 + seed % 5;
        if (plan > 0) {
          FaultParams f;
          f.loss_prob = plan == 1 ? 0.2 : 0.5;
          f.reorder_prob = 0.3;
          f.max_extra_delay = 5;
          f.omission_senders = {0};
          f.churn = {{2, 40, plan == 1 ? 90u : 160u}};
          opt.faults = EmulFaultModel(f, seed, n);
        }
        MsEmulation<ValueSet> emu(std::move(autos), opt);
        emu.run_until_round(30);
        std::vector<ProcId> all(n);
        for (ProcId p = 0; p < n; ++p) all[p] = p;
        const EnvCheckResult got = check_environment(emu.trace(), n, all);
        ASSERT_TRUE(
            same_result(got, oracle_check_environment(emu.trace(), n, all)))
            << "seed " << seed << " n " << n << " plan " << plan;
        EXPECT_TRUE(got.ms_ok) << got.to_string();  // Theorem 4
        EXPECT_GT(got.checked_rounds, 20u);
        ++cases;
      }
  EXPECT_EQ(cases, 36u);
}

}  // namespace
}  // namespace anon

// Experiment-support utilities (stats) and runner plumbing.
#include <gtest/gtest.h>

#include <sstream>

#include "algo/runner.hpp"
#include "sim/experiment.hpp"

namespace anon {
namespace {

TEST(Aggregate, BasicStats) {
  auto s = aggregate({3, 1, 2});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 3);
  EXPECT_DOUBLE_EQ(s.mean, 2);
  EXPECT_DOUBLE_EQ(s.p50, 2);
}

TEST(Aggregate, EmptyIsZeroed) {
  auto s = aggregate({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(Aggregate, ToStringFormat) {
  auto s = aggregate({1, 2});
  EXPECT_EQ(s.to_string(), "1.5 [1.0..2.0]");
}

TEST(ExperimentSeeds, DeterministicAndDistinct) {
  auto a = experiment_seeds(5);
  auto b = experiment_seeds(5);
  EXPECT_EQ(a, b);
  std::set<std::uint64_t> uniq(a.begin(), a.end());
  EXPECT_EQ(uniq.size(), 5u);
}

// --- runner helpers ---

TEST(RunnerHelpers, DistinctAndIdenticalValues) {
  auto d = distinct_values(3);
  EXPECT_EQ(d, (std::vector<Value>{Value(100), Value(101), Value(102)}));
  auto i = identical_values(2, 9);
  EXPECT_EQ(i, (std::vector<Value>{Value(9), Value(9)}));
}

TEST(RunnerHelpers, RandomValuesInRangeAndDeterministic) {
  auto a = random_values(20, 7, -5, 5);
  auto b = random_values(20, 7, -5, 5);
  EXPECT_EQ(a, b);
  for (const Value& v : a) {
    EXPECT_GE(v.get(), -5);
    EXPECT_LE(v.get(), 5);
  }
}

TEST(RunnerHelpers, RandomCrashesRespectBounds) {
  auto plan = random_crashes(6, 3, 10, 42);
  EXPECT_EQ(plan.crash_count(), 3u);
  EXPECT_EQ(plan.correct(6).size(), 3u);
  for (ProcId p = 0; p < 6; ++p) {
    if (!plan.ever_crashes(p)) continue;
    EXPECT_GE(plan.crash_round(p), 1u);
    EXPECT_LE(plan.crash_round(p), 10u);
  }
  EXPECT_THROW(random_crashes(3, 3, 5, 1), CheckFailure);  // nobody left
}

TEST(RunnerReport, ToStringMentionsOutcome) {
  ConsensusConfig cfg;
  cfg.env.kind = EnvKind::kES;
  cfg.env.n = 2;
  cfg.env.seed = 4;
  cfg.initial = distinct_values(2);
  auto rep = run_consensus(ConsensusAlgo::kEs, cfg);
  const std::string s = rep.to_string();
  EXPECT_NE(s.find("decided=all"), std::string::npos);
  EXPECT_NE(s.find("agreement=ok"), std::string::npos);
}

TEST(RunnerReport, AlgoNames) {
  EXPECT_STREQ(to_string(ConsensusAlgo::kEs), "ES/Alg2");
  EXPECT_STREQ(to_string(ConsensusAlgo::kEss), "ESS/Alg3");
  EXPECT_STREQ(to_string(EnvKind::kMS), "MS");
  EXPECT_STREQ(to_string(EnvKind::kES), "ES");
  EXPECT_STREQ(to_string(EnvKind::kESS), "ESS");
}

}  // namespace
}  // namespace anon

// A one-thread cohort run never starts the worker pool.
//
// WorkerPool::shared() starts hardware_concurrency - 1 threads on first
// use, and once a process has a second thread libstdc++ makes every
// shared_ptr refcount (each SharedBatch copy included) an atomic
// operation for the rest of the process.  So the cohort engines loop over
// their shards inline when they have one participant.  No test in this
// binary starts the pool, which makes the process's own thread count the
// observable.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>

#include "algo/es_consensus.hpp"
#include "algo/runner.hpp"
#include "env/generate.hpp"
#include "net/cohort.hpp"
#include "scenario/registry.hpp"

namespace anon {
namespace {

// Threads of this process, from /proc/self/status (0 where it is absent).
std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

#define REQUIRE_ONE_THREAD()                                      \
  if (thread_count() == 0) GTEST_SKIP() << "no /proc/self/status"; \
  ASSERT_EQ(thread_count(), 1u) << "a test before this one started a thread"

TEST(OneThreadCohort, ConsensusRunKeepsTheProcessSingleThreaded) {
  REQUIRE_ONE_THREAD();
  // Eight proposal classes, crashes mid-run and pre-GST asymmetry: the
  // compute wave, fan-out, merge pass, decision stamps and reindex all run.
  EnvParams env;
  env.kind = EnvKind::kES;
  env.n = 64;
  env.seed = 3;
  env.stabilization = 4;
  const CrashPlan crashes = random_crashes(env.n, 4, 6, 11);
  const EnvDelayModel delays(env, crashes);
  CohortOptions opt;
  opt.seed = 3;
  opt.engine_threads = 1;
  CohortNet<EsMessage> net(
      groups_by_initial_value<EsMessage>(
          random_values(env.n, 3, 100, 107),
          [](const Value& v) { return std::make_unique<EsConsensus>(v); }),
      delays, crashes, opt);
  EXPECT_TRUE(net.run_until_all_correct_decided().stopped);
  EXPECT_GE(net.stats().splits, 1u);
  EXPECT_EQ(thread_count(), 1u);
}

TEST(OneThreadCohort, CohortPresetsThroughTheRegistryStaySingleThreaded) {
  REQUIRE_ONE_THREAD();
  // One seed and one sweep thread, so the runners' sweeps stay inline too.
  for (const char* name : {"e13-fast", "e16-ws-fast", "e16-emul-fast"}) {
    SCOPED_TRACE(name);
    const ScenarioPreset* preset =
        ScenarioRegistry::instance().find_preset(name);
    ASSERT_NE(preset, nullptr);
    ScenarioSpec spec = preset->spec;
    spec.seeds.resize(1);
    spec.consensus.engine_threads = 1;
    spec.weakset.engine_threads = 1;
    spec.emulation.engine_threads = 1;
    ScenarioRegistry::instance().run(spec, {.threads = 1});
    EXPECT_EQ(thread_count(), 1u);
  }
}

}  // namespace
}  // namespace anon

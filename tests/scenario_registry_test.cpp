// The scenario registry: byte-identity of driver-produced reports against
// the pre-redesign per-family pipelines (E1 consensus sweep, E5 emulation,
// E7 shm construction), thread-count invariance of the deterministic
// report JSON, and the first-class error surface.
#include <gtest/gtest.h>

#include <algorithm>

#include "algo/runner.hpp"
#include "emul/echo.hpp"
#include "emul/ms_emulation.hpp"
#include "env/validate.hpp"
#include "scenario/registry.hpp"
#include "sim/experiment.hpp"
#include "weakset/ws_from_swmr.hpp"

namespace anon {
namespace {

ScenarioRegistry& registry() { return ScenarioRegistry::instance(); }

// ---- byte-identity vs the pre-redesign pipelines ---------------------------

// The exact consensus config the experiment binaries built before the
// redesign, kept verbatim as the reference.
ConsensusConfig legacy_consensus_config(EnvKind kind, std::size_t n,
                                        Round stab, std::uint64_t seed,
                                        std::size_t crashes = 0) {
  ConsensusConfig cfg;
  cfg.env.kind = kind;
  cfg.env.n = n;
  cfg.env.seed = seed;
  cfg.env.stabilization = stab;
  cfg.initial = distinct_values(n);
  cfg.net.seed = seed;
  cfg.net.max_rounds = 60000;
  cfg.net.record_deliveries = false;
  cfg.validate_env = false;
  if (crashes > 0)
    cfg.crashes =
        random_crashes(n, crashes, std::max<Round>(2, stab), seed + 7);
  return cfg;
}

TEST(ScenarioByteIdentity, E1DriverReportsMatchThePreRedesignSweep) {
  const auto seeds = experiment_seeds(6);
  // Pre-redesign path: hand-built configs through run_consensus_sweep.
  std::vector<ConsensusConfig> grid;
  for (auto seed : seeds)
    grid.push_back(legacy_consensus_config(EnvKind::kES, 16, 0, seed));
  const auto legacy = run_consensus_sweep(ConsensusAlgo::kEs, grid);

  // Driver path: the E1-shaped spec.
  ScenarioSpec spec = registry().find_preset("e1")->spec;
  spec.n = 16;
  spec.seeds = seeds;
  const auto report = registry().run(spec);

  ASSERT_EQ(report.consensus_cells.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(report.consensus_cells[i].report.to_string(),
              legacy[i].to_string())
        << "cell " << i;
  }
}

TEST(ScenarioByteIdentity, E1CrashGridMatchesToo) {
  const auto seeds = experiment_seeds(4);
  std::vector<ConsensusConfig> grid;
  for (auto seed : seeds)
    grid.push_back(legacy_consensus_config(EnvKind::kES, 8, 12, seed, 3));
  const auto legacy = run_consensus_sweep(ConsensusAlgo::kEs, grid);

  ScenarioSpec spec = registry().find_preset("e1")->spec;
  spec.n = 8;
  spec.stabilization = 12;
  spec.seeds = seeds;
  spec.crashes.kind = CrashGenSpec::Kind::kRandom;
  spec.crashes.count = 3;
  spec.crashes.horizon = 12;
  spec.crashes.seed_offset = 7;
  const auto report = registry().run(spec);

  ASSERT_EQ(report.consensus_cells.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i)
    EXPECT_EQ(report.consensus_cells[i].report.to_string(),
              legacy[i].to_string());
}

TEST(ScenarioByteIdentity, E5DriverCellsMatchThePreRedesignLoop) {
  const auto seeds = experiment_seeds(4);
  const std::size_t n = 8;
  const Round rounds = 25;

  // Pre-redesign path: the bench's hand-rolled emulation loop.
  std::vector<std::pair<bool, std::size_t>> legacy;  // (certified, deliveries)
  for (auto seed : seeds) {
    MsEmulationOptions opt;
    opt.seed = seed;
    MsEmulation<ValueSet> emu(echo_automatons(n), opt);
    ASSERT_TRUE(emu.run_until_round(rounds));
    std::vector<ProcId> all(n);
    for (ProcId p = 0; p < n; ++p) all[p] = p;
    legacy.emplace_back(check_environment(emu.trace(), n, all).ms_ok,
                        emu.trace().deliveries().size());
  }

  ScenarioSpec spec = registry().find_preset("e5")->spec;
  spec.n = n;
  spec.emulation.rounds = rounds;
  spec.seeds = seeds;
  const auto report = registry().run(spec);

  ASSERT_EQ(report.emulation_cells.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(report.emulation_cells[i].ms_certified, legacy[i].first);
    EXPECT_EQ(report.emulation_cells[i].trace_deliveries, legacy[i].second);
  }
}

TEST(ScenarioByteIdentity, E7DriverCellsMatchThePreRedesignLoop) {
  const auto seeds = experiment_seeds(4);
  const std::size_t n = 4;
  const std::uint64_t ops = 100, domain = 13;

  // Pre-redesign path: the bench's script generator + runner, verbatim.
  auto legacy_script = [&] {
    std::vector<ShmWsScriptOp> script;
    for (std::uint64_t i = 0; i < ops; ++i) {
      script.push_back({i * 2, i % n, true,
                        Value(static_cast<std::int64_t>(i % domain))});
      script.push_back({i * 2 + 1, (i + 1) % n, false, Value()});
    }
    return script;
  }();
  std::vector<std::pair<bool, std::size_t>> legacy;  // (spec_ok, records)
  for (auto seed : seeds) {
    auto records = run_ws_from_swmr(n, legacy_script, seed);
    legacy.emplace_back(check_weak_set_spec(records).ok, records.size());
  }

  ScenarioSpec spec = registry().find_preset("e7-swmr")->spec;
  spec.n = n;
  spec.shm.gen_ops = ops;
  spec.seeds = seeds;
  const auto report = registry().run(spec);

  ASSERT_EQ(report.shm_cells.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(report.shm_cells[i].spec_ok, legacy[i].first);
    EXPECT_EQ(report.shm_cells[i].records, legacy[i].second);
  }
}

// ---- determinism: spec → run → report at any thread count ------------------

TEST(ScenarioDeterminism, ReportJsonIsIdenticalAtAnyThreadCount) {
  std::vector<std::string> preset_names = {"e1-fast", "e4-fast", "e5-fast",
                                           "e7-fast", "e6-abd-fast",
                                           "e9-omega-fast"};
  for (const auto& name : preset_names) {
    SCOPED_TRACE(name);
    const ScenarioSpec& spec = registry().find_preset(name)->spec;
    const std::string serial =
        registry().run(spec, {.threads = 1}).to_json_string(false);
    for (std::size_t threads : {2u, 8u}) {
      EXPECT_EQ(registry().run(spec, {.threads = threads}).to_json_string(false),
                serial)
          << "at " << threads << " threads";
    }
  }
}

TEST(ScenarioDeterminism, SameSpecSameSeedsSameReport) {
  const ScenarioSpec& spec = registry().find_preset("e2-fast")->spec;
  EXPECT_EQ(registry().run(spec).to_json_string(false),
            registry().run(spec).to_json_string(false));
}

// ---- registry surface -------------------------------------------------------

TEST(ScenarioRegistrySurface, EveryFamilyHasARunnerAndAPreset) {
  for (ScenarioFamily family : all_scenario_families()) {
    EXPECT_TRUE(registry().has_family(family)) << to_string(family);
    bool has_preset = false;
    for (const auto& p : registry().presets())
      if (p.spec.family == family) has_preset = true;
    EXPECT_TRUE(has_preset) << to_string(family);
  }
}

TEST(ScenarioRegistrySurface, InvalidSpecThrowsWithFieldPaths) {
  ScenarioSpec spec;  // consensus defaults...
  spec.n = 0;         // ...but a nonsense environment
  try {
    registry().run(spec);
    FAIL() << "expected ScenarioSpecError";
  } catch (const ScenarioSpecError& e) {
    ASSERT_FALSE(e.errors().empty());
    EXPECT_EQ(e.errors()[0].path, "env.n");
    EXPECT_NE(std::string(e.what()).find("env.n"), std::string::npos);
  }
}

TEST(ScenarioRegistrySurface, RunPresetAndSchemaWork) {
  const auto report = registry().run_preset("e1-fast");
  EXPECT_EQ(report.name, "e1-fast");
  EXPECT_EQ(report.family, ScenarioFamily::kConsensus);
  EXPECT_EQ(report.cells(), 3u);

  const auto schema = report_schema(report.to_json());
  auto contains = [&](const std::string& key) {
    return std::find(schema.begin(), schema.end(), key) != schema.end();
  };
  EXPECT_TRUE(contains("scenario.family"));
  EXPECT_TRUE(contains("outcome.cells[].decided"));
  EXPECT_TRUE(contains("metrics.deliveries"));
  EXPECT_TRUE(contains("timing.wall_s"));
  // The deterministic emission drops timing (and only timing).
  const auto det = report_schema(report.to_json(false));
  EXPECT_EQ(std::count_if(det.begin(), det.end(),
                          [](const std::string& k) {
                            return k.rfind("timing.", 0) == 0;
                          }),
            0);
}

TEST(ScenarioRegistrySurface, UnknownPresetThrows) {
  EXPECT_THROW(registry().run_preset("nope"), std::out_of_range);
}

}  // namespace
}  // namespace anon

// Shared helpers for the experiment binaries.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "algo/runner.hpp"
#include "common/check.hpp"
#include "core/sweep.hpp"
#include "scenario/registry.hpp"
#include "sim/bench_json.hpp"
#include "sim/experiment.hpp"
#include "sim/table.hpp"

namespace anon::bench {

// CI smoke mode (ANON_BENCH_SMOKE=1): benches shrink their grids to a
// seconds-long configuration that still exercises every code path, so the
// Release bench job catches regressions without the full table cost.
inline bool smoke() {
  const char* v = std::getenv("ANON_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Where the machine-readable results go (BENCH_E1.json etc.).  Defaults to
// the working directory; override with ANON_BENCH_JSON_DIR.
inline std::string json_path(const std::string& filename) {
  const char* dir = std::getenv("ANON_BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return filename;
  return std::string(dir) + "/" + filename;
}

// Writes a bench's results to `path` with its provenance stamped in:
// hardware_threads, the build type (ANON_BUILD_TYPE, the CMake
// configuration CMakeLists.txt defines for every bench target) and the
// compiler version.  Every bench writes its BENCH_*.json through here, so
// no committed number lacks them.
inline bool write_json(BenchJson& j, const std::string& path) {
  j.set("hardware_threads",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.set("build_type", std::string(ANON_BUILD_TYPE));
  j.set("compiler", std::string(__VERSION__));
  return j.write(path);
}

// Runs the experiment tables first, then google-benchmark.  Every bench
// uses the ANON_BENCH_MAIN macro below rather than its own main().
inline int main_with_tables(int argc, char** argv, void (*print_tables)()) {
  print_tables();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

// Runs a spec through the one scenario surface (ScenarioRegistry).  All
// bench tables dispatch here; the per-family setup loops the benches used
// to hand-roll live behind the family runners now.
inline ScenarioReport run_scenario(const ScenarioSpec& spec,
                                   std::size_t threads = 0) {
  return ScenarioRegistry::instance().run(spec, {.threads = threads});
}

// A copy of a registered preset's spec, for benches that rescale it
// (seed counts, smoke grids) before running.
inline ScenarioSpec preset_spec(const std::string& name) {
  const ScenarioPreset* p = ScenarioRegistry::instance().find_preset(name);
  ANON_CHECK_MSG(p != nullptr, "unknown preset " + name);
  return p->spec;
}

// The standard consensus scenario shape of the experiment grids (the
// ex-`consensus_config`, declaratively): distinct proposals, crash-free or
// f random crashes in [1, max(2, stab)] drawn from seed+7.
inline ScenarioSpec consensus_spec(ConsensusAlgo algo, EnvKind kind,
                                   std::size_t n, Round stab,
                                   std::vector<std::uint64_t> seeds,
                                   std::size_t crashes = 0) {
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kConsensus;
  spec.seeds = std::move(seeds);
  spec.env_kind = kind;
  spec.n = n;
  spec.stabilization = stab;
  spec.consensus.algo = algo;
  if (crashes > 0) {
    spec.crashes.kind = CrashGenSpec::Kind::kRandom;
    spec.crashes.count = crashes;
    spec.crashes.horizon = std::max<Round>(2, stab);
    spec.crashes.seed_offset = 7;
  }
  return spec;
}

// Wall-clock seconds of `fn()`.
template <typename Fn>
double timed_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// --- Shared timing helpers (single home for the patterns the tracked
// --- BENCH_*.json numbers are produced with; previously copy-pasted
// --- per bench binary) -------------------------------------------------

// Best wall clock of `fn()` over `reps` repetitions (first rep included:
// tracked workloads are long enough that warm-up noise loses to the min).
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const double s = timed_seconds(fn);
    if (r == 0 || s < best) best = s;
  }
  return best;
}

// Interleaved A/B comparison on the same machine: alternate the two
// workloads rep by rep so thermal/frequency drift hits both equally, and
// report each side's best rep.  It produces the experiment tables' speedup
// columns; it is not a regression gate.  The regression protocol is
// `benchsuite/run.py compare` (benchsuite/README.md): paired runs of the
// seeded suite, judged on medians against BENCHMARK.json's bounds.
struct AbSeconds {
  double a = 0;
  double b = 0;
  double ratio() const { return b > 0 ? a / b : 0; }  // a vs b speedup
};

template <typename FnA, typename FnB>
AbSeconds interleaved_ab_seconds(int reps, FnA&& fa, FnB&& fb) {
  AbSeconds out;
  for (int r = 0; r < reps; ++r) {
    const double sa = timed_seconds(fa);
    const double sb = timed_seconds(fb);
    if (r == 0 || sa < out.a) out.a = sa;
    if (r == 0 || sb < out.b) out.b = sb;
  }
  return out;
}

// Accumulating variant for benches that interleave A/B *segments* inside
// one pass (e.g. E10 steps two engines to a shared horizon): lap each
// segment into its stream and read the per-stream totals at the end.
class InterleavedTimer {
 public:
  template <typename Fn>
  void lap_a(Fn&& fn) {
    a_ += timed_seconds(fn);
  }
  template <typename Fn>
  void lap_b(Fn&& fn) {
    b_ += timed_seconds(fn);
  }
  double a() const { return a_; }
  double b() const { return b_; }
  double total() const { return a_ + b_; }

 private:
  double a_ = 0;
  double b_ = 0;
};

}  // namespace anon::bench

// The shared bench entry point: tables first (through the scenario
// registry), then google-benchmark.  One macro instead of a copy of main()
// per binary.
#define ANON_BENCH_MAIN(print_tables_fn)                                      \
  int main(int argc, char** argv) {                                           \
    return ::anon::bench::main_with_tables(argc, argv, (print_tables_fn));    \
  }

// E15 — sharded cohort execution (PR 8 tentpole).
//
// The cohort engine (net/cohort.hpp) now partitions its class list into
// shards and runs each round's compute/broadcast and delivery waves on the
// shared worker pool, with a deterministic barrier that canonicalizes
// batch payloads by content digest across shards.  Reports are
// byte-identical to the serial cohort engine at every shard/thread count,
// and per-round scratch (digest buckets, split maps, unicast fan-out)
// lives in a bump arena so steady-state rounds are allocation-free
// (tests/allocation_steady_state_test.cpp pins this).
//
//   E15.a  non-collapsing ES run (distinct proposals, so the class count
//          stays at n and the O(C²) waves dominate): single-threaded
//          8-shard baseline vs 2/4/8 worker threads on the SAME
//          decomposition, interleaved A/B.  Reports verified identical
//          before any timing.
//   E15.b  collapsed run at scale — the e12-huge shape (8 proposal
//          values, so C=8 and the O(n) setup/metric passes dominate):
//          serial cohort engine vs the sharded engine, interleaved A/B.
//          n = 1e8 in the full configuration; this is the committed
//          serial-vs-sharded number behind the e12-huge preset.
//
// BENCH_E15.json records both ladders plus hardware_threads — on a
// single-core container the thread ratios honestly sit near 1.0; the
// multi-core CI runners show the real scaling.
#include "bench_common.hpp"

#include <thread>
#include <vector>

#include "algo/runner.hpp"

namespace anon {
namespace {

using bench::run_scenario;

// E15.a: distinct proposals keep every process in its own class, so the
// cohort engine's per-round cost is the full O(C²) compute/delivery wave —
// the part the shards absorb.  Fixed 8-shard decomposition across the
// thread ladder, so every rung runs the same shard layout.
ConsensusConfig e15a_config(std::size_t n, std::size_t engine_threads) {
  ConsensusConfig cfg;
  cfg.env.kind = EnvKind::kES;
  cfg.env.n = n;
  cfg.env.seed = 42;
  cfg.env.stabilization = 0;
  cfg.initial.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    cfg.initial.push_back(Value(100 + static_cast<std::int64_t>(i)));
  cfg.net.seed = 42;
  cfg.net.record_trace = false;
  cfg.net.record_deliveries = false;
  cfg.net.engine_threads = engine_threads;
  cfg.net.engine_shards = 8;  // fixed decomposition across the ladder
  cfg.validate_env = false;
  cfg.backend = ConsensusBackend::kCohort;
  return cfg;
}

// E15.b: the e12-huge shape at a bench-controlled n — fully collapsed
// (C=8), so the timed work is the O(n) membership/metric passes.
ScenarioSpec e15b_spec(std::size_t n, std::size_t engine_threads) {
  ScenarioSpec spec = bench::preset_spec("e12-huge");
  spec.name = "";
  spec.n = n;
  spec.consensus.engine_threads = engine_threads;
  return spec;
}

void print_tables() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<std::size_t> ladder = {2, 4, 8};

  // ---- E15.a: thread scaling on a non-collapsing run -----------------------
  const std::size_t n_a = bench::smoke() ? 512 : 2048;
  const int reps_a = bench::smoke() ? 1 : 3;
  double base_s = 0;
  std::vector<double> wall_a(ladder.size(), 0);
  std::uint64_t rounds_a = 0, cohorts_a = 0;
  {
    // Verify once, before any timing: every thread count must reproduce
    // the 1-thread report exactly.
    const ConsensusReport ref =
        run_consensus(ConsensusAlgo::kEs, e15a_config(n_a, 1));
    ANON_CHECK_MSG(ref.all_correct_decided && ref.agreement,
                   "E15.a must decide consensus");
    rounds_a = ref.rounds_executed;
    cohorts_a = ref.cohorts_max;
    for (std::size_t t : ladder) {
      const ConsensusReport rep =
          run_consensus(ConsensusAlgo::kEs, e15a_config(n_a, t));
      ANON_CHECK_MSG(rep.to_string() == ref.to_string(),
                     "E15.a reports must be identical at every thread count");
    }

    Table t("E15.a  sharded cohort thread scaling, distinct-value ES n=" +
                Table::num(static_cast<std::uint64_t>(n_a)) +
                " (8 shards, interleaved A/B best-of-" +
                std::to_string(reps_a) + ")",
            {"engine threads", "wall-clock s", "speedup vs 1 thread"});
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      const bench::AbSeconds ab = bench::interleaved_ab_seconds(
          reps_a,
          [&] { run_consensus(ConsensusAlgo::kEs, e15a_config(n_a, 1)); },
          [&] {
            run_consensus(ConsensusAlgo::kEs, e15a_config(n_a, ladder[i]));
          });
      if (i == 0 || ab.a < base_s) base_s = ab.a;
      wall_a[i] = ab.b;
    }
    t.add_row({"1 (baseline)", Table::num(base_s, 3), "1.00x"});
    for (std::size_t i = 0; i < ladder.size(); ++i)
      t.add_row({std::to_string(ladder[i]), Table::num(wall_a[i], 3),
                 Table::ratio(wall_a[i] > 0 ? base_s / wall_a[i] : 0)});
    t.print();
    std::cout << "  (" << Table::num(cohorts_a) << " cohorts over "
              << Table::num(rounds_a) << " rounds; this machine has " << hw
              << " hardware thread(s) — thread ratios only exceed 1.0 on "
                 "multi-core runners.)\n";
  }

  // ---- E15.b: serial vs sharded at scale (the e12-huge shape) --------------
  const std::size_t n_b = bench::smoke() ? 1000000 : 100000000;
  const int reps_b = 1;  // each side is a multi-second O(n) run
  double serial_b = 0, sharded_b = 0;
  std::uint64_t rounds_b = 0;
  {
    ScenarioReport rep_serial, rep_sharded;
    const bench::AbSeconds ab = bench::interleaved_ab_seconds(
        reps_b,
        [&] { rep_serial = run_scenario(e15b_spec(n_b, 1), 1); },
        [&] { rep_sharded = run_scenario(e15b_spec(n_b, 0), 1); });
    serial_b = ab.a;
    sharded_b = ab.b;
    const auto& cell_s = rep_serial.consensus_cells[0].report;
    const auto& cell_p = rep_sharded.consensus_cells[0].report;
    ANON_CHECK_MSG(cell_s.all_correct_decided && cell_s.agreement,
                   "E15.b must decide consensus");
    const bool identical = cell_s.to_string() == cell_p.to_string();
    rounds_b = cell_s.rounds_executed;
    Table t("E15.b  serial vs sharded cohort engine, e12-huge shape (n=" +
                Table::num(static_cast<std::uint64_t>(n_b)) +
                ", 8 proposal values, interleaved A/B)",
            {"engine", "wall-clock s", "speedup", "reports identical"});
    t.add_row({"serial cohort", Table::num(serial_b, 3), "1.00x", "-"});
    t.add_row({"sharded cohort (threads=0)", Table::num(sharded_b, 3),
               Table::ratio(ab.ratio()), identical ? "yes" : "NO — BUG"});
    t.print();
    ANON_CHECK_MSG(identical,
                   "E15.b sharded report must reproduce the serial one");
  }

  {
    BenchJson j;
    j.set("experiment", std::string("E15"));
    j.set("workload",
          std::string("sharded cohort engine: distinct-value ES thread "
                      "ladder + e12-huge-shaped serial-vs-sharded A/B"));
    j.set("a_n", static_cast<std::uint64_t>(n_a));
    j.set("a_wall_1t_s", base_s);
    j.set("a_wall_2t_s", wall_a[0]);
    j.set("a_wall_4t_s", wall_a[1]);
    j.set("a_wall_8t_s", wall_a[2]);
    j.set("a_rounds", rounds_a);
    j.set("b_n", static_cast<std::uint64_t>(n_b));
    j.set("b_wall_serial_s", serial_b);
    j.set("b_wall_sharded_s", sharded_b);
    j.set("b_speedup", sharded_b > 0 ? serial_b / sharded_b : 0.0);
    j.set("b_rounds", rounds_b);
    j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
    const std::string path = bench::json_path("BENCH_E15.json");
    if (bench::write_json(j, path))
      std::cout << "  [" << path << " written: a_n=" << n_a
                << " b_n=" << n_b << " b_speedup="
                << (sharded_b > 0 ? serial_b / sharded_b : 0.0) << "x]\n";
  }
}

void BM_ShardedCohortEsConsensus(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ConsensusConfig cfg = e15a_config(1024, threads);
    cfg.env.seed = seed;
    cfg.net.seed = seed++;
    const auto report = run_consensus(ConsensusAlgo::kEs, cfg);
    benchmark::DoNotOptimize(report);
    state.counters["rounds"] =
        static_cast<double>(report.last_decision_round);
    state.counters["cohorts"] = static_cast<double>(report.cohorts_max);
  }
}
BENCHMARK(BM_ShardedCohortEsConsensus)->Arg(1)->Arg(4);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

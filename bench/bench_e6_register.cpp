// E6 — Proposition 1: the weak-set register (anonymous, MS, tolerates ANY
// crash count) vs the ABD majority register (IDs, async, needs f < n/2).
// Shape: ABD is cheaper per op in its comfort zone; the weak-set register
// keeps working where ABD blocks forever.  Both sides are scenario
// families (weakset register mode / abd); BENCH_E6.json tracks the two
// preset cells through the unified emitter.
#include "bench_common.hpp"

namespace anon {
namespace {

using bench::run_scenario;

// The preset workloads, rescaled: one source of truth for each shape
// (src/scenario/presets.cpp), n / crash prefix / seeds varied here.
ScenarioSpec register_spec(std::size_t n,
                           const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec spec = bench::preset_spec("e6-register");
  spec.seeds = seeds;
  spec.n = n;
  return spec;
}

ScenarioSpec abd_spec(std::size_t n, std::size_t crash_prefix,
                      const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec spec = bench::preset_spec("e6-abd");
  spec.seeds = seeds;
  spec.n = n;
  spec.abd.crash_prefix = crash_prefix;
  return spec;
}

// The tracked workload (BENCH_E6.json): the two preset cells (weak-set
// register n=9 / ABD n=9), interleaved A/B.
void write_bench_json(const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec ws = bench::preset_spec("e6-register");
  ScenarioSpec abd = bench::preset_spec("e6-abd");
  ws.seeds = seeds;
  abd.seeds = seeds;
  const int reps = bench::smoke() ? 2 : 3;
  ScenarioReport rep_ws, rep_abd;
  const bench::AbSeconds ab = bench::interleaved_ab_seconds(
      reps, [&] { rep_ws = run_scenario(ws, 1); },
      [&] { rep_abd = run_scenario(abd, 1); });
  std::size_t ws_ok = 0, write_lat = 0, writes = 0;
  for (const auto& cell : rep_ws.weakset_cells) {
    ws_ok += cell.spec_ok ? 1 : 0;
    write_lat += cell.write_latency_total;
    writes += cell.writes_completed;
  }
  std::size_t abd_done = 0;
  std::uint64_t abd_msgs = 0;
  for (const auto& cell : rep_abd.abd_cells) {
    abd_done += cell.completed ? 1 : 0;
    abd_msgs += cell.messages;
  }
  BenchJson j;
  j.set("experiment", std::string("E6"));
  j.set("workload",
        std::string("Prop-1 weak-set register over MS vs ABD majority "
                    "register, n=9"));
  j.set("n", static_cast<std::uint64_t>(ws.n));
  j.set("cells", static_cast<std::uint64_t>(seeds.size()));
  j.set("reps", static_cast<std::uint64_t>(reps));
  j.set("wall_ws_register_s", ab.a);
  j.set("wall_abd_s", ab.b);
  j.set("ws_regular", static_cast<std::uint64_t>(ws_ok));
  j.set("ws_writes_completed", static_cast<std::uint64_t>(writes));
  j.set("ws_write_latency_rounds", static_cast<std::uint64_t>(write_lat));
  j.set("abd_writes_completed", static_cast<std::uint64_t>(abd_done));
  j.set("abd_messages", abd_msgs);
  j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
  const std::string path = bench::json_path("BENCH_E6.json");
  if (bench::write_json(j, path))
    std::cout << "  [" << path << " written: ws_s=" << ab.a
              << " abd_s=" << ab.b << "]\n";
}

void print_tables() {
  const auto seeds = experiment_seeds(bench::smoke() ? 3 : 10);
  const std::vector<std::size_t> sizes =
      bench::smoke() ? std::vector<std::size_t>{3u, 5u}
                     : std::vector<std::size_t>{3u, 5u, 9u, 17u};

  {
    Table t("E6.a  write latency & regularity over MS (weak-set register) vs n",
            {"n", "write latency (rounds)", "regularity violations"});
    for (std::size_t n : sizes) {
      std::vector<double> lat;
      std::size_t violations = 0;
      for (const auto& cell : run_scenario(register_spec(n, seeds)).weakset_cells) {
        if (!cell.spec_ok) ++violations;
        lat.push_back(static_cast<double>(cell.write_latency_total) /
                      static_cast<double>(cell.writes_completed));
      }
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 aggregate(lat).to_string(),
                 Table::num(static_cast<std::uint64_t>(violations))});
    }
    t.print();
  }

  {
    Table t("E6.b  ABD (IDs, async, majority) per-op cost vs n",
            {"n", "messages/write", "virtual time/write"});
    for (std::size_t n : sizes) {
      std::vector<double> msgs, vtime;
      for (const auto& cell : run_scenario(abd_spec(n, 0, seeds)).abd_cells) {
        msgs.push_back(static_cast<double>(cell.messages));
        vtime.push_back(static_cast<double>(cell.end_time));
      }
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 Table::num(aggregate(msgs).mean, 0),
                 aggregate(vtime).to_string()});
    }
    t.print();
  }

  {
    Table t("E6.c  crash tolerance head-to-head (n=5): who still completes a write?",
            {"crashes f", "weak-set register (MS)", "ABD (majority)"});
    for (std::size_t f : {0u, 2u, 3u, 4u}) {
      // Weak-set register over MS: crash f processes up front (before the
      // write), one write at round 5, one read at round 30.
      ScenarioSpec ws;
      ws.family = ScenarioFamily::kWeakset;
      ws.seeds = seeds;
      ws.env_kind = EnvKind::kMS;
      ws.n = 5;
      ws.weakset.mode = WeaksetSpecSection::Mode::kRegister;
      ws.weakset.script = {{5, 0, true, 7}, {30, 1, false, 0}};
      ws.weakset.extra_rounds = 80;
      ws.weakset.validate_env = false;
      if (f > 0) {
        ws.crashes.kind = CrashGenSpec::Kind::kExplicit;
        for (std::size_t i = 0; i < f; ++i)
          ws.crashes.entries.push_back({4 - i, 1});
      }
      std::size_t ws_ok = 0, abd_ok = 0;
      for (const auto& cell : run_scenario(ws).weakset_cells)
        if (cell.writes_completed == 1 && cell.spec_ok) ++ws_ok;
      for (const auto& cell : run_scenario(abd_spec(5, f, seeds)).abd_cells)
        if (cell.completed) ++abd_ok;
      t.add_row({Table::num(static_cast<std::uint64_t>(f)),
                 Table::num(static_cast<std::uint64_t>(ws_ok)) + "/" +
                     Table::num(static_cast<std::uint64_t>(seeds.size())),
                 Table::num(static_cast<std::uint64_t>(abd_ok)) + "/" +
                     Table::num(static_cast<std::uint64_t>(seeds.size()))});
    }
    t.print();
    std::cout << "  (weak-set register keeps completing with f = n-1; ABD "
                 "blocks as soon as the majority is gone — the paper's "
                 "synchrony-for-quorums trade.)\n";
  }

  write_bench_json(seeds);
}

void BM_WsRegisterWrite(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ScenarioSpec spec;
    spec.family = ScenarioFamily::kWeakset;
    spec.seeds = {seed++};
    spec.env_kind = EnvKind::kMS;
    spec.n = static_cast<std::size_t>(state.range(0));
    spec.weakset.mode = WeaksetSpecSection::Mode::kRegister;
    spec.weakset.script = {{2, 0, true, 7}};
    spec.weakset.extra_rounds = 40;
    spec.weakset.validate_env = false;
    const auto report = run_scenario(spec, 1);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_WsRegisterWrite)->Arg(5)->Arg(17);

void BM_AbdWrite(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto report = run_scenario(
        abd_spec(static_cast<std::size_t>(state.range(0)), 0, {seed++}), 1);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_AbdWrite)->Arg(5)->Arg(17);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

// E5 — Theorem 4: Algorithm 5 emulates MS from a weak-set.  Every emitted
// trace is machine-certified MS (including under heavy round skew), and we
// measure the emulation overhead (weak-set ops and ticks per round) plus —
// BENCH_E5.json — the interleaved A/B of the interned watermark engine
// against the retained seed implementation (MsEmulationRef) on a
// scaled-up configuration.  All cells run through the emulation scenario
// family (presets e5 / e5-ref / e5-fast).
#include "bench_common.hpp"

namespace anon {
namespace {

using bench::run_scenario;

ScenarioSpec emulation_spec(std::size_t n, Round rounds,
                            const std::vector<std::uint64_t>& seeds,
                            EmulationSpecSection::Engine engine =
                                EmulationSpecSection::Engine::kInterned) {
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kEmulation;
  spec.seeds = seeds;
  spec.env_kind = EnvKind::kMS;
  spec.n = n;
  spec.emulation.engine = engine;
  spec.emulation.rounds = rounds;
  return spec;
}

// The tracked hot path (BENCH_E5.json): the largest emulation cell, seed
// engine (A) vs interned watermark engine (B), interleaved per rep so the
// committed speedup is drift-free.  Certification counts must agree — the
// refactor is a behavioural no-op (byte-identity is pinned by
// tests/emulation_regression_test.cpp; here we cross-check the reports).
void write_bench_json(const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec interned = bench::preset_spec("e5");
  ScenarioSpec ref = bench::preset_spec("e5-ref");
  interned.seeds = seeds;
  ref.seeds = seeds;
  // One label for both sides: the byte-identity check below compares the
  // deterministic report JSON, which carries the scenario name.
  interned.name = ref.name = "e5-ab";
  if (bench::smoke()) {
    for (ScenarioSpec* s : {&interned, &ref}) {
      s->n = 8;
      s->emulation.rounds = 25;
    }
  }
  const int reps = bench::smoke() ? 2 : 3;
  ScenarioReport rep_ref, rep_new;
  bench::AbSeconds ab = bench::interleaved_ab_seconds(
      reps, [&] { rep_ref = run_scenario(ref, 1); },
      [&] { rep_new = run_scenario(interned, 1); });
  auto certified = [](const ScenarioReport& r) {
    std::size_t c = 0;
    for (const auto& cell : r.emulation_cells) c += cell.ms_certified ? 1 : 0;
    return c;
  };
  BenchJson j;
  j.set("experiment", std::string("E5"));
  j.set("workload",
        std::string("Alg5 MS-from-weak-set emulation: seed std::set engine "
                    "(ref) vs interned watermark engine"));
  j.set("n", static_cast<std::uint64_t>(interned.n));
  j.set("rounds", static_cast<std::uint64_t>(interned.emulation.rounds));
  j.set("cells", static_cast<std::uint64_t>(seeds.size()));
  j.set("reps", static_cast<std::uint64_t>(reps));
  j.set("wall_ref_s", ab.a);
  j.set("wall_interned_s", ab.b);
  j.set("speedup", ab.ratio());
  j.set("certified_ref", static_cast<std::uint64_t>(certified(rep_ref)));
  j.set("certified_interned", static_cast<std::uint64_t>(certified(rep_new)));
  j.set("trace_deliveries_ref", rep_ref.deliveries);
  j.set("trace_deliveries_interned", rep_new.deliveries);
  // The engines must be observationally identical: the deterministic
  // report JSON (everything but timing) has to match byte for byte.
  j.set("reports_identical",
        std::string(rep_ref.to_json_string(false) ==
                            rep_new.to_json_string(false)
                        ? "yes"
                        : "NO"));
  j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
  const std::string path = bench::json_path("BENCH_E5.json");
  if (bench::write_json(j, path))
    std::cout << "  [" << path << " written: ref_s=" << ab.a
              << " interned_s=" << ab.b << " speedup=" << ab.ratio() << "]\n";
}

void print_tables() {
  const auto seeds = experiment_seeds(bench::smoke() ? 3 : 10);
  const std::vector<std::size_t> sizes =
      bench::smoke() ? std::vector<std::size_t>{2u, 4u, 8u}
                     : std::vector<std::size_t>{2u, 4u, 8u, 16u, 32u};
  const Round horizon = bench::smoke() ? 15 : 40;

  {
    Table t("E5.a  emulated MS certification vs n (sharded seed grid)",
            {"n", "MS certified", "weak-set adds/round/process"});
    for (std::size_t n : sizes) {
      std::size_t certified = 0;
      for (const auto& cell :
           run_scenario(emulation_spec(n, horizon, seeds)).emulation_cells)
        certified += cell.ms_certified ? 1 : 0;
      // Algorithm 5 performs exactly one add (and one get) per round.
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 Table::num(static_cast<std::uint64_t>(certified)) + "/" +
                     Table::num(static_cast<std::uint64_t>(seeds.size())),
                 "1 add + 1 get"});
    }
    t.print();
  }

  {
    Table t("E5.b  certification under round skew (n=4; one process K× slower)",
            {"skew K", "MS certified", "fast/slow round ratio"});
    for (std::uint64_t k : {1u, 4u, 10u, 25u}) {
      ScenarioSpec spec = emulation_spec(4, 25, seeds);
      spec.emulation.skew = {1, k, 1, 1};
      std::size_t certified = 0;
      std::vector<double> ratio;
      for (const auto& cell : run_scenario(spec).emulation_cells) {
        certified += cell.ms_certified ? 1 : 0;
        if (cell.ran && cell.rounds_min > 0)
          ratio.push_back(static_cast<double>(cell.rounds_max) /
                          static_cast<double>(cell.rounds_min));
      }
      t.add_row({Table::num(k),
                 Table::num(static_cast<std::uint64_t>(certified)) + "/" +
                     Table::num(static_cast<std::uint64_t>(seeds.size())),
                 aggregate(ratio).to_string()});
    }
    t.print();
  }

  {
    Table t("E5.c  emulation cost: weak-set ticks per completed round (n sweep)",
            {"n", "ticks per round (mean over processes)"});
    for (std::size_t n : sizes) {
      std::vector<double> cost;
      for (const auto& cell :
           run_scenario(emulation_spec(n, horizon, seeds)).emulation_cells) {
        if (!cell.ran || cell.rounds_total == 0) continue;
        const double mean_rounds = static_cast<double>(cell.rounds_total) /
                                   static_cast<double>(n);
        cost.push_back(static_cast<double>(cell.ticks) / mean_rounds);
      }
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 aggregate(cost).to_string()});
    }
    t.print();
  }

  write_bench_json(seeds);
}

void BM_MsEmulation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto report = run_scenario(emulation_spec(n, 40, {seed++}), 1);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_MsEmulation)->Arg(4)->Arg(16);

void BM_MsEmulationRef(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto report =
        run_scenario(emulation_spec(n, 40, {seed++},
                                    EmulationSpecSection::Engine::kRef),
                     1);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_MsEmulationRef)->Arg(4)->Arg(16);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

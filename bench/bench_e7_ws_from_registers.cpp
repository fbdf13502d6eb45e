// E7 — Propositions 2/3: weak-sets from registers.  Spec violations
// (always 0) under adversarial interleavings; step costs per operation
// (Prop 2 gets cost n reads; Prop 3 gets cost |domain| reads).  The
// construction sweeps run through the weakset-shm scenario family.
// BENCH_E7.json tracks the whole-history certification cost: the seed
// reads×writes² regularity checker (kept as ref_check_regular_register)
// vs the sort-plus-sweep rewrite, interleaved, plus the sweep checker's
// wall clock on a 100k-operation history and the scaled shm-runner wall.
#include "bench_common.hpp"

#include "common/rng.hpp"
#include "weakset/reference_checkers.hpp"
#include "weakset/ws_register.hpp"

namespace anon {
namespace {

using bench::run_scenario;

ScenarioSpec swmr_spec(std::size_t n, std::uint64_t ops,
                       const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kWeaksetShm;
  spec.seeds = seeds;
  spec.n = n;
  spec.shm.construction = ShmSpecSection::Construction::kSwmr;
  spec.shm.gen_ops = ops;
  return spec;
}

ScenarioSpec mwmr_spec(std::uint64_t domain, std::uint64_t ops,
                       const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kWeaksetShm;
  spec.seeds = seeds;
  spec.shm.construction = ShmSpecSection::Construction::kMwmr;
  spec.shm.gen_ops = ops;
  spec.shm.domain = domain;
  return spec;
}

std::size_t violations_of(const ScenarioReport& report) {
  std::size_t violations = 0;
  for (const auto& cell : report.shm_cells) violations += cell.spec_ok ? 0 : 1;
  return violations;
}

// A valid-by-construction register history: sequential non-overlapping
// writes, reads returning the latest completed write (or a concurrent
// one), so the checkers exercise their accept path end to end.
std::vector<RegOpRecord> synth_reg_history(std::size_t n_ops,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RegOpRecord> ops;
  ops.reserve(n_ops);
  std::optional<Value> last_completed;  // value of newest completed write
  std::int64_t next_val = 1;
  std::uint64_t t = 1;
  while (ops.size() < n_ops) {
    if (rng.chance(0.4)) {
      const Value v(next_val++);
      const std::uint64_t len = 1 + rng.below(4);
      ops.push_back({RegOpRecord::Kind::kWrite, v, t, t + len, 0});
      t += len + 1;  // writes are sequential: each completes before the next
      last_completed = v;
    } else {
      // A read strictly after the last write completed returns its value
      // (⊥ while no write has completed yet).
      ops.push_back({RegOpRecord::Kind::kRead, last_completed, t,
                     t + rng.below(2), 1 + ops.size() % 3});
      t += 1 + rng.below(3);
    }
  }
  return ops;
}

// The tracked hot path (BENCH_E7.json).
void write_bench_json(const std::vector<std::uint64_t>& seeds) {
  const int reps = bench::smoke() ? 2 : 3;
  // The reference checker is ~cubic on this history shape (per read it
  // rescans every write's whole superseder candidate prefix), so the A/B
  // history must stay small for the A side to terminate at all; the sweep
  // side additionally proves 100k ops below.
  const std::size_t ab_ops = bench::smoke() ? 1000 : 4000;
  const std::size_t big_ops = bench::smoke() ? 10000 : 100000;

  // (1) Interleaved A/B: seed quadratic/cubic checker vs sweep checker on
  // the same valid histories (one per seed).
  std::vector<std::vector<RegOpRecord>> histories;
  for (std::size_t i = 0; i < 2; ++i)
    histories.push_back(synth_reg_history(ab_ops, 1000 + i));
  std::size_t ok_ref = 0, ok_sweep = 0;
  bench::AbSeconds ab = bench::interleaved_ab_seconds(
      reps,
      [&] {
        ok_ref = 0;
        for (const auto& h : histories)
          if (ref_check_regular_register(h).ok) ++ok_ref;
      },
      [&] {
        ok_sweep = 0;
        for (const auto& h : histories)
          if (check_regular_register(h).ok) ++ok_sweep;
      });

  // (2) The acceptance bar: a 100k-op history certified in one sweep.
  const auto big = synth_reg_history(big_ops, 4242);
  bool big_ok = false;
  const double big_s =
      bench::best_seconds(reps, [&] { big_ok = check_regular_register(big).ok; });

  // (3) The scaled shm-runner workload through the driver: the preset
  // `e7-swmr` Prop-2 construction certified by the sweep checker
  // (sweep-vs-ref verdict agreement is pinned in tests/spec_sweep_test.cpp).
  ScenarioSpec spec = bench::preset_spec("e7-swmr");
  spec.seeds = seeds;
  if (bench::smoke()) {
    spec.n = 4;
    spec.shm.gen_ops = 100;
  }
  ScenarioReport report;
  const double run_s =
      bench::best_seconds(reps, [&] { report = run_scenario(spec); });

  BenchJson j;
  j.set("experiment", std::string("E7"));
  j.set("workload",
        std::string("regular-register certification: seed reads*writes^2 "
                    "checker (ref) vs sort-plus-sweep; Prop-2 shm sweep"));
  j.set("checker_ab_ops", static_cast<std::uint64_t>(ab_ops));
  j.set("checker_ab_histories", static_cast<std::uint64_t>(histories.size()));
  j.set("reps", static_cast<std::uint64_t>(reps));
  j.set("wall_ref_s", ab.a);
  j.set("wall_sweep_s", ab.b);
  j.set("speedup", ab.ratio());
  j.set("verdicts_identical", std::string(ok_ref == ok_sweep ? "yes" : "NO"));
  j.set("certify_big_ops", static_cast<std::uint64_t>(big_ops));
  j.set("certify_big_s", big_s);
  j.set("certify_big_ok", static_cast<std::uint64_t>(big_ok ? 1 : 0));
  j.set("shm_sweep_n", static_cast<std::uint64_t>(spec.n));
  j.set("shm_sweep_script_ops",
        static_cast<std::uint64_t>(2 * spec.shm.gen_ops));
  j.set("shm_sweep_cells", static_cast<std::uint64_t>(seeds.size()));
  j.set("shm_sweep_wall_s", run_s);
  j.set("shm_sweep_violations",
        static_cast<std::uint64_t>(violations_of(report)));
  j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
  const std::string path = bench::json_path("BENCH_E7.json");
  if (bench::write_json(j, path))
    std::cout << "  [" << path << " written: ref_s=" << ab.a
              << " sweep_s=" << ab.b << " speedup=" << ab.ratio()
              << " certify_" << big_ops << "_s=" << big_s << "]\n";
}

void print_tables() {
  const auto seeds = experiment_seeds(bench::smoke() ? 3 : 10);
  const std::uint64_t ops = bench::smoke() ? 30 : 100;
  const std::vector<std::size_t> swmr_sizes =
      bench::smoke() ? std::vector<std::size_t>{2u, 4u}
                     : std::vector<std::size_t>{2u, 4u, 8u, 16u, 32u};
  const std::vector<std::size_t> domains =
      bench::smoke() ? std::vector<std::size_t>{4u, 16u}
                     : std::vector<std::size_t>{4u, 16u, 64u, 128u};

  {
    Table t("E7.a  Prop 2 (SWMR, known IDs): spec under adversarial interleavings",
            {"n", "ops", "spec violations", "steps/get"});
    for (std::size_t n : swmr_sizes) {
      const auto report = run_scenario(swmr_spec(n, ops, seeds));
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 Table::num(2 * ops),
                 Table::num(static_cast<std::uint64_t>(violations_of(report))),
                 Table::num(static_cast<std::uint64_t>(n))});
    }
    t.print();
  }

  {
    Table t("E7.b  Prop 3 (MWMR, finite domain, anonymous): spec + step cost",
            {"|domain|", "spec violations", "steps/get", "steps/add"});
    for (std::size_t d : domains) {
      const auto report = run_scenario(mwmr_spec(d, ops, seeds));
      t.add_row({Table::num(static_cast<std::uint64_t>(d)),
                 Table::num(static_cast<std::uint64_t>(violations_of(report))),
                 Table::num(static_cast<std::uint64_t>(d)), "1"});
    }
    t.print();
    std::cout << "  (Prop 2 needs identities but any domain; Prop 3 is fully\n"
                 "   anonymous but pays gets linear in the domain size — the\n"
                 "   two sides of the paper's knowledge trade-off.)\n";
  }

  write_bench_json(seeds);
}

void BM_WsFromSwmr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ScenarioSpec spec = swmr_spec(n, 30, {seed++});
    spec.shm.domain = 30;  // every add writes a distinct value
    const auto report = run_scenario(spec, 1);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_WsFromSwmr)->Arg(4)->Arg(16);

void BM_WsFromMwmr(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto report = run_scenario(mwmr_spec(d, 30, {seed++}), 1);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_WsFromMwmr)->Arg(4)->Arg(64);

void BM_RegCheckerSweep(benchmark::State& state) {
  const auto ops = static_cast<std::size_t>(state.range(0));
  const auto history = synth_reg_history(ops, 7);
  for (auto _ : state) {
    auto res = check_regular_register(history);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_RegCheckerSweep)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

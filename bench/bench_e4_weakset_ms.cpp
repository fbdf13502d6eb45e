// E4 — Theorem 3: Algorithm 4 implements a weak-set in MS.  Spec
// violations (always 0), add latency in rounds vs n / link quality /
// crashes; gets are free (local).  Harness cells run through the weakset
// scenario family; BENCH_E4.json additionally tracks the whole-history
// certification cost: the seed gets×adds checker (kept as
// ref_check_weak_set_spec) vs the completed-add-watermark sweep,
// interleaved, plus the sweep checker on a 100k-operation history.
#include "bench_common.hpp"

#include "common/rng.hpp"
#include "weakset/ms_weak_set.hpp"
#include "weakset/reference_checkers.hpp"

namespace anon {
namespace {

using bench::run_scenario;

ScenarioSpec weakset_spec(std::size_t n, std::size_t ops,
                          const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kWeakset;
  spec.seeds = seeds;
  spec.env_kind = EnvKind::kMS;
  spec.n = n;
  spec.weakset.gen_ops = ops;
  return spec;
}

// A valid-by-construction weak-set history over a bounded value domain —
// the shape Algorithm 4 histories have (every value eventually everywhere,
// gets grow towards the full domain).  Adds are generated in start order;
// each get returns every value already completed plus a coin-flip subset
// of the concurrently-added ones.
std::vector<WsOpRecord> synth_ws_history(std::size_t n_ops,
                                         std::int64_t domain,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WsOpRecord> ops;
  ops.reserve(n_ops);
  ValueSet completed;            // values with some add completed
  std::vector<std::pair<std::uint64_t, Value>> completions;  // (end, v) pending
  std::size_t next_done = 0;     // completions merged into `completed`
  std::uint64_t t = 1;
  while (ops.size() < n_ops) {
    // Merge adds that completed by now (completions are generated in
    // nondecreasing end order below, so this is a cursor).
    while (next_done < completions.size() &&
           completions[next_done].first < t)
      completed.insert(completions[next_done++].second);
    if (rng.chance(0.5)) {
      WsOpRecord add;
      add.kind = WsOpRecord::Kind::kAdd;
      add.value = Value(static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(domain))));
      add.start = t;
      add.end = t + 1 + rng.below(3);
      add.process = ops.size() % 7;
      completions.emplace_back(add.end, add.value);
      // Keep the completion cursor's order: bounded end jitter, sort tail.
      for (std::size_t i = completions.size() - 1;
           i > next_done && completions[i].first < completions[i - 1].first;
           --i)
        std::swap(completions[i], completions[i - 1]);
      ops.push_back(std::move(add));
    } else {
      WsOpRecord get;
      get.kind = WsOpRecord::Kind::kGet;
      get.start = t;
      get.end = t + rng.below(2);
      get.process = ops.size() % 7;
      get.result = completed;  // every completed value: condition (1)
      // Plus any concurrent adds, at a coin flip: condition (2) allows it.
      for (std::size_t i = next_done; i < completions.size(); ++i)
        if (rng.chance(0.5)) get.result.insert(completions[i].second);
      ops.push_back(std::move(get));
    }
    t += 1 + rng.below(2);
  }
  return ops;
}

// The tracked hot path (BENCH_E4.json).
void write_bench_json(const std::vector<std::uint64_t>& seeds) {
  const int reps = bench::smoke() ? 2 : 3;
  const std::size_t ab_ops = bench::smoke() ? 2000 : 20000;
  const std::size_t big_ops = bench::smoke() ? 10000 : 100000;

  // (1) Interleaved A/B: seed gets×adds checker vs watermark sweep on the
  // same valid histories.
  std::vector<std::vector<WsOpRecord>> histories;
  for (std::size_t i = 0; i < 3; ++i)
    histories.push_back(synth_ws_history(ab_ops, 16, 2000 + i));
  std::size_t ok_ref = 0, ok_sweep = 0;
  bench::AbSeconds ab = bench::interleaved_ab_seconds(
      reps,
      [&] {
        ok_ref = 0;
        for (const auto& h : histories)
          if (ref_check_weak_set_spec(h).ok) ++ok_ref;
      },
      [&] {
        ok_sweep = 0;
        for (const auto& h : histories)
          if (check_weak_set_spec(h).ok) ++ok_sweep;
      });

  // (2) The acceptance bar: 100k operations certified in one sweep.
  const auto big = synth_ws_history(big_ops, 16, 4242);
  bool big_ok = false;
  const double big_s =
      bench::best_seconds(reps, [&] { big_ok = check_weak_set_spec(big).ok; });

  // (3) Scaled Algorithm 4 harness (records + certification), through the
  // driver: the preset `e4` workload at the smoke-scaled grid.
  ScenarioSpec spec = bench::preset_spec("e4");
  spec.seeds = seeds;
  if (bench::smoke()) {
    spec.n = 4;
    spec.weakset.gen_ops = 12;
  }
  ScenarioReport report;
  const double run_s =
      bench::best_seconds(reps, [&] { report = run_scenario(spec); });
  std::size_t run_violations = 0;
  for (const auto& cell : report.weakset_cells)
    run_violations += cell.spec_ok ? 0 : 1;

  BenchJson j;
  j.set("experiment", std::string("E4"));
  j.set("workload",
        std::string("weak-set spec certification: seed gets*adds checker "
                    "(ref) vs completed-add-watermark sweep; Alg4 harness"));
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
  j.set("alg4_sweep_n", static_cast<std::uint64_t>(spec.n));
  j.set("alg4_sweep_script_ops",
        static_cast<std::uint64_t>(2 * spec.weakset.gen_ops));
  j.set("alg4_sweep_cells", static_cast<std::uint64_t>(seeds.size()));
  j.set("alg4_sweep_wall_s", run_s);
  j.set("alg4_sweep_violations", static_cast<std::uint64_t>(run_violations));
  j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
  const std::string path = bench::json_path("BENCH_E4.json");
  if (bench::write_json(j, path))
    std::cout << "  [" << path << " written: ref_s=" << ab.a
              << " sweep_s=" << ab.b << " speedup=" << ab.ratio()
              << " certify_" << big_ops << "_s=" << big_s << "]\n";
}

void print_tables() {
  const auto seeds = experiment_seeds(bench::smoke() ? 3 : 10);
  const std::vector<std::size_t> sizes =
      bench::smoke() ? std::vector<std::size_t>{2u, 4u, 8u}
                     : std::vector<std::size_t>{2u, 4u, 8u, 16u, 32u};

  {
    Table t("E4.a  weak-set in MS: add latency (rounds) vs n",
            {"n", "add latency (rounds)", "spec violations", "env=MS certified"});
    for (std::size_t n : sizes) {
      ScenarioSpec spec = weakset_spec(n, 12, seeds);
      spec.weakset.validate_env = true;
      std::vector<double> lat;
      std::size_t violations = 0, certified = 0;
      for (const auto& cell : run_scenario(spec).weakset_cells) {
        lat.push_back(static_cast<double>(cell.add_latency_total) /
                      static_cast<double>(cell.adds));
        if (!cell.spec_ok) ++violations;
        if (cell.env_ms_ok) ++certified;
      }
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 aggregate(lat).to_string(),
                 Table::num(static_cast<std::uint64_t>(violations)),
                 Table::num(static_cast<std::uint64_t>(certified)) + "/" +
                     Table::num(static_cast<std::uint64_t>(seeds.size()))});
    }
    t.print();
  }

  {
    Table t("E4.b  add latency vs link quality (n=8; timely_prob of non-source links)",
            {"timely_prob", "add latency (rounds)"});
    for (double p : {0.0, 0.1, 0.25, 0.5, 1.0}) {
      ScenarioSpec spec = weakset_spec(8, 12, seeds);
      spec.timely_prob = p;
      std::vector<double> lat;
      for (const auto& cell : run_scenario(spec).weakset_cells)
        lat.push_back(static_cast<double>(cell.add_latency_total) /
                      static_cast<double>(cell.adds));
      t.add_row({Table::num(p, 2), aggregate(lat).to_string()});
    }
    t.print();
  }

  {
    Table t("E4.c  crash resilience (n=8): adds by survivors still complete",
            {"crashes f", "all survivor adds completed", "spec violations"});
    for (std::size_t f : {0u, 3u, 6u}) {
      ScenarioSpec spec = weakset_spec(8, 12, seeds);
      if (f > 0) {
        spec.crashes.kind = CrashGenSpec::Kind::kRandom;
        spec.crashes.count = f;
        spec.crashes.horizon = 20;
        spec.crashes.seed_offset = 3;
      }
      std::size_t completed = 0, violations = 0;
      for (const auto& cell : run_scenario(spec).weakset_cells) {
        completed += cell.all_adds_completed ? 1 : 0;
        if (!cell.spec_ok) ++violations;
      }
      t.add_row({Table::num(static_cast<std::uint64_t>(f)),
                 Table::num(static_cast<std::uint64_t>(completed)) + "/" +
                     Table::num(static_cast<std::uint64_t>(seeds.size())),
                 Table::num(static_cast<std::uint64_t>(violations))});
    }
    t.print();
  }

  write_bench_json(seeds);
}

void BM_WeakSetMs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto report = run_scenario(weakset_spec(n, 12, {seed++}), 1);
    benchmark::DoNotOptimize(report);
    const auto& cell = report.weakset_cells[0];
    state.counters["add_rounds"] = static_cast<double>(cell.add_latency_total) /
                                   static_cast<double>(cell.adds);
  }
}
BENCHMARK(BM_WeakSetMs)->Arg(4)->Arg(16)->Arg(32);

void BM_WsCheckerSweep(benchmark::State& state) {
  const auto ops = static_cast<std::size_t>(state.range(0));
  const auto history = synth_ws_history(ops, 16, 7);
  for (auto _ : state) {
    auto res = check_weak_set_spec(history);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_WsCheckerSweep)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

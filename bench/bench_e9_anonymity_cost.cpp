// E9 — the cost of anonymity (ablation): Algorithm 3 (anonymous pseudo
// leaders) vs the Ω-with-IDs baseline on the SAME environment sweep, plus
// Algorithm 2 where ES holds.  Shape: IDs buy faster convergence and
// bounded state; anonymity costs rounds and (without compression) bytes.
// Both sides are scenario families (consensus / omega).
#include "bench_common.hpp"

namespace anon {
namespace {

using bench::consensus_spec;
using bench::run_scenario;

ScenarioSpec omega_spec(std::size_t n, Round stab, EnvKind kind,
                        const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kOmega;
  spec.seeds = seeds;
  spec.env_kind = kind;
  spec.n = n;
  spec.stabilization = stab;
  return spec;
}

std::vector<double> cell_rounds(const ScenarioReport& report) {
  std::vector<double> out;
  for (const auto& c : report.consensus_cells)
    out.push_back(static_cast<double>(c.report.last_decision_round));
  for (const auto& c : report.omega_cells)
    out.push_back(static_cast<double>(c.last_decision_round));
  return out;
}

std::vector<double> cell_bytes_per_proc(const ScenarioReport& report,
                                        std::size_t n) {
  std::vector<double> out;
  for (const auto& c : report.consensus_cells)
    out.push_back(static_cast<double>(c.report.bytes_sent) /
                  static_cast<double>(n));
  for (const auto& c : report.omega_cells)
    out.push_back(static_cast<double>(c.bytes) / static_cast<double>(n));
  return out;
}

// The tracked hot path of this experiment (BENCH_E9.json): the largest
// ESS cell, Algorithm 3 (anonymous) vs Ω-with-IDs across the seed list,
// interleaved A/B so the committed anonymity-cost ratio is drift-free.
void write_bench_json(const std::vector<std::uint64_t>& seeds,
                      std::size_t n) {
  ScenarioSpec alg3 = bench::preset_spec("e9-alg3");
  ScenarioSpec omega = bench::preset_spec("e9-omega");
  alg3.seeds = seeds;
  omega.seeds = seeds;
  alg3.n = omega.n = n;
  const int reps = bench::smoke() ? 2 : 3;
  ScenarioReport rep_a3, rep_om;
  const bench::AbSeconds ab = bench::interleaved_ab_seconds(
      reps, [&] { rep_a3 = run_scenario(alg3, 1); },
      [&] { rep_om = run_scenario(omega, 1); });
  auto mean = [](std::vector<double> v) { return aggregate(std::move(v)).mean; };
  BenchJson j;
  j.set("experiment", std::string("E9"));
  j.set("workload",
        std::string("ESS stab=10 sweep: Alg3 (anonymous) vs Omega (IDs)"));
  j.set("n", static_cast<std::uint64_t>(n));
  j.set("cells", static_cast<std::uint64_t>(seeds.size()));
  j.set("reps", static_cast<std::uint64_t>(reps));
  j.set("wall_alg3_s", ab.a);
  j.set("wall_omega_s", ab.b);
  j.set("mean_rounds_alg3", mean(cell_rounds(rep_a3)));
  j.set("mean_rounds_omega", mean(cell_rounds(rep_om)));
  j.set("mean_bytes_per_proc_alg3", mean(cell_bytes_per_proc(rep_a3, n)));
  j.set("mean_bytes_per_proc_omega", mean(cell_bytes_per_proc(rep_om, n)));
  j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
  const std::string path = bench::json_path("BENCH_E9.json");
  if (bench::write_json(j, path))
    std::cout << "  [" << path << " written: alg3_s=" << ab.a
              << " omega_s=" << ab.b << "]\n";
}

void print_tables() {
  const auto seeds = experiment_seeds(bench::smoke() ? 3 : 10);
  const std::vector<std::size_t> sizes =
      bench::smoke() ? std::vector<std::size_t>{3u, 5u}
                     : std::vector<std::size_t>{3u, 5u, 9u, 17u};

  {
    Table t("E9.a  decision round in ESS (stab=10): anonymous vs IDs",
            {"n", "Alg 3 (anonymous)", "Ω-consensus (IDs)", "anonymity cost"});
    for (std::size_t n : sizes) {
      const auto a3 = cell_rounds(run_scenario(
          consensus_spec(ConsensusAlgo::kEss, EnvKind::kESS, n, 10, seeds)));
      const auto om =
          cell_rounds(run_scenario(omega_spec(n, 10, EnvKind::kESS, seeds)));
      const double cost =
          aggregate(a3).mean / std::max(1.0, aggregate(om).mean);
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 aggregate(a3).to_string(), aggregate(om).to_string(),
                 Table::ratio(cost)});
    }
    t.print();
  }

  {
    Table t("E9.b  decision round in ES (GST=10): all three algorithms",
            {"n", "Alg 2 (anonymous, ES)", "Alg 3 (anonymous, ESS-style)",
             "Ω-consensus (IDs)"});
    for (std::size_t n : sizes) {
      const auto a2 = cell_rounds(run_scenario(
          consensus_spec(ConsensusAlgo::kEs, EnvKind::kES, n, 10, seeds)));
      const auto a3 = cell_rounds(run_scenario(
          consensus_spec(ConsensusAlgo::kEss, EnvKind::kES, n, 10, seeds)));
      const auto om =
          cell_rounds(run_scenario(omega_spec(n, 10, EnvKind::kES, seeds)));
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 aggregate(a2).to_string(), aggregate(a3).to_string(),
                 aggregate(om).to_string()});
    }
    t.print();
  }

  {
    Table t("E9.c  bytes sent per process until decision (ESS, stab=10)",
            {"n", "Alg 3 (histories+counters)", "Ω-consensus (bounded state)",
             "ratio"});
    for (std::size_t n : sizes) {
      const auto a3 = cell_bytes_per_proc(
          run_scenario(
              consensus_spec(ConsensusAlgo::kEss, EnvKind::kESS, n, 10, seeds)),
          n);
      const auto om = cell_bytes_per_proc(
          run_scenario(omega_spec(n, 10, EnvKind::kESS, seeds)), n);
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 Table::num(aggregate(a3).mean, 0),
                 Table::num(aggregate(om).mean, 0),
                 Table::ratio(aggregate(a3).mean /
                              std::max(1.0, aggregate(om).mean))});
    }
    t.print();
  }

  write_bench_json(seeds, sizes.back());
}

void BM_Alg3VsOmega(benchmark::State& state) {
  const bool omega = state.range(0) == 1;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const ScenarioSpec spec =
        omega ? omega_spec(9, 10, EnvKind::kESS, {seed++})
              : consensus_spec(ConsensusAlgo::kEss, EnvKind::kESS, 9, 10,
                               {seed++});
    const auto report = run_scenario(spec, 1);
    benchmark::DoNotOptimize(report);
    const auto rounds = cell_rounds(report);
    state.counters["rounds"] = rounds.empty() ? 0 : rounds[0];
  }
}
BENCHMARK(BM_Alg3VsOmega)->Arg(0)->Arg(1);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

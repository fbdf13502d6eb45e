// E3 — pseudo leader election convergence (Lemmas 4–6): rounds until the
// self-considered-leader set stabilizes on the eventual source's history,
// compared against the ID-based Ω accusation tracker.  Both probes are
// scenario families now (consensus probe=leader-convergence, omega
// probe=leader-convergence); BENCH_E3.json tracks the two preset cells
// through the unified emitter.
#include "bench_common.hpp"

namespace anon {
namespace {

using bench::run_scenario;

ScenarioSpec pseudo_spec(std::size_t n, Round stab, Round horizon,
                         const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kConsensus;
  spec.seeds = seeds;
  spec.env_kind = EnvKind::kESS;
  spec.n = n;
  spec.stabilization = stab;
  spec.consensus.algo = ConsensusAlgo::kEss;
  spec.consensus.probe = ConsensusSpecSection::Probe::kLeaderConvergence;
  spec.consensus.horizon = horizon;
  spec.consensus.record_trace = false;
  return spec;
}

ScenarioSpec omega_spec(std::size_t n, Round stab, Round horizon,
                        const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kOmega;
  spec.seeds = seeds;
  spec.env_kind = EnvKind::kESS;
  spec.n = n;
  spec.stabilization = stab;
  spec.omega.probe = OmegaSpecSection::Probe::kLeaderConvergence;
  spec.omega.horizon = horizon;
  return spec;
}

SeriesStat pseudo_convergence(const ScenarioReport& report) {
  std::vector<double> rounds;
  for (const auto& cell : report.consensus_cells)
    rounds.push_back(static_cast<double>(cell.convergence_round));
  return aggregate(std::move(rounds));
}

SeriesStat omega_convergence(const ScenarioReport& report) {
  std::vector<double> rounds;
  for (const auto& cell : report.omega_cells)
    rounds.push_back(static_cast<double>(cell.convergence_round));
  return aggregate(std::move(rounds));
}

// The tracked workload (BENCH_E3.json): the two preset probes (ESS n=5,
// horizon 300), interleaved A/B so the committed pseudo-vs-Ω gap is
// drift-free.
void write_bench_json() {
  const auto seeds = experiment_seeds(bench::smoke() ? 3 : 8);
  ScenarioSpec pseudo = bench::preset_spec("e3-pseudo");
  ScenarioSpec omega = bench::preset_spec("e3-omega");
  pseudo.seeds = seeds;
  omega.seeds = seeds;
  const int reps = bench::smoke() ? 2 : 3;
  ScenarioReport rep_pseudo, rep_omega;
  const bench::AbSeconds ab = bench::interleaved_ab_seconds(
      reps, [&] { rep_pseudo = run_scenario(pseudo, 1); },
      [&] { rep_omega = run_scenario(omega, 1); });
  BenchJson j;
  j.set("experiment", std::string("E3"));
  j.set("workload",
        std::string("leader convergence, ESS n=5 stab=0 horizon=300: pseudo "
                    "leaders (histories) vs Omega (IDs)"));
  j.set("cells", static_cast<std::uint64_t>(seeds.size()));
  j.set("reps", static_cast<std::uint64_t>(reps));
  j.set("wall_pseudo_s", ab.a);
  j.set("wall_omega_s", ab.b);
  j.set("mean_convergence_pseudo", pseudo_convergence(rep_pseudo).mean);
  j.set("mean_convergence_omega", omega_convergence(rep_omega).mean);
  j.set("deliveries_pseudo", rep_pseudo.deliveries);
  j.set("deliveries_omega", rep_omega.deliveries);
  j.set("bytes_pseudo", rep_pseudo.bytes);
  j.set("bytes_omega", rep_omega.bytes);
  j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
  const std::string path = bench::json_path("BENCH_E3.json");
  if (bench::write_json(j, path))
    std::cout << "  [" << path << " written: pseudo_s=" << ab.a
              << " omega_s=" << ab.b << "]\n";
}

void print_tables() {
  const auto seeds = experiment_seeds(bench::smoke() ? 3 : 8);
  const Round horizon = 300;

  {
    Table t("E3.a  leader convergence round vs n (stabilization=0, horizon=300)",
            {"n", "pseudo-leaders (histories, anonymous)",
             "Ω accusations (IDs)"});
    for (std::size_t n : {3u, 5u, 9u, 17u}) {
      // Both election races shard their seed lists inside the driver;
      // every cell builds its own net, so sharding cannot perturb results.
      const SeriesStat pseudo =
          pseudo_convergence(run_scenario(pseudo_spec(n, 0, horizon, seeds)));
      const SeriesStat omega =
          omega_convergence(run_scenario(omega_spec(n, 0, horizon, seeds)));
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 pseudo.to_string(), omega.to_string()});
    }
    t.print();
  }

  {
    Table t("E3.b  leader convergence vs stabilization round (n=5)",
            {"stabilization", "pseudo-leaders", "Ω (IDs)",
             "pseudo - stabilization"});
    for (Round stab : {0u, 10u, 40u, 100u}) {
      const auto pseudo_report =
          run_scenario(pseudo_spec(5, stab, horizon + stab, seeds));
      const SeriesStat omega = omega_convergence(
          run_scenario(omega_spec(5, stab, horizon + stab, seeds)));
      std::vector<double> pseudo, slack;
      for (const auto& cell : pseudo_report.consensus_cells) {
        pseudo.push_back(static_cast<double>(cell.convergence_round));
        slack.push_back(static_cast<double>(cell.convergence_round) -
                        static_cast<double>(stab));
      }
      t.add_row({Table::num(static_cast<std::uint64_t>(stab)),
                 aggregate(pseudo).to_string(), omega.to_string(),
                 aggregate(slack).to_string()});
    }
    t.print();
  }

  write_bench_json();
}

void BM_PseudoLeaderElection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto report = run_scenario(pseudo_spec(n, 0, 200, {seed++}), 1);
    benchmark::DoNotOptimize(report);
    state.counters["conv_round"] = static_cast<double>(
        report.consensus_cells[0].convergence_round);
  }
}
BENCHMARK(BM_PseudoLeaderElection)->Arg(5)->Arg(17);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

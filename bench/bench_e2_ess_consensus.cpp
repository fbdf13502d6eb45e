// E2 — Theorem 2: Algorithm 3 solves consensus in ESS via pseudo leader
// election.  Decision rounds vs n / stabilization / crashes; identical vs
// distinct initial values (identical = fully symmetric anonymity case).
// All cells are ScenarioSpecs through the registry; BENCH_E2.json tracks
// the preset `e2` sweep via the unified report emitter.
#include "bench_common.hpp"

namespace anon {
namespace {

using bench::consensus_spec;
using bench::run_scenario;

// The tracked workload (BENCH_E2.json): the preset `e2` ESS n=32 sweep.
void write_bench_json(const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec spec = bench::preset_spec("e2");
  spec.seeds = seeds;
  const int reps = bench::smoke() ? 2 : 3;
  ScenarioReport report;
  const double best = bench::best_seconds(
      reps, [&] { report = run_scenario(spec, /*threads=*/1); });
  Round last = 0;
  for (const auto& cell : report.consensus_cells)
    last = std::max(last, cell.report.last_decision_round);
  BenchJson j;
  j.set("experiment", std::string("E2"));
  j.set("workload", std::string("ESS consensus sweep, n=32, stab=0, serial"));
  j.set("n", static_cast<std::uint64_t>(spec.n));
  j.set("reps", static_cast<std::uint64_t>(reps));
  j.set("wall_s", best);
  j.set("max_last_decision_round", static_cast<std::uint64_t>(last));
  add_report_totals(j, report);
  j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
  const std::string path = bench::json_path("BENCH_E2.json");
  if (bench::write_json(j, path))
    std::cout << "  [" << path << " written: wall_s=" << best << "]\n";
}

void print_tables() {
  const auto seeds = experiment_seeds(bench::smoke() ? 3 : 10);
  const std::vector<std::size_t> sizes =
      bench::smoke() ? std::vector<std::size_t>{2u, 4u, 8u}
                     : std::vector<std::size_t>{2u, 4u, 8u, 16u, 32u};

  {
    Table t("E2.a  Algorithm 3 in ESS: decision round vs n (stabilization=0)",
            {"n", "last decision round", "messages", "bytes/process"});
    for (std::size_t n : sizes) {
      std::vector<double> rounds, msgs, bytes;
      const auto report = run_scenario(
          consensus_spec(ConsensusAlgo::kEss, EnvKind::kESS, n, 0, seeds));
      for (const auto& cell : report.consensus_cells) {
        rounds.push_back(static_cast<double>(cell.report.last_decision_round));
        msgs.push_back(static_cast<double>(cell.report.deliveries));
        bytes.push_back(static_cast<double>(cell.report.bytes_sent) /
                        static_cast<double>(n));
      }
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 aggregate(rounds).to_string(),
                 Table::num(aggregate(msgs).mean, 0),
                 Table::num(aggregate(bytes).mean, 0)});
    }
    t.print();
  }

  {
    Table t("E2.b  decision round vs stabilization round (n=8)",
            {"stabilization", "last decision round", "decision - stab"});
    for (Round stab : {0u, 8u, 16u, 32u, 64u}) {
      std::vector<double> rounds, slack;
      const auto report = run_scenario(
          consensus_spec(ConsensusAlgo::kEss, EnvKind::kESS, 8, stab, seeds));
      for (const auto& cell : report.consensus_cells) {
        rounds.push_back(static_cast<double>(cell.report.last_decision_round));
        slack.push_back(static_cast<double>(cell.report.last_decision_round) -
                        static_cast<double>(stab));
      }
      t.add_row({Table::num(static_cast<std::uint64_t>(stab)),
                 aggregate(rounds).to_string(),
                 aggregate(slack).to_string()});
    }
    t.print();
  }

  {
    Table t("E2.c  crash tolerance (n=8, stabilization=12)",
            {"crashes f", "all correct decided", "agreement",
             "last decision round"});
    for (std::size_t f : {0u, 2u, 4u, 7u}) {
      std::size_t decided = 0, agree = 0;
      std::vector<double> rounds;
      const auto report = run_scenario(
          consensus_spec(ConsensusAlgo::kEss, EnvKind::kESS, 8, 12, seeds, f));
      for (const auto& cell : report.consensus_cells) {
        decided += cell.report.all_correct_decided ? 1 : 0;
        agree += cell.report.agreement ? 1 : 0;
        rounds.push_back(static_cast<double>(cell.report.last_decision_round));
      }
      t.add_row({Table::num(static_cast<std::uint64_t>(f)),
                 Table::num(static_cast<std::uint64_t>(decided)) + "/" +
                     Table::num(static_cast<std::uint64_t>(seeds.size())),
                 Table::num(static_cast<std::uint64_t>(agree)) + "/" +
                     Table::num(static_cast<std::uint64_t>(seeds.size())),
                 aggregate(rounds).to_string()});
    }
    t.print();
  }

  {
    Table t("E2.d  symmetric (identical values) vs distinct proposals (n=8, stab=0)",
            {"workload", "last decision round"});
    for (bool identical : {true, false}) {
      std::vector<double> rounds;
      ScenarioSpec spec =
          consensus_spec(ConsensusAlgo::kEss, EnvKind::kESS, 8, 0, seeds);
      if (identical) {
        spec.initial.kind = ValueGenSpec::Kind::kIdentical;
        spec.initial.base = 42;
      }
      for (const auto& cell : run_scenario(spec).consensus_cells)
        rounds.push_back(static_cast<double>(cell.report.last_decision_round));
      t.add_row({identical ? "identical (symmetric)" : "distinct",
                 aggregate(rounds).to_string()});
    }
    t.print();
  }

  write_bench_json(seeds);
}

void BM_EssConsensus(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto report = run_scenario(
        consensus_spec(ConsensusAlgo::kEss, EnvKind::kESS, n, 8, {seed++}), 1);
    benchmark::DoNotOptimize(report);
    state.counters["rounds"] = static_cast<double>(
        report.consensus_cells[0].report.last_decision_round);
  }
}
BENCHMARK(BM_EssConsensus)->Arg(4)->Arg(16)->Arg(32);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

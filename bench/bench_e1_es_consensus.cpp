// E1 — Theorem 1: Algorithm 2 solves consensus in ES.
//
// Tables: decision round vs n; decision round vs GST (shape: GST + small
// constant); decision round vs crash count (any minority/majority — no
// quorum).  Every cell is a ScenarioSpec dispatched through the scenario
// registry; E1.d pins the thread-count invariance of the driver itself.
#include "bench_common.hpp"

namespace anon {
namespace {

using bench::consensus_spec;
using bench::run_scenario;
using bench::timed_seconds;

// The tracked hot-path workload of this experiment (BENCH_E1.json): the
// preset `e1` sweep (full E1.a n=64 cell), serial, best wall clock over a
// few repetitions — now produced by the unified driver + report emitter.
void write_bench_json(const std::vector<std::uint64_t>& seeds) {
  ScenarioSpec spec = bench::preset_spec("e1");
  spec.seeds = seeds;
  const int reps = bench::smoke() ? 2 : 5;
  ScenarioReport report;
  const double best = bench::best_seconds(
      reps, [&] { report = run_scenario(spec, /*threads=*/1); });
  BenchJson j;
  j.set("experiment", std::string("E1"));
  j.set("workload", std::string("ES consensus sweep, n=64, GST=0, serial"));
  j.set("n", static_cast<std::uint64_t>(spec.n));
  j.set("reps", static_cast<std::uint64_t>(reps));
  j.set("wall_s", best);
  add_report_totals(j, report);
  j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
  const std::string path = bench::json_path("BENCH_E1.json");
  if (bench::write_json(j, path))
    std::cout << "  [" << path << " written: wall_s=" << best << "]\n";
}

void print_tables() {
  const auto seeds = experiment_seeds(bench::smoke() ? 3 : 10);

  {
    Table t("E1.a  Algorithm 2 in ES: decision round vs n (GST=0, distinct values)",
            {"n", "last decision round", "messages", "bytes/process"});
    for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
      std::vector<double> rounds, msgs, bytes;
      const auto report = run_scenario(
          consensus_spec(ConsensusAlgo::kEs, EnvKind::kES, n, 0, seeds));
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
    Table t("E1.b  decision round vs GST under the adversarial (bivalent-until-GST) schedule (n=8)",
            {"GST", "last decision round", "decision - GST"});
    for (Round gst : {0u, 8u, 16u, 32u, 64u, 128u}) {
      ScenarioSpec spec;
      spec.family = ScenarioFamily::kConsensus;
      spec.seeds = {1};
      spec.env_kind = EnvKind::kES;
      spec.n = 8;
      spec.stabilization = gst;
      spec.initial.kind = ValueGenSpec::Kind::kBivalent;
      spec.consensus.algo = ConsensusAlgo::kEs;
      spec.consensus.schedule =
          ConsensusSpecSection::Schedule::kBivalentUntilGst;
      spec.consensus.max_rounds = gst + 200;
      spec.consensus.record_trace = false;
      const auto report = run_scenario(spec);
      const Round last = report.consensus_cells[0].report.last_decision_round;
      t.add_row({Table::num(static_cast<std::uint64_t>(gst)),
                 Table::num(last),
                 Table::num(static_cast<std::uint64_t>(last - gst))});
    }
    t.print();
  }

  {
    Table t("E1.c' decision round vs GST with a RANDOMIZED pre-GST prefix (n=8) — often early",
            {"GST", "last decision round"});
    for (Round gst : {0u, 16u, 64u}) {
      std::vector<double> rounds;
      const auto report = run_scenario(
          consensus_spec(ConsensusAlgo::kEs, EnvKind::kES, 8, gst, seeds));
      for (const auto& cell : report.consensus_cells)
        rounds.push_back(static_cast<double>(cell.report.last_decision_round));
      t.add_row({Table::num(static_cast<std::uint64_t>(gst)),
                 aggregate(rounds).to_string()});
    }
    t.print();
    std::cout << "  (Randomized benign prefixes let decisions land before\n"
                 "   GST — ES only bounds the WORST case, shown in E1.b.)\n";
  }

  {
    Table t("E1.c  crash tolerance (n=8, GST=12): ANY number of crashes < n",
            {"crashes f", "all correct decided", "agreement", "last decision round"});
    for (std::size_t f : {0u, 2u, 4u, 7u}) {
      std::size_t decided = 0, agree = 0;
      std::vector<double> rounds;
      const auto report = run_scenario(
          consensus_spec(ConsensusAlgo::kEs, EnvKind::kES, 8, 12, seeds, f));
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
    // The E1.a grid again, through the driver at 1 vs 4 worker threads:
    // the scenario layer's determinism contract is that the DETERMINISTIC
    // report JSON (everything but timing) is byte-identical at any thread
    // count, while wall clock drops with cores.
    std::vector<ScenarioSpec> specs;
    for (std::size_t n : {8u, 16u, 32u, 64u})
      specs.push_back(
          consensus_spec(ConsensusAlgo::kEs, EnvKind::kES, n, 0, seeds));

    double serial_s = 0, parallel_s = 0;
    bool identical = true;
    for (const auto& spec : specs) {
      ScenarioReport serial, parallel;
      serial_s += timed_seconds([&] { serial = run_scenario(spec, 1); });
      parallel_s += timed_seconds([&] { parallel = run_scenario(spec, 4); });
      identical = identical && serial.to_json_string(false) ==
                                   parallel.to_json_string(false);
    }
    Table t("E1.d  scenario driver: serial vs 4-thread shard over the E1.a grid (" +
                Table::num(static_cast<std::uint64_t>(specs.size() * seeds.size())) +
                " cells)",
            {"runner", "wall-clock s", "speedup", "reports identical"});
    t.add_row({"serial (1 thread)", Table::num(serial_s, 3), "1.00x", "-"});
    t.add_row({"sharded (4 threads)", Table::num(parallel_s, 3),
               Table::ratio(serial_s / parallel_s),
               identical ? "yes" : "NO — BUG"});
    t.print();
    std::cout << "  (hardware threads available: "
              << resolve_sweep_threads(0) << ")\n";
  }

  write_bench_json(seeds);
}

void BM_EsConsensus(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto report = run_scenario(
        consensus_spec(ConsensusAlgo::kEs, EnvKind::kES, n, 8, {seed++}), 1);
    benchmark::DoNotOptimize(report);
    const auto& rep = report.consensus_cells[0].report;
    state.counters["rounds"] = static_cast<double>(rep.last_decision_round);
    state.counters["msgs"] = static_cast<double>(rep.deliveries);
  }
}
BENCHMARK(BM_EsConsensus)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

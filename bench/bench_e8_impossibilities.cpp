// E8 — the impossibility results, executable:
//  (a) consensus is impossible in MS (FLP corollary via Theorem 4): the
//      bivalent two-camp MS schedule blocks Algorithm 2 forever, while the
//      trace stays a certified MS run — a consensus-family scenario with
//      schedule "bivalent-ms";
//  (b) naive "hostile" MS schedules let Algorithm 2 converge — schedule
//      "hostile-ms" (bivalence needs the two-camp structure);
//  (c) Σ is not emulable in MS even with IDs (Proposition 4): the two-run
//      adversary defeats every candidate emulator (bespoke harness).
// BENCH_E8.json tracks the preset e8-bivalent cell via the unified emitter.
#include "bench_common.hpp"

#include "emul/sigma_adversary.hpp"

namespace anon {
namespace {

using bench::run_scenario;

// The preset workload, rescaled: one source of truth for the two-camp
// schedule's shape (src/scenario/presets.cpp), n/horizon varied here.
ScenarioSpec bivalent_spec(std::size_t n, Round horizon) {
  ScenarioSpec spec = bench::preset_spec("e8-bivalent");
  spec.n = n;
  spec.consensus.max_rounds = horizon;
  return spec;
}

void write_bench_json() {
  ScenarioSpec spec = bench::preset_spec("e8-bivalent");
  if (bench::smoke()) {
    spec.n = 5;
    spec.consensus.max_rounds = 500;
  }
  const int reps = bench::smoke() ? 2 : 3;
  ScenarioReport report;
  const double best =
      bench::best_seconds(reps, [&] { report = run_scenario(spec); });
  const auto& cell = report.consensus_cells[0];
  BenchJson j;
  j.set("experiment", std::string("E8"));
  j.set("workload",
        std::string("bivalent two-camp MS schedule vs Alg 2 (must never "
                    "decide; trace must certify MS)"));
  j.set("n", static_cast<std::uint64_t>(spec.n));
  j.set("horizon", static_cast<std::uint64_t>(spec.consensus.max_rounds));
  j.set("reps", static_cast<std::uint64_t>(reps));
  j.set("wall_s", best);
  j.set("decided", static_cast<std::uint64_t>(
                       cell.report.all_correct_decided ? 1 : 0));
  j.set("camps_intact",
        static_cast<std::uint64_t>(cell.camps_intact == 1 ? 1 : 0));
  j.set("ms_certified",
        static_cast<std::uint64_t>(cell.report.env_check.ms_ok ? 1 : 0));
  add_report_totals(j, report);
  j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
  const std::string path = bench::json_path("BENCH_E8.json");
  if (bench::write_json(j, path))
    std::cout << "  [" << path << " written: wall_s=" << best << "]\n";
}

void print_tables() {
  const Round horizon = bench::smoke() ? 500 : 4000;
  {
    Table t("E8.a  bivalent two-camp MS schedule vs Algorithm 2 (horizon " +
                Table::num(static_cast<std::uint64_t>(horizon)) + " rounds)",
            {"n", "decided?", "camps intact?", "trace MS-certified?"});
    for (std::size_t n : {3u, 5u, 9u, 17u}) {
      const auto report = run_scenario(bivalent_spec(n, horizon));
      const auto& cell = report.consensus_cells[0];
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 cell.report.all_correct_decided ? "DECIDED (unexpected!)"
                                                 : "no (forever)",
                 cell.camps_intact == 1 ? "yes" : "no",
                 cell.report.env_check.ms_ok ? "yes" : "NO"});
    }
    t.print();
  }

  {
    Table t("E8.b  naive hostile MS schedules DO converge in lock-step (context)",
            {"schedule", "n", "decision round"});
    for (std::size_t n : {4u, 8u}) {
      ScenarioSpec spec;
      spec.family = ScenarioFamily::kConsensus;
      spec.seeds = {21};
      spec.env_kind = EnvKind::kMS;
      spec.n = n;
      spec.consensus.algo = ConsensusAlgo::kEs;
      spec.consensus.schedule = ConsensusSpecSection::Schedule::kHostileMs;
      spec.consensus.max_rounds = 2000;
      const auto report = run_scenario(spec);
      const auto& rep = report.consensus_cells[0].report;
      t.add_row({"rotating source, rest late",
                 Table::num(static_cast<std::uint64_t>(n)),
                 rep.all_correct_decided ? Table::num(rep.rounds_executed)
                                         : "none"});
    }
    t.print();
    std::cout
        << "  (The per-round source relays one value to everybody and the\n"
           "   max-adoption rule collapses bivalence; only the two-camp\n"
           "   asymmetric schedule of E8.a keeps two estimates alive.)\n";
  }

  {
    Table t("E8.c  Proposition 4: every Σ candidate loses a property (horizon 300)",
            {"candidate", "completeness r1", "completeness r2",
             "intersection", "witness t"});
    std::vector<std::unique_ptr<SigmaFactory>> factories;
    factories.push_back(std::make_unique<RecentlyHeardSigmaFactory>(2));
    factories.push_back(std::make_unique<RecentlyHeardSigmaFactory>(25));
    factories.push_back(std::make_unique<CumulativeSigmaFactory>());
    factories.push_back(std::make_unique<FullSetSigmaFactory>());
    for (const auto& f : factories) {
      auto v = run_prop4_scenario(*f, 300);
      t.add_row({f->name(), v.completeness_r1 ? "ok" : "VIOLATED",
                 v.completeness_r1
                     ? (v.completeness_r2 ? "ok" : "VIOLATED")
                     : "-",
                 v.completeness_r1 && v.completeness_r2
                     ? (v.intersection_violated ? "VIOLATED" : "held?!")
                     : "-",
                 v.completeness_r1 ? Table::num(v.t) : "-"});
    }
    t.print();
  }

  write_bench_json();
}

void BM_BivalentSchedule(benchmark::State& state) {
  for (auto _ : state) {
    ScenarioSpec spec = bivalent_spec(5, 1000);
    spec.consensus.record_trace = false;
    spec.consensus.validate_env = false;
    const auto report = run_scenario(spec, 1);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_BivalentSchedule);

void BM_SigmaScenario(benchmark::State& state) {
  RecentlyHeardSigmaFactory f(4);
  for (auto _ : state) {
    auto v = run_prop4_scenario(f, 300);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SigmaScenario);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

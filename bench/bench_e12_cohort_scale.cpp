// E12 — cohort-collapsed execution at scale (PR 3 tentpole).
//
// The cohort engine simulates anonymous processes by state-equivalence
// class (net/cohort.hpp), so a failure-free post-GST run costs O(C²) per
// round in the number of distinct states — independent of n.  The
// E1-shaped workload is the preset `e12-cohort` scenario (cycle-generated
// proposals bound the domain to 8 classes at ANY n); only E12.c (the
// heavy-message CohortNet probe) still drives the engine directly.
//
//   E12.a  E1-shaped ES consensus ladder, n = 1e3 … 1e6, cohort engine:
//          wall clock stays flat-ish in n (dominated by O(n) setup) while
//          the simulated link traffic grows ~n².
//   E12.b  cohort vs expanded engine at n = 4096 on the same workload,
//          interleaved A/B — the committed speedup number.
//   E12.c  E10-shaped workload (Algorithm 3 message shape, no decision,
//          fixed horizon) on the cohort engine: heavy per-message state,
//          same collapse.
//
// BENCH_E12.json records the n = 1e6 completion and the n = 4096 speedup.
#include "bench_common.hpp"

#include <memory>
#include <vector>

#include "algo/ess_consensus.hpp"
#include "common/history.hpp"
#include "net/cohort.hpp"

namespace anon {
namespace {

using bench::run_scenario;

constexpr std::size_t kDomain = 8;

ScenarioSpec e1_shaped(std::size_t n, ConsensusBackend backend) {
  ScenarioSpec spec = bench::preset_spec("e12-cohort");
  spec.n = n;
  spec.consensus.backend = backend;
  spec.consensus.record_trace = false;
  return spec;
}

void print_tables() {
  const std::vector<std::size_t> ladder =
      bench::smoke() ? std::vector<std::size_t>{1000u, 10000u}
                     : std::vector<std::size_t>{1000u, 10000u, 100000u,
                                                1000000u};
  double wall_nmax = 0;
  std::uint64_t rounds_nmax = 0, cohorts_nmax = 0;

  {
    Table t("E12.a  cohort engine, E1-shaped ES run (GST=0, 8 proposal values)",
            {"n", "wall-clock s", "rounds", "max cohorts", "link deliveries"});
    for (std::size_t n : ladder) {
      ScenarioReport report;
      const double s = bench::timed_seconds([&] {
        report = run_scenario(e1_shaped(n, ConsensusBackend::kCohort), 1);
      });
      const auto& rep = report.consensus_cells[0].report;
      ANON_CHECK_MSG(rep.all_correct_decided && rep.agreement,
                     "cohort run must decide consensus");
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 Table::num(s, 3), Table::num(rep.rounds_executed),
                 Table::num(static_cast<std::uint64_t>(rep.cohorts_max)),
                 Table::num(rep.deliveries)});
      if (n == ladder.back()) {
        wall_nmax = s;
        rounds_nmax = rep.rounds_executed;
        cohorts_nmax = rep.cohorts_max;
      }
    }
    t.print();
    std::cout << "  (the expanded engine is O(n²) per round: its n=1e6 row\n"
                 "   would be ~10⁶× the n=1e3 one — see E12.b for the\n"
                 "   measured head-to-head at n=4096.)\n";
  }

  const std::size_t ab_n = bench::smoke() ? 256 : 4096;
  double ab_cohort_s = 0, ab_expanded_s = 0;
  {
    const int reps = bench::smoke() ? 1 : 2;
    ScenarioReport rep_c, rep_e;
    const bench::AbSeconds ab = bench::interleaved_ab_seconds(
        reps,
        [&] {
          rep_e = run_scenario(e1_shaped(ab_n, ConsensusBackend::kExpanded), 1);
        },
        [&] {
          rep_c = run_scenario(e1_shaped(ab_n, ConsensusBackend::kCohort), 1);
        });
    ab_expanded_s = ab.a;
    ab_cohort_s = ab.b;
    const bool identical = rep_e.consensus_cells[0].report.to_string() ==
                           rep_c.consensus_cells[0].report.to_string();
    Table t("E12.b  expanded vs cohort engine, same workload (n=" +
                Table::num(static_cast<std::uint64_t>(ab_n)) +
                ", interleaved A/B best-of-" + std::to_string(reps) + ")",
            {"engine", "wall-clock s", "speedup", "reports identical"});
    t.add_row({"expanded (LockstepNet)", Table::num(ab_expanded_s, 3), "1.00x",
               "-"});
    t.add_row({"cohort (CohortNet)", Table::num(ab_cohort_s, 3),
               Table::ratio(ab.ratio()), identical ? "yes" : "NO — BUG"});
    t.print();
    ANON_CHECK_MSG(identical, "cohort A/B must reproduce the expanded report");
  }

  {
    // E10-shaped: Algorithm 3's heavy messages (history + counters), no
    // decision, fixed horizon — the state-growth workload, collapsed.
    // CohortNet is driven directly: the scenario layer's state-growth
    // probe is expanded-only (it inspects a representative automaton).
    const Round horizon = bench::smoke() ? 50u : 100u;
    Table t("E12.c  cohort engine, E10-shaped run (Alg 3 messages, no decide, " +
                Table::num(static_cast<std::uint64_t>(horizon)) + " rounds)",
            {"n", "wall-clock s", "max cohorts", "bytes on the wire"});
    for (std::size_t n : {ladder.front(), ladder[1]}) {
      const SynchronousDelays delays;
      HistoryArena arena;
      EssConsensus::Options no_decide;
      no_decide.decide = false;
      std::vector<Value> init;
      init.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        init.push_back(Value(100 + static_cast<std::int64_t>(i % kDomain)));
      auto groups = groups_by_initial_value<EssMessage>(
          init, [&](const Value& v) {
            return std::make_unique<EssConsensus>(v, &arena, no_decide);
          });
      CohortOptions opt;
      opt.max_rounds = horizon + 5;
      CohortNet<EssMessage> net(std::move(groups), delays, CrashPlan{}, opt);
      const double s =
          bench::timed_seconds([&] { net.run_rounds(horizon); });
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 Table::num(s, 3),
                 Table::num(static_cast<std::uint64_t>(net.stats().max_cohorts)),
                 Table::num(net.bytes_sent())});
    }
    t.print();
  }

  {
    BenchJson j;
    j.set("experiment", std::string("E12"));
    j.set("workload",
          std::string("E1-shaped ES consensus (GST=0, 8 proposal values), "
                      "cohort-collapsed engine"));
    j.set("n_max", static_cast<std::uint64_t>(ladder.back()));
    j.set("wall_nmax_s", wall_nmax);
    j.set("rounds_nmax", rounds_nmax);
    j.set("cohorts_max_nmax", cohorts_nmax);
    j.set("ab_n", static_cast<std::uint64_t>(ab_n));
    j.set("wall_expanded_s", ab_expanded_s);
    j.set("wall_cohort_s", ab_cohort_s);
    j.set("speedup",
          ab_cohort_s > 0 ? ab_expanded_s / ab_cohort_s : 0.0);
    j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
    const std::string path = bench::json_path("BENCH_E12.json");
    if (bench::write_json(j, path))
      std::cout << "  [" << path << " written: n_max=" << ladder.back()
                << " wall=" << wall_nmax << "s, n=" << ab_n
                << " speedup=" << (ab_cohort_s > 0
                                       ? ab_expanded_s / ab_cohort_s
                                       : 0.0)
                << "x]\n";
  }
}

void BM_CohortEsConsensus(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ScenarioSpec spec = e1_shaped(n, ConsensusBackend::kCohort);
    spec.seeds = {seed++};
    const auto report = run_scenario(spec, 1);
    benchmark::DoNotOptimize(report);
    const auto& cell = report.consensus_cells[0];
    state.counters["rounds"] =
        static_cast<double>(cell.report.last_decision_round);
    state.counters["cohorts"] = static_cast<double>(cell.report.cohorts_max);
  }
}
BENCHMARK(BM_CohortEsConsensus)->Arg(1024)->Arg(16384);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

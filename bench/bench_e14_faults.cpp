// E14 — the fault-injection survival map (PR 7 tentpole).
//
// Sweeps fault intensity × environment (MS / ES / ESS) with the seeded
// FaultPlan layer (env/faults.hpp) over the E14 preset shape: per-link
// loss at `intensity`, duplication at intensity/2, reorder at `intensity`,
// one omission-faulty sender, one churn window, the no-progress watchdog
// armed.  Per cell the map reports how many runs still decide, how many
// degrade to `undecided`, and how far the decision round stretches —
// while agreement/validity are CHECKed to hold in every exempt-source
// cell (the safety contract: the planned source's links are fault-free,
// which is exactly what Algorithm 2's agreement proof consumes).
//
// A second, smaller table clears the exemption (the e14-hostile shape) to
// map where the guarantees actually break: agreement violations are
// *counted* there, not checked, because breaking is the datum.
//
// BENCH_E14.json records the survival row at the heaviest intensity per
// environment plus the hostile violation count, so the tracked numbers
// catch both a fault layer that stops degrading (too kind) and one that
// breaks safety under exemption (the real regression).
#include "bench_common.hpp"

#include <vector>

#include "algo/runner.hpp"

namespace anon {
namespace {

using bench::run_scenario;

ScenarioSpec grid_spec(EnvKind kind, double intensity, std::size_t n,
                       std::size_t seed_count, bool exempt_source) {
  ScenarioSpec spec = bench::preset_spec("e14-survival");
  spec.name = "";
  spec.env_kind = kind;
  spec.n = n;
  spec.seeds = experiment_seeds(seed_count);
  spec.consensus.algo =
      kind == EnvKind::kESS ? ConsensusAlgo::kEss : ConsensusAlgo::kEs;
  spec.faults.loss_prob = intensity;
  spec.faults.dup_prob = intensity / 2;
  spec.faults.reorder_prob = intensity;
  spec.faults.exempt_source = exempt_source;
  if (intensity == 0) {
    // The fault-free baseline column: an inactive plan, not a plan that
    // only omits/churns.
    spec.faults.omission_senders.clear();
    spec.faults.churn.clear();
  }
  return spec;
}

struct CellStats {
  std::size_t cells = 0, decided = 0, undecided = 0, safety_ok = 0;
  std::uint64_t drops = 0, dups = 0;
  double mean_last = 0;  // mean last decision round over the decided cells
};

CellStats stats_of(const ScenarioReport& rep) {
  CellStats s;
  std::uint64_t last_sum = 0;
  for (const auto& c : rep.consensus_cells) {
    ++s.cells;
    if (c.report.all_correct_decided) {
      ++s.decided;
      last_sum += c.report.last_decision_round;
    }
    if (c.report.undecided) ++s.undecided;
    if (c.report.agreement && c.report.validity) ++s.safety_ok;
    s.drops += c.report.fault_drops;
    s.dups += c.report.fault_dups;
  }
  s.mean_last =
      s.decided > 0 ? static_cast<double>(last_sum) / s.decided : 0;
  return s;
}

const char* env_name(EnvKind k) {
  switch (k) {
    case EnvKind::kMS: return "MS";
    case EnvKind::kES: return "ES";
    case EnvKind::kESS: return "ESS";
  }
  return "?";
}

void print_tables() {
  const std::size_t n = bench::smoke() ? 8 : 32;
  const std::size_t seeds = bench::smoke() ? 3 : 10;
  const std::vector<double> intensities =
      bench::smoke() ? std::vector<double>{0, 0.2}
                     : std::vector<double>{0, 0.05, 0.1, 0.2, 0.35, 0.5};
  const std::vector<EnvKind> envs = {EnvKind::kMS, EnvKind::kES,
                                     EnvKind::kESS};

  // ---- The survival map (source exempt: safety must hold) ------------------
  Table t("E14  fault survival map, n=" + std::to_string(n) + ", " +
              std::to_string(seeds) +
              " seeds per cell (source exempt: safety CHECKed, only "
              "termination degrades)",
          {"env", "intensity", "decided", "undecided", "mean last round",
           "link drops", "link dups"});
  // Indexed [env][intensity]; the JSON below reads the heaviest column.
  std::vector<std::vector<CellStats>> grid(envs.size());
  double grid_wall_s = 0;
  for (std::size_t e = 0; e < envs.size(); ++e) {
    for (const double intensity : intensities) {
      ScenarioReport rep;
      grid_wall_s += bench::timed_seconds([&] {
        rep = run_scenario(grid_spec(envs[e], intensity, n, seeds, true), 1);
      });
      const CellStats s = stats_of(rep);
      ANON_CHECK_MSG(s.safety_ok == s.cells,
                     "E14: agreement/validity must hold in every "
                     "exempt-source cell");
      grid[e].push_back(s);
      t.add_row({env_name(envs[e]), Table::num(intensity, 2),
                 std::to_string(s.decided) + "/" + std::to_string(s.cells),
                 std::to_string(s.undecided), Table::num(s.mean_last, 1),
                 Table::num(s.drops), Table::num(s.dups)});
    }
  }
  t.print();
  std::cout << "  (every cell above kept agreement and validity; cells that "
               "stopped deciding\n   degraded to a graceful watchdog "
               "`undecided`, never an abort.)\n";

  // ---- Where safety actually breaks (exemption off) ------------------------
  const double hostile_intensity = bench::smoke() ? 0.2 : 0.35;
  Table h("E14  exemption OFF at intensity " +
              Table::num(hostile_intensity, 2) +
              " (the contract deliberately broken)",
          {"env", "decided", "undecided", "safety held"});
  std::size_t hostile_cells = 0, hostile_safety_ok = 0;
  for (const EnvKind kind : envs) {
    const ScenarioReport rep =
        run_scenario(grid_spec(kind, hostile_intensity, n, seeds, false), 1);
    const CellStats s = stats_of(rep);
    hostile_cells += s.cells;
    hostile_safety_ok += s.safety_ok;
    h.add_row({env_name(kind),
               std::to_string(s.decided) + "/" + std::to_string(s.cells),
               std::to_string(s.undecided),
               std::to_string(s.safety_ok) + "/" + std::to_string(s.cells)});
  }
  h.print();
  std::cout << "  (violations here are the survival map's edge, not a bug: "
               "without the source\n   exemption the agreement proof's "
               "premise is gone.)\n";

  {
    const CellStats& ms = grid[0].back();
    const CellStats& es = grid[1].back();
    const CellStats& ess = grid[2].back();
    BenchJson j;
    j.set("experiment", std::string("E14"));
    j.set("workload",
          std::string("fault survival map: intensity x env grid, seeded "
                      "loss/dup/reorder + omission + churn, watchdog-bounded"));
    j.set("n", static_cast<std::uint64_t>(n));
    j.set("seeds", static_cast<std::uint64_t>(seeds));
    j.set("max_intensity", intensities.back());
    j.set("ms_decided", static_cast<std::uint64_t>(ms.decided));
    j.set("ms_undecided", static_cast<std::uint64_t>(ms.undecided));
    j.set("es_decided", static_cast<std::uint64_t>(es.decided));
    j.set("es_undecided", static_cast<std::uint64_t>(es.undecided));
    j.set("es_mean_last_round", es.mean_last);
    j.set("ess_decided", static_cast<std::uint64_t>(ess.decided));
    j.set("ess_undecided", static_cast<std::uint64_t>(ess.undecided));
    j.set("es_link_drops", es.drops);
    j.set("es_link_dups", es.dups);
    j.set("hostile_intensity", hostile_intensity);
    j.set("hostile_cells", static_cast<std::uint64_t>(hostile_cells));
    j.set("hostile_safety_held",
          static_cast<std::uint64_t>(hostile_safety_ok));
    j.set("grid_wall_s", grid_wall_s);
    j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
    const std::string path = bench::json_path("BENCH_E14.json");
    if (bench::write_json(j, path))
      std::cout << "  [" << path << " written: es " << es.decided << "/"
                << es.cells << " decided at intensity "
                << intensities.back() << ", " << hostile_safety_ok << "/"
                << hostile_cells << " hostile cells kept safety]\n";
  }
}

void BM_FaultedEsConsensus(benchmark::State& state) {
  // Per-run cost of the fault layer at intensity range(0)/100 (0 = the
  // inactive-plan fast path, for the overhead baseline).
  const double intensity = static_cast<double>(state.range(0)) / 100.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ScenarioSpec spec = grid_spec(EnvKind::kES, intensity, 16, 1, true);
    spec.seeds = {seed++};
    const ScenarioReport rep = run_scenario(spec, 1);
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_FaultedEsConsensus)->Arg(0)->Arg(10)->Arg(35);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

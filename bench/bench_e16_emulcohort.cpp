// E16 — the cohort-collapsed §5 stack (weak-set and emulation families on
// backend=cohort).
//
// The weak-set harness (weakset/ms_weak_set.cpp) and the emulation runner
// (scenario/runner_emulation.cpp) now dispatch on a backend knob: the
// expanded engines keep one automaton per process, the cohort engines keep
// one representative per state-equivalence class (net/cohort.hpp,
// emul/ms_emulation_cohort.hpp).  An idle weak-set run is ONE class until
// a scripted op splits a member out, and the e16 emulation shape bounds
// the echo-probe seed support to an 8-value cycle, so both runs collapse
// to O(1) classes and the expanded engines' Θ(n²)-ish per-round work
// drops to the O(n) observe/setup passes.
//
//   E16.a  weak-set A/B at n=4096: e16-ws-cohort's workload on the
//          expanded vs the cohort backend, interleaved, and the two timed
//          runs' reports verified byte-identical.  This is the committed
//          ≥100× number.  The expanded engine is the serial reference —
//          it schedules all Θ(n²) per-link calendar entries each round.
//   E16.b  weak-set cohort-only scale ladder to n=10^5.
//   E16.c  emulation A/B over n ∈ {32, 128, 512, 1024} — the expanded
//          engine records a Θ(r·n²) trace (every delivery to every
//          process), so n=4096 on the A side would hold multi-GB of
//          trace; the ladder stops where the A side is honest (the
//          cohort engine overtakes around n≈512) and the cohort side
//          continues alone in E16.d.
//   E16.d  emulation cohort-only at n=4096 and n=10^5 (8-value probe
//          cycle, certification off — the engine records no trace).
//
// BENCH_E16.json records the A/B ratios and the scale-ladder wall clocks.
#include "bench_common.hpp"

#include <string>
#include <vector>

namespace anon {
namespace {

using bench::run_scenario;

ScenarioSpec ws_spec(std::size_t n, bool cohort) {
  ScenarioSpec spec = bench::preset_spec("e16-ws-cohort");
  spec.name = "";
  spec.n = n;
  if (!cohort) spec.weakset.backend = WeaksetSpecSection::Backend::kExpanded;
  return spec;
}

ScenarioSpec emul_spec(std::size_t n, bool cohort) {
  ScenarioSpec spec = bench::preset_spec("e16-emul-cohort");
  spec.name = "";
  spec.n = n;
  if (!cohort)
    spec.emulation.backend = EmulationSpecSection::Backend::kExpanded;
  return spec;
}

// Both backends must produce the same report bytes (timing excluded).
bool identical_reports(const ScenarioReport& a, const ScenarioReport& b) {
  return a.to_json_string(false) == b.to_json_string(false);
}

void print_tables() {
  // ---- E16.a: weak-set expanded vs cohort at n=4096 ------------------------
  const std::size_t n_a = bench::smoke() ? 512 : 4096;
  double ws_expanded_s = 0, ws_cohort_s = 0;
  {
    // The committed number: serial expanded vs cohort, interleaved once
    // (the expanded run is the multi-minute side; more reps buy nothing).
    // The timed runs' own reports are the byte-identity gate.
    ScenarioReport ref, coh;
    const bench::AbSeconds ab = bench::interleaved_ab_seconds(
        1, [&] { ref = run_scenario(ws_spec(n_a, false), 1); },
        [&] { coh = run_scenario(ws_spec(n_a, true), 1); });
    ANON_CHECK_MSG(!ref.weakset_cells.empty() &&
                       ref.weakset_cells[0].spec_ok,
                   "E16.a weak-set run must satisfy the spec");
    ANON_CHECK_MSG(identical_reports(ref, coh),
                   "E16.a cohort report must be byte-identical to expanded");
    ws_expanded_s = ab.a;
    ws_cohort_s = ab.b;
    Table t("E16.a  weak-set backend A/B, e16-ws-cohort workload n=" +
                Table::num(static_cast<std::uint64_t>(n_a)) +
                " (expanded vs cohort, interleaved)",
            {"backend", "wall-clock s", "speedup", "reports identical"});
    t.add_row({"expanded", Table::num(ws_expanded_s, 3), "1.00x", "-"});
    t.add_row({"cohort", Table::num(ws_cohort_s, 3), Table::ratio(ab.ratio()),
               "yes"});
    t.print();
  }

  // ---- E16.b: weak-set cohort-only scale ladder ----------------------------
  std::vector<std::size_t> ladder_b = {10000, 100000};
  if (bench::smoke()) ladder_b = {10000};
  std::vector<double> ws_scale_s(ladder_b.size(), 0);
  {
    Table t("E16.b  cohort weak-set scale ladder (e16-ws-cohort workload)",
            {"n", "wall-clock s", "spec ok"});
    for (std::size_t i = 0; i < ladder_b.size(); ++i) {
      ScenarioReport rep;
      const double s =
          bench::timed_seconds([&] { rep = run_scenario(ws_spec(ladder_b[i], true), 1); });
      ws_scale_s[i] = s;
      ANON_CHECK_MSG(!rep.weakset_cells.empty() &&
                         rep.weakset_cells[0].spec_ok,
                     "E16.b weak-set run must satisfy the spec");
      t.add_row({Table::num(static_cast<std::uint64_t>(ladder_b[i])),
                 Table::num(s, 3), "yes"});
    }
    t.print();
  }

  // ---- E16.c: emulation A/B where the expanded engine is honest ------------
  std::vector<std::size_t> ladder_c = {32, 128, 512, 1024};
  if (bench::smoke()) ladder_c = {32, 128};
  const int reps_c = bench::smoke() ? 1 : 3;
  std::vector<double> emul_expanded_s(ladder_c.size(), 0);
  std::vector<double> emul_cohort_s(ladder_c.size(), 0);
  {
    Table t("E16.c  emulation backend A/B, e16-emul-cohort workload "
            "(interleaved best-of-" +
                std::to_string(reps_c) +
                "; the expanded engine's Θ(r·n²) trace makes larger n "
                "dishonest on the A side)",
            {"n", "expanded s", "cohort s", "speedup", "reports identical"});
    for (std::size_t i = 0; i < ladder_c.size(); ++i) {
      const std::size_t n = ladder_c[i];
      const ScenarioReport ref = run_scenario(emul_spec(n, false), 1);
      const ScenarioReport coh = run_scenario(emul_spec(n, true), 1);
      ANON_CHECK_MSG(!ref.emulation_cells.empty() && ref.emulation_cells[0].ran,
                     "E16.c emulation run must reach its round goal");
      ANON_CHECK_MSG(identical_reports(ref, coh),
                     "E16.c cohort report must be byte-identical to expanded");
      const bench::AbSeconds ab = bench::interleaved_ab_seconds(
          reps_c, [&] { run_scenario(emul_spec(n, false), 1); },
          [&] { run_scenario(emul_spec(n, true), 1); });
      emul_expanded_s[i] = ab.a;
      emul_cohort_s[i] = ab.b;
      t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                 Table::num(ab.a, 3), Table::num(ab.b, 3),
                 Table::ratio(ab.ratio()), "yes"});
    }
    t.print();
  }

  // ---- E16.d: emulation cohort-only at scale -------------------------------
  std::vector<std::size_t> ladder_d = {4096, 100000};
  if (bench::smoke()) ladder_d = {4096};
  std::vector<double> emul_scale_s(ladder_d.size(), 0);
  {
    Table t("E16.d  cohort emulation scale ladder (8-value probe cycle)",
            {"n", "wall-clock s", "ran"});
    for (std::size_t i = 0; i < ladder_d.size(); ++i) {
      ScenarioReport rep;
      const double s = bench::timed_seconds(
          [&] { rep = run_scenario(emul_spec(ladder_d[i], true), 1); });
      emul_scale_s[i] = s;
      ANON_CHECK_MSG(!rep.emulation_cells.empty() &&
                         rep.emulation_cells[0].ran,
                     "E16.d emulation run must reach its round goal");
      t.add_row({Table::num(static_cast<std::uint64_t>(ladder_d[i])),
                 Table::num(s, 3), "yes"});
    }
    t.print();
  }

  {
    BenchJson j;
    j.set("experiment", std::string("E16"));
    j.set("workload",
          std::string("cohort-collapsed weak-set and emulation backends: "
                      "expanded-vs-cohort A/B + cohort scale ladders"));
    j.set("a_n", static_cast<std::uint64_t>(n_a));
    j.set("a_wall_expanded_s", ws_expanded_s);
    j.set("a_wall_cohort_s", ws_cohort_s);
    j.set("a_speedup", ws_cohort_s > 0 ? ws_expanded_s / ws_cohort_s : 0.0);
    j.set("b_n_max", static_cast<std::uint64_t>(ladder_b.back()));
    j.set("b_wall_nmax_s", ws_scale_s.back());
    j.set("c_n_max", static_cast<std::uint64_t>(ladder_c.back()));
    j.set("c_wall_expanded_nmax_s", emul_expanded_s.back());
    j.set("c_wall_cohort_nmax_s", emul_cohort_s.back());
    j.set("c_speedup_nmax",
          emul_cohort_s.back() > 0
              ? emul_expanded_s.back() / emul_cohort_s.back()
              : 0.0);
    j.set("d_n_max", static_cast<std::uint64_t>(ladder_d.back()));
    j.set("d_wall_nmax_s", emul_scale_s.back());
    j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
    const std::string path = bench::json_path("BENCH_E16.json");
    if (bench::write_json(j, path))
      std::cout << "  [" << path << " written: a_speedup="
                << (ws_cohort_s > 0 ? ws_expanded_s / ws_cohort_s : 0.0)
                << "x at n=" << n_a << ", cohort ladders to n="
                << ladder_b.back() << " (weak-set) / " << ladder_d.back()
                << " (emulation)]\n";
  }
}

void BM_CohortWeakset(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ScenarioSpec spec = ws_spec(n, true);
    spec.seeds = {seed++};
    const ScenarioReport rep = run_scenario(spec, 1);
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_CohortWeakset)->Arg(512)->Arg(4096);

void BM_CohortEmulation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ScenarioSpec spec = emul_spec(n, true);
    spec.seeds = {seed++};
    const ScenarioReport rep = run_scenario(spec, 1);
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_CohortEmulation)->Arg(512)->Arg(4096);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

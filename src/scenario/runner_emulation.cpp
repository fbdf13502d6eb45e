// Emulation family runner: Algorithm 5's MS-from-weak-set emulation
// (Theorem 4) on the interned watermark engine, with echo probes (E5) or
// Algorithm 4's weak-set automaton on top (the emulation-stack example: a
// weak-set built from a weak-set).  The engine can run cohort-collapsed
// (backend "cohort", emul/ms_emulation_cohort.hpp) with byte-identical
// cells.
#include <map>

#include "emul/echo.hpp"
#include "emul/ms_emulation.hpp"
#include "emul/ms_emulation_cohort.hpp"
#include "env/validate.hpp"
#include "scenario/runners.hpp"
#include "weakset/ms_weak_set.hpp"

namespace anon::scenario_runners {

namespace {

MsEmulationOptions options_from_spec(const ScenarioSpec& spec,
                                     std::uint64_t seed) {
  MsEmulationOptions opt;
  opt.seed = seed;
  opt.min_add_latency = spec.emulation.min_add_latency;
  opt.max_add_latency = spec.emulation.max_add_latency;
  opt.skew = spec.emulation.skew;
  opt.max_ticks = spec.emulation.max_ticks;
  opt.faults = EmulFaultModel(spec.faults, seed, spec.n);
  return opt;
}

std::vector<ProcId> all_processes(std::size_t n) {
  std::vector<ProcId> v(n);
  for (ProcId p = 0; p < n; ++p) v[p] = p;
  return v;
}

// The echo-probe seeds: historically 0..n-1, now any ValueGenSpec shape
// (emulation.probe_values) so specs can bound the seed support.
std::vector<std::int64_t> probe_seeds(const ScenarioSpec& spec) {
  std::vector<std::int64_t> seeds;
  for (const Value& v : materialize_values(spec.emulation.probe_values, spec.n))
    seeds.push_back(v.get());
  return seeds;
}

EmulationCellOutcome run_cell(const ScenarioSpec& spec, std::uint64_t seed) {
  const EmulationSpecSection& e = spec.emulation;
  const std::size_t n = spec.n;
  const bool weakset_inner = e.inner == EmulationSpecSection::Inner::kWeakset;

  std::vector<std::unique_ptr<Automaton<ValueSet>>> autos;
  autos.reserve(n);
  if (weakset_inner) {
    for (std::size_t i = 0; i < n; ++i)
      autos.push_back(std::make_unique<MsWeakSetAutomaton>());
  } else {
    for (std::int64_t s : probe_seeds(spec))
      autos.push_back(std::make_unique<EchoAutomaton>(s));
  }

  MsEmulation<ValueSet> emu(std::move(autos), options_from_spec(spec, seed));

  if (weakset_inner) {
    for (const auto& add : e.adds) {
      auto& w = dynamic_cast<MsWeakSetAutomaton&>(
          const_cast<GirafProcess<ValueSet>&>(emu.process(add.process))
              .automaton());
      w.start_add(Value(add.value));
    }
  }

  EmulationCellOutcome cell;
  cell.ran = emu.run_until_round(e.rounds);
  const Trace& trace = emu.trace();
  cell.trace_deliveries = trace.deliveries().size();
  if (!trace.end_of_rounds().empty())
    cell.ticks = trace.end_of_rounds().back().time;
  cell.rounds_min = kNeverCrashes;
  for (ProcId p = 0; p < n; ++p) {
    const Round r = trace.rounds_completed(p, n);
    cell.rounds_min = std::min(cell.rounds_min, r);
    cell.rounds_max = std::max(cell.rounds_max, r);
    cell.rounds_total += r;
  }
  if (cell.rounds_min == kNeverCrashes) cell.rounds_min = 0;
  cell.ms_certified =
      e.certify && cell.ran && check_environment(trace, n, all_processes(n)).ms_ok;

  if (weakset_inner) {
    cell.weakset_inner = true;
    cell.adds_completed = true;
    cell.all_see = true;
    for (ProcId p = 0; p < n; ++p) {
      const auto& w =
          dynamic_cast<const MsWeakSetAutomaton&>(emu.process(p).automaton());
      if (w.add_blocked()) cell.adds_completed = false;
      for (const auto& add : e.adds)
        if (w.get().count(Value(add.value)) == 0) cell.all_see = false;
    }
  }
  return cell;
}

// Cohort-collapsed cell: the same outcome fields read engine-side, without
// a trace (validation pins certify = false, so ms_certified is false on
// both backends and the cells stay byte-identical).
EmulationCellOutcome run_cohort_cell(const ScenarioSpec& spec,
                                     std::uint64_t seed) {
  const EmulationSpecSection& e = spec.emulation;
  const std::size_t n = spec.n;
  const bool weakset_inner = e.inner == EmulationSpecSection::Inner::kWeakset;

  std::vector<MsEmulationCohort<ValueSet>::InitGroup> groups;
  if (weakset_inner) {
    groups.resize(1);
    groups[0].automaton = std::make_unique<MsWeakSetAutomaton>();
    for (ProcId p = 0; p < n; ++p) groups[0].members.push_back(p);
  } else {
    // Echo probes carrying the same seed are indistinguishable: one class
    // per distinct seed value (members ascend within each group, and the
    // engine orders classes by smallest member).
    std::map<std::int64_t, std::vector<ProcId>> by_seed;
    const std::vector<std::int64_t> seeds = probe_seeds(spec);
    for (ProcId p = 0; p < n; ++p) by_seed[seeds[p]].push_back(p);
    for (auto& [s, members] : by_seed) {
      MsEmulationCohort<ValueSet>::InitGroup g;
      g.automaton = std::make_unique<EchoAutomaton>(s);
      g.members = std::move(members);
      groups.push_back(std::move(g));
    }
  }

  MsEmulationCohortOptions copt;
  copt.base = options_from_spec(spec, seed);
  copt.engine_threads = e.engine_threads;
  MsEmulationCohort<ValueSet> emu(std::move(groups), copt);

  if (weakset_inner) {
    for (const auto& add : e.adds)
      emu.mutate_member(add.process, [&add](Automaton<ValueSet>& a) {
        dynamic_cast<MsWeakSetAutomaton&>(a).start_add(Value(add.value));
      });
  }

  EmulationCellOutcome cell;
  cell.ran = emu.run_until_round(e.rounds);
  cell.trace_deliveries = emu.deliveries();
  cell.ticks = emu.last_eor_tick();
  cell.rounds_min = kNeverCrashes;
  for (ProcId p = 0; p < n; ++p) {
    const Round r = emu.round(p);
    cell.rounds_min = std::min(cell.rounds_min, r);
    cell.rounds_max = std::max(cell.rounds_max, r);
    cell.rounds_total += r;
  }
  if (cell.rounds_min == kNeverCrashes) cell.rounds_min = 0;
  cell.ms_certified = false;  // certify = false enforced by validation

  if (weakset_inner) {
    cell.weakset_inner = true;
    cell.adds_completed = true;
    cell.all_see = true;
    for (ProcId p = 0; p < n; ++p) {
      const auto& w = dynamic_cast<const MsWeakSetAutomaton&>(
          emu.representative(p).automaton());
      if (w.add_blocked()) cell.adds_completed = false;
      for (const auto& add : e.adds)
        if (w.get().count(Value(add.value)) == 0) cell.all_see = false;
    }
  }
  return cell;
}

}  // namespace

ScenarioReport run_emulation_family(const ScenarioSpec& spec,
                                    const SweepOptions& opt) {
  ScenarioReport rep;
  rep.emulation_cells = parallel_sweep(
      spec.seeds.size(),
      [&](std::size_t i) -> EmulationCellOutcome {
        if (spec.emulation.backend == EmulationSpecSection::Backend::kCohort)
          return run_cohort_cell(spec, spec.seeds[i]);
        return run_cell(spec, spec.seeds[i]);
      },
      opt);
  return rep;
}

}  // namespace anon::scenario_runners

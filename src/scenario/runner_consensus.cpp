// Consensus family runner: Algorithms 2/3 on the expanded or cohort
// backend.  The env-schedule decision path is exactly the pre-redesign
// `run_consensus_sweep` pipeline (the byte-identity regression pins this);
// adversarial schedules and the convergence/state-growth probes drive
// LockstepNet directly and report through the same summarizer.  Every
// path certifies online: with validate_env, an EnvMonitor rides on
// LockstepOptions::monitor and no trace is replayed.
#include <memory>
#include <optional>

#include "algo/es_consensus.hpp"
#include "algo/ess_consensus.hpp"
#include "algo/runner.hpp"
#include "common/history.hpp"
#include "env/generate.hpp"
#include "scenario/runners.hpp"

namespace anon::scenario_runners {

namespace {

ConsensusConfig config_from_spec(const ScenarioSpec& spec, std::uint64_t seed) {
  const ConsensusSpecSection& c = spec.consensus;
  ConsensusConfig cfg;
  cfg.env = spec.env_params(seed);
  cfg.initial = spec.initial_values();
  cfg.crashes = spec.crash_plan(seed);
  cfg.net.seed = seed;
  cfg.net.max_rounds = c.max_rounds;
  cfg.net.record_trace = c.record_trace;
  cfg.net.record_deliveries = c.record_deliveries;
  cfg.net.engine_threads = c.engine_threads;
  cfg.validate_env = c.validate_env;
  cfg.backend = c.backend;
  cfg.faults = spec.faults;
  cfg.watchdog_rounds = c.watchdog_rounds;
  return cfg;
}

std::unique_ptr<DelayModel> adversarial_model(const ScenarioSpec& spec,
                                              std::uint64_t seed) {
  switch (spec.consensus.schedule) {
    case ConsensusSpecSection::Schedule::kBivalentMs:
      return std::make_unique<BivalentMsModel>(spec.n);
    case ConsensusSpecSection::Schedule::kBivalentUntilGst:
      return std::make_unique<BivalentUntilGstModel>(spec.n,
                                                     spec.stabilization);
    case ConsensusSpecSection::Schedule::kHostileMs:
      return std::make_unique<HostileMsModel>(spec.n, seed);
    case ConsensusSpecSection::Schedule::kEnv:
      break;
  }
  return nullptr;
}

// Adversarial schedule, decision probe (E8.a/b, E1.b): Algorithm 2 under a
// hand-built delay model, plus the two-camp liveness check.
ConsensusCellOutcome run_adversarial_cell(const ScenarioSpec& spec,
                                          std::uint64_t seed) {
  const ConsensusSpecSection& c = spec.consensus;
  ConsensusConfig cfg = config_from_spec(spec, seed);
  const std::unique_ptr<DelayModel> model = adversarial_model(spec, seed);
  cfg.delays = model.get();

  ConsensusCellOutcome cell;
  if (c.schedule == ConsensusSpecSection::Schedule::kBivalentMs) {
    // Camp integrity needs automaton state, so drive the net here.
    std::vector<std::unique_ptr<Automaton<EsMessage>>> autos;
    for (const Value& v : cfg.initial)
      autos.push_back(std::make_unique<EsConsensus>(v));
    std::optional<EnvMonitor> monitor =
        certifier(cfg.validate_env, spec.n, cfg.crashes);
    cfg.net.monitor = monitor ? &*monitor : nullptr;
    LockstepNet<EsMessage> net(std::move(autos), *model, cfg.crashes, cfg.net);
    const RunResult run = net.run_until_all_correct_decided();
    cell.report = summarize_consensus_run(net, cfg.initial, cfg.crashes, run,
                                          cfg.validate_env);
    bool camps =
        dynamic_cast<const EsConsensus&>(net.process(0).automaton()).val() ==
        Value(1);
    for (ProcId p = 1; p < spec.n; ++p)
      if (!(dynamic_cast<const EsConsensus&>(net.process(p).automaton())
                .val() == Value(2)))
        camps = false;
    cell.camps_intact = camps ? 1 : 0;
  } else {
    cell.report = run_consensus(ConsensusAlgo::kEs, cfg);
  }
  cell.env_checked = cfg.validate_env;
  return cell;
}

// Leader-convergence probe (E3): rounds after stabilization until the
// self-considered-leader set stabilizes on the eventual source's history.
ConsensusCellOutcome run_convergence_cell(const ScenarioSpec& spec,
                                          std::uint64_t seed) {
  const ConsensusSpecSection& c = spec.consensus;
  HistoryArena arena;
  EssConsensus::Options no_decide;
  no_decide.decide = false;
  no_decide.gc_counters = c.gc_counters;
  std::vector<std::unique_ptr<Automaton<EssMessage>>> autos;
  for (const Value& v : spec.initial_values())
    autos.push_back(std::make_unique<EssConsensus>(v, &arena, no_decide));
  const CrashPlan crashes = spec.crash_plan(seed);
  EnvDelayModel delays(spec.env_params(seed), crashes);
  const ProcId src = delays.stable_source();
  LockstepOptions opt;
  opt.seed = seed;
  opt.max_rounds = c.horizon;
  opt.record_trace = c.record_trace;
  opt.record_deliveries = c.record_deliveries;
  std::optional<EnvMonitor> monitor =
      certifier(c.validate_env, spec.n, crashes);
  opt.monitor = monitor ? &*monitor : nullptr;
  LockstepNet<EssMessage> net(std::move(autos), delays, crashes, opt);

  Round last_bad = 0;
  const RunResult run = net.run([&](const LockstepNet<EssMessage>& nn) {
    if (nn.round() < 2) return false;
    const auto& s =
        dynamic_cast<const EssConsensus&>(nn.process(src).automaton());
    bool good = s.considers_self_leader();
    for (ProcId p = 0; p < nn.n(); ++p) {
      const auto& a =
          dynamic_cast<const EssConsensus&>(nn.process(p).automaton());
      if (a.considers_self_leader() && !(a.history() == s.history()))
        good = false;
    }
    if (!good) last_bad = nn.round();
    return false;
  });
  ConsensusCellOutcome cell;
  cell.report = summarize_consensus_run(net, spec.initial_values(), crashes,
                                        run, c.validate_env);
  cell.env_checked = c.validate_env;
  cell.convergence_round = last_bad + 1;  // first round of the converged suffix
  return cell;
}

// State-growth probe (E10's tracked workload): a no-decide ESS run to a
// fixed horizon; reports process 0's wire footprint at the horizon.
ConsensusCellOutcome run_state_growth_cell(const ScenarioSpec& spec,
                                           std::uint64_t seed) {
  const ConsensusSpecSection& c = spec.consensus;
  HistoryArena arena;
  EssConsensus::Options o;
  o.decide = false;
  o.gc_counters = c.gc_counters;
  std::vector<std::unique_ptr<Automaton<EssMessage>>> autos;
  for (const Value& v : spec.initial_values())
    autos.push_back(std::make_unique<EssConsensus>(v, &arena, o));
  const CrashPlan crashes = spec.crash_plan(seed);
  EnvDelayModel delays(spec.env_params(seed), crashes);
  LockstepOptions opt;
  opt.seed = seed;
  opt.max_rounds = c.horizon + 5;
  opt.record_trace = c.record_trace;
  opt.record_deliveries = c.record_deliveries;
  std::optional<EnvMonitor> monitor =
      certifier(c.validate_env, spec.n, crashes);
  opt.monitor = monitor ? &*monitor : nullptr;
  LockstepNet<EssMessage> net(std::move(autos), delays, crashes, opt);
  const Round target = c.horizon;
  const RunResult run = net.run(
      [&](const LockstepNet<EssMessage>& nn) { return nn.round() >= target; });

  ConsensusCellOutcome cell;
  cell.report = summarize_consensus_run(net, spec.initial_values(), crashes,
                                        run, c.validate_env);
  cell.env_checked = c.validate_env;
  const auto& a = dynamic_cast<const EssConsensus&>(net.process(0).automaton());
  EssMessage m{a.proposed(), a.history(), a.counters()};
  cell.state_bytes = MessageSizeOf<EssMessage>::size(m);
  cell.counter_entries = a.counters().size();
  return cell;
}

}  // namespace

ScenarioReport run_consensus_family(const ScenarioSpec& spec,
                                    const SweepOptions& opt) {
  const ConsensusSpecSection& c = spec.consensus;
  ScenarioReport rep;
  if (c.schedule == ConsensusSpecSection::Schedule::kEnv &&
      c.probe == ConsensusSpecSection::Probe::kDecision) {
    // The pre-redesign pipeline, verbatim: one config per seed through
    // run_consensus_sweep.
    std::vector<ConsensusConfig> grid;
    grid.reserve(spec.seeds.size());
    for (std::uint64_t seed : spec.seeds)
      grid.push_back(config_from_spec(spec, seed));
    auto reports = run_consensus_sweep(c.algo, grid, opt);
    rep.consensus_cells.resize(reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      rep.consensus_cells[i].report = std::move(reports[i]);
      rep.consensus_cells[i].env_checked = c.validate_env;
    }
    return rep;
  }

  rep.consensus_cells = parallel_sweep(
      spec.seeds.size(),
      [&](std::size_t i) -> ConsensusCellOutcome {
        const std::uint64_t seed = spec.seeds[i];
        switch (c.probe) {
          case ConsensusSpecSection::Probe::kLeaderConvergence:
            return run_convergence_cell(spec, seed);
          case ConsensusSpecSection::Probe::kStateGrowth:
            return run_state_growth_cell(spec, seed);
          case ConsensusSpecSection::Probe::kDecision:
            break;
        }
        return run_adversarial_cell(spec, seed);
      },
      opt);
  return rep;
}

}  // namespace anon::scenario_runners

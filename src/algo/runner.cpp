#include "algo/runner.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "algo/es_consensus.hpp"
#include "algo/ess_consensus.hpp"
#include "common/check.hpp"
#include "common/history.hpp"
#include "net/cohort.hpp"

namespace anon {

const char* to_string(ConsensusAlgo a) {
  return a == ConsensusAlgo::kEs ? "ES/Alg2" : "ESS/Alg3";
}

std::string ConsensusReport::to_string() const {
  std::ostringstream os;
  os << "consensus{decided=" << (all_correct_decided ? "all" : "NOT-all")
     << ", agreement=" << (agreement ? "ok" : "VIOLATED")
     << ", validity=" << (validity ? "ok" : "VIOLATED");
  if (value) os << ", value=" << value->to_string();
  if (undecided) os << ", undecided";
  os << ", rounds=" << rounds_executed
     << ", last_decision_r=" << last_decision_round << ", msgs=" << deliveries
     << ", bytes=" << bytes_sent;
  if (fault_drops > 0 || fault_dups > 0)
    os << ", fault_drops=" << fault_drops << ", fault_dups=" << fault_dups;
  if (inbox_overflow_dropped > 0)
    os << ", inbox_dropped=" << inbox_overflow_dropped;
  os << "}";
  return os.str();
}

namespace {

// Shared between the expanded (LockstepNet) and cohort (CohortNet)
// backends: both expose the same observation surface; only the expanded
// engine records a trace and feeds an environment monitor.
// Report assembly itself lives in summarize_consensus_run (runner.hpp),
// which the scenario layer reuses for its probe paths.
template <typename Net>
ConsensusReport finish_report(Net& net, const ConsensusConfig& cfg,
                              RunResult run, Trace* trace_out) {
  constexpr bool kHasTrace = requires { net.trace(); };
  ConsensusReport rep = summarize_consensus_run(net, cfg.initial, cfg.crashes,
                                                run, cfg.validate_env);
  if constexpr (kHasTrace) {
    if (trace_out) *trace_out = net.trace();
  } else {
    ANON_CHECK_MSG(trace_out == nullptr,
                   "the cohort backend records no trace");
  }
  return rep;
}

}  // namespace

const char* to_string(ConsensusBackend b) {
  return b == ConsensusBackend::kExpanded ? "expanded" : "cohort";
}

ConsensusReport run_consensus(ConsensusAlgo algo, const ConsensusConfig& cfg,
                              Trace* trace_out) {
  ANON_CHECK(cfg.initial.size() == cfg.env.n);
  // Lifetime: both engines alias their DelayModel for the whole run (their
  // rvalue constructor overloads are deleted, so a temporary cannot bind).
  // `env_delays` lives on this frame until after the nets below are
  // destroyed; an override (`cfg.delays`) is documented to outlive the run.
  const EnvDelayModel env_delays(cfg.env, cfg.crashes);
  const DelayModel& delays = cfg.delays != nullptr
                                 ? *cfg.delays
                                 : static_cast<const DelayModel&>(env_delays);
  ANON_CHECK_MSG(cfg.delays == nullptr ||
                     cfg.backend == ConsensusBackend::kExpanded,
                 "schedule overrides run on the expanded backend");

  // The fault plan is compiled per run on this frame (configs are copied
  // into sweep grids, so it cannot live on the config), and handed to the
  // engines by pointer via a copied option set.
  const FaultPlan fault_plan(cfg.faults, cfg.net.seed, cfg.env.n, &delays);
  LockstepOptions net_opt = cfg.net;
  if (fault_plan.active()) net_opt.faults = &fault_plan;
  // Certification is online: the expanded engine feeds the monitor every
  // end-of-round and delivery, whether or not the trace records them.
  std::optional<EnvMonitor> monitor =
      certifier(cfg.validate_env, cfg.env.n, cfg.crashes);
  net_opt.monitor = monitor ? &*monitor : nullptr;

  bool undecided = false;
  auto drive = [&](auto& net) {
    return run_decided_with_watchdog(net, cfg.watchdog_rounds, &undecided);
  };
  auto stamp = [&](ConsensusReport rep) {
    rep.undecided = undecided;
    return rep;
  };

  if (cfg.backend == ConsensusBackend::kCohort) {
    ANON_CHECK_MSG(!cfg.validate_env,
                   "the cohort backend records no trace to certify: set "
                   "validate_env = false");
    const CohortOptions opt = CohortOptions::from(net_opt);
    if (algo == ConsensusAlgo::kEs) {
      CohortNet<EsMessage> net(
          groups_by_initial_value<EsMessage>(
              cfg.initial,
              [](const Value& v) { return std::make_unique<EsConsensus>(v); }),
          delays, cfg.crashes, opt);
      return stamp(finish_report(net, cfg, drive(net), trace_out));
    }
    HistoryArena arena;
    CohortNet<EssMessage> net(
        groups_by_initial_value<EssMessage>(cfg.initial,
                                            [&arena](const Value& v) {
                                              return std::make_unique<
                                                  EssConsensus>(v, &arena);
                                            }),
        delays, cfg.crashes, opt);
    return stamp(finish_report(net, cfg, drive(net), trace_out));
  }

  if (algo == ConsensusAlgo::kEs) {
    std::vector<std::unique_ptr<Automaton<EsMessage>>> autos;
    autos.reserve(cfg.env.n);
    for (const Value& v : cfg.initial)
      autos.push_back(std::make_unique<EsConsensus>(v));
    LockstepNet<EsMessage> net(std::move(autos), delays, cfg.crashes, net_opt);
    return stamp(finish_report(net, cfg, drive(net), trace_out));
  }

  HistoryArena arena;
  std::vector<std::unique_ptr<Automaton<EssMessage>>> autos;
  autos.reserve(cfg.env.n);
  for (const Value& v : cfg.initial)
    autos.push_back(std::make_unique<EssConsensus>(v, &arena));
  LockstepNet<EssMessage> net(std::move(autos), delays, cfg.crashes, net_opt);
  return stamp(finish_report(net, cfg, drive(net), trace_out));
}

std::vector<ConsensusReport> run_consensus_sweep(
    ConsensusAlgo algo, const std::vector<ConsensusConfig>& configs,
    SweepOptions opt) {
  return parallel_sweep(
      configs.size(),
      [&](std::size_t i) { return run_consensus(algo, configs[i]); }, opt);
}

std::vector<Value> distinct_values(std::size_t n) {
  std::vector<Value> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(Value(100 + static_cast<std::int64_t>(i)));
  return out;
}

std::vector<Value> identical_values(std::size_t n, std::int64_t v) {
  return std::vector<Value>(n, Value(v));
}

std::vector<Value> random_values(std::size_t n, std::uint64_t seed,
                                 std::int64_t lo, std::int64_t hi) {
  Rng rng(seed);
  std::vector<Value> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(Value(rng.range(lo, hi)));
  return out;
}

CrashPlan random_crashes(std::size_t n, std::size_t f, Round horizon,
                         std::uint64_t seed) {
  ANON_CHECK_MSG(f < n, "at least one process must stay correct");
  Rng rng(seed);
  CrashPlan plan;
  // Choose f distinct victims.
  std::vector<ProcId> ids(n);
  for (ProcId p = 0; p < n; ++p) ids[p] = p;
  for (std::size_t i = 0; i < f; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(n - i));
    std::swap(ids[i], ids[j]);
  }
  for (std::size_t i = 0; i < f; ++i) {
    CrashSpec spec;
    spec.crash_round = static_cast<Round>(rng.range(1, static_cast<std::int64_t>(horizon)));
    spec.final_fraction = rng.real();
    plan.set(ids[i], spec);
  }
  return plan;
}

}  // namespace anon

// The three simulator workloads: sim-expanded, sim-cohort and sim-stack.
//
// Every workload is a closed loop with one caller: cells back to back, each
// going spec → scenario_spec_to_json → parse_scenario_spec →
// ScenarioRegistry::run (threads = 1) → to_json_string(false).  Cell kinds
// rotate in a fixed pattern and every cell's seed, proposals, crash victims,
// fault targets and scripts derive from --seed and the cell index.
//
// The traced run alternates untraced and traced segments of the measured
// phase (their cell rates give trace_overhead_ratio).  In traced segments
// every `sample_every`-th cell is also run without the registry (the
// family's public entry point, for the dispatch overhead) and replayed on
// an engine built here and stepped one round at a time; every replay must
// reproduce the registry report exactly.
#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "algo/es_consensus.hpp"
#include "algo/ess_consensus.hpp"
#include "common/history.hpp"
#include "common/rng.hpp"
#include "emul/echo.hpp"
#include "emul/ms_emulation.hpp"
#include "env/validate.hpp"
#include "net/cohort.hpp"
#include "scenario/registry.hpp"
#include "suite.hpp"
#include "weakset/ms_weak_set.hpp"
#include "weakset/ws_register.hpp"

namespace anon::suite {

namespace {

enum class Family { kConsensus, kWeakset, kRegister, kEmulation, kShm };

struct CellKind {
  std::string label;
  Family family;
  std::function<ScenarioSpec(std::uint64_t cell_seed, Rng& rng)> make;
};

struct SimWorkload {
  std::string name;
  std::vector<CellKind> kinds;
  // Kind index per slot.  Kind shares are chosen so that the pooled p50
  // and p90 fall inside one kind's block of cell times, not on the edge
  // between two kinds, where they would jump from run to run.
  std::vector<std::size_t> rotation;
  std::size_t pin_cells = 0;     // pinned prefix: always run, exact totals
  std::size_t sample_every = 0;  // traced replay sampling (coprime to rotation)
  JsonValue sizes = JsonValue::object();
};

constexpr std::uint64_t kCellStream = 1;
constexpr std::uint64_t kWarmupStream = 2;
constexpr std::uint64_t kValueStream = 3;
constexpr std::size_t kSetupReps = 9;

// ---- Cell specs ------------------------------------------------------------

ScenarioSpec consensus_cell(ConsensusAlgo algo, std::size_t n, Round gst,
                            std::uint64_t seed) {
  ScenarioSpec s;
  s.family = ScenarioFamily::kConsensus;
  s.seeds = {seed};
  s.env_kind = algo == ConsensusAlgo::kEs ? EnvKind::kES : EnvKind::kESS;
  s.n = n;
  s.stabilization = gst;
  s.max_delay = 3;
  s.timely_prob = 0.25;
  s.consensus.algo = algo;
  s.consensus.record_trace = false;
  s.consensus.record_deliveries = false;
  s.consensus.validate_env = false;
  return s;
}

void random_crashes(ScenarioSpec& s, std::size_t count, Round horizon) {
  s.crashes.kind = CrashGenSpec::Kind::kRandom;
  s.crashes.count = count;
  s.crashes.horizon = horizon;
}

// The e14 fault plan: loss, duplication, reordering, one omission-faulty
// sender and one churning process (seeded targets), round source exempt,
// watchdog 500.
void e14_faults(ScenarioSpec& s, Rng& rng) {
  s.faults.loss_prob = 0.15;
  s.faults.dup_prob = 0.05;
  s.faults.dup_extra_delay = 2;
  s.faults.reorder_prob = 0.1;
  s.faults.max_extra_delay = 3;
  s.faults.omission_senders = {static_cast<ProcId>(rng.below(s.n))};
  s.faults.churn = {ChurnSpec{static_cast<ProcId>(rng.below(s.n)), 8, 20}};
  s.faults.exempt_source = true;
  s.consensus.watchdog_rounds = 500;
  s.consensus.max_rounds = 4000;
}

std::int64_t seeded_base(Rng& rng) {
  return 100 + static_cast<std::int64_t>(rng.below(900));
}

SimWorkload sim_expanded(bool smoke) {
  const std::size_t big = smoke ? 32 : 128;
  const std::size_t small = smoke ? 16 : 64;
  SimWorkload w;
  w.name = "sim-expanded";
  w.kinds.push_back({"es-crash", Family::kConsensus, [=](auto seed, Rng& r) {
                       ScenarioSpec s =
                           consensus_cell(ConsensusAlgo::kEs, big, 10, seed);
                       s.initial.base = seeded_base(r);
                       random_crashes(s, big / 16, 10);
                       return s;
                     }});
  w.kinds.push_back({"ess-crash", Family::kConsensus, [=](auto seed, Rng& r) {
                       ScenarioSpec s =
                           consensus_cell(ConsensusAlgo::kEss, small, 10, seed);
                       s.initial.kind = ValueGenSpec::Kind::kExplicit;
                       for (std::size_t i = 0; i < small; ++i)
                         s.initial.values.push_back(r.range(0, 999));
                       random_crashes(s, small / 16, 10);
                       return s;
                     }});
  w.kinds.push_back({"es-faults", Family::kConsensus, [=](auto seed, Rng& r) {
                       ScenarioSpec s =
                           consensus_cell(ConsensusAlgo::kEs, small, 10, seed);
                       s.initial.kind = ValueGenSpec::Kind::kCycle;
                       s.initial.base = seeded_base(r);
                       s.initial.period = 8;
                       e14_faults(s, r);
                       return s;
                     }});
  w.kinds.push_back({"ess-faults", Family::kConsensus, [=](auto seed, Rng& r) {
                       ScenarioSpec s =
                           consensus_cell(ConsensusAlgo::kEss, small, 10, seed);
                       s.initial.base = seeded_base(r);
                       e14_faults(s, r);
                       return s;
                     }});
  w.rotation = {0, 1, 2, 3, 3};
  w.pin_cells = 40;
  w.sample_every = 4;
  w.sizes.set("es_crash_n", JsonValue::uint(big));
  w.sizes.set("ess_crash_n", JsonValue::uint(small));
  w.sizes.set("faults_n", JsonValue::uint(small));
  w.sizes.set("engine_threads", JsonValue::uint(1));
  return w;
}

// Sizes keep the two kinds apart in time (about 50 ms against 18 ms on a
// 4-core box) so the pooled p50 and p90 each sit inside one kind.  Split
// cells are memory-bound: two in-VM memory-bandwidth hogs slow them by
// 27% at n = 30000 and 14% at n = 10000, hence the middle size.
//
// Thread counts differ by kind.  Split cells shard waves over n = 20000
// members, so the worker pool, the weight-balanced partition and the
// cross-shard canonicalization do real work on 2 threads.  A distinct
// cell's waves are a fraction of a millisecond, so on 2 threads its time
// is the worker's wake-up latency, which follows the idle state of the
// host's other cores: 16 to 20 ms from one moment to the next, and 33%
// apart between two sets of runs.  Distinct cells run the single-threaded
// engine (18 ms either way).
SimWorkload sim_cohort(bool smoke) {
  const std::size_t split_n = smoke ? 2000 : 20000;
  const std::size_t distinct_n = smoke ? 48 : 128;
  constexpr std::size_t kSplitThreads = 2;
  SimWorkload w;
  w.name = "sim-cohort";
  // Crash-split: eight proposal classes that crashing senders' partial
  // final broadcasts split apart (O(n) membership passes dominate).
  w.kinds.push_back({"split", Family::kConsensus, [=](auto seed, Rng& r) {
                       ScenarioSpec s =
                           consensus_cell(ConsensusAlgo::kEs, split_n, 0, seed);
                       s.initial.kind = ValueGenSpec::Kind::kCycle;
                       s.initial.base = seeded_base(r);
                       s.initial.period = 8;
                       random_crashes(s, 16, 6);
                       s.consensus.backend = ConsensusBackend::kCohort;
                       s.consensus.engine_threads = kSplitThreads;
                       return s;
                     }});
  // Non-collapsing: distinct proposals keep one class per process, so the
  // O(C²) compute/delivery waves dominate.
  w.kinds.push_back({"distinct", Family::kConsensus, [=](auto seed, Rng& r) {
                       ScenarioSpec s = consensus_cell(ConsensusAlgo::kEs,
                                                       distinct_n, 0, seed);
                       s.initial.base = seeded_base(r);
                       s.consensus.backend = ConsensusBackend::kCohort;
                       return s;
                     }});
  w.rotation = {0, 1, 1};
  w.pin_cells = 12;
  w.sample_every = 4;
  w.sizes.set("split_n", JsonValue::uint(split_n));
  w.sizes.set("split_engine_threads", JsonValue::uint(kSplitThreads));
  w.sizes.set("distinct_n", JsonValue::uint(distinct_n));
  w.sizes.set("distinct_engine_threads", JsonValue::uint(1));
  return w;
}

SimWorkload sim_stack(bool smoke) {
  const std::size_t ws_n = smoke ? 8 : 32, ws_pairs = smoke ? 8 : 48;
  const std::size_t reg_n = smoke ? 5 : 9, reg_pairs = smoke ? 4 : 16;
  const std::size_t emu_n = smoke ? 8 : 32;
  const Round emu_rounds = smoke ? 20 : 160;
  const std::size_t shm_n = smoke ? 4 : 16, shm_pairs = smoke ? 50 : 500;
  SimWorkload w;
  w.name = "sim-stack";
  // Algorithm 4 over MS: seeded add/get pairs, certified environment,
  // records kept for the suite's own checker pass.
  w.kinds.push_back({"ws-set", Family::kWeakset, [=](auto seed, Rng& r) {
                       ScenarioSpec s;
                       s.family = ScenarioFamily::kWeakset;
                       s.seeds = {seed};
                       s.env_kind = EnvKind::kMS;
                       s.n = ws_n;
                       s.weakset.keep_records = true;
                       const std::int64_t base = seeded_base(r) * 1000;
                       for (std::size_t i = 0; i < ws_pairs; ++i) {
                         const Round at = static_cast<Round>(2 + 3 * i);
                         s.weakset.script.push_back(
                             {at, r.below(ws_n), true,
                              base + static_cast<std::int64_t>(i)});
                         s.weakset.script.push_back(
                             {at + 1, r.below(ws_n), false, 0});
                       }
                       return s;
                     }});
  // Proposition 1's register over Algorithm 4: two seeded writers,
  // readers drawn from the rest.
  w.kinds.push_back({"ws-register", Family::kRegister, [=](auto seed, Rng& r) {
                       ScenarioSpec s;
                       s.family = ScenarioFamily::kWeakset;
                       s.seeds = {seed};
                       s.env_kind = EnvKind::kMS;
                       s.n = reg_n;
                       s.weakset.mode = WeaksetSpecSection::Mode::kRegister;
                       s.weakset.keep_records = true;
                       const std::size_t w0 = r.below(reg_n);
                       const std::size_t w1 =
                           (w0 + 1 + r.below(reg_n - 1)) % reg_n;
                       const std::int64_t base = seeded_base(r) * 100;
                       for (std::size_t i = 0; i < reg_pairs; ++i) {
                         const Round at = static_cast<Round>(2 + 5 * i);
                         s.weakset.script.push_back(
                             {at, i % 2 == 0 ? w0 : w1, true,
                              base + static_cast<std::int64_t>(i)});
                         s.weakset.script.push_back(
                             {at + 2, r.below(reg_n), false, 0});
                       }
                       return s;
                     }});
  // Algorithm 5: MS emulated from a weak set, echo probes with seeded
  // distinct seeds, certified against the MS definition.
  w.kinds.push_back({"emulation", Family::kEmulation, [=](auto seed, Rng& r) {
                       ScenarioSpec s;
                       s.family = ScenarioFamily::kEmulation;
                       s.seeds = {seed};
                       s.env_kind = EnvKind::kMS;
                       s.n = emu_n;
                       s.emulation.rounds = emu_rounds;
                       s.emulation.probe_values = ValueGenSpec{
                           ValueGenSpec::Kind::kDistinct, seeded_base(r), 0, {}};
                       return s;
                     }});
  // Proposition 2: the weak set from SWMR registers under a seeded
  // adversarial interleaving, seeded value domain.
  w.kinds.push_back({"shm-swmr", Family::kShm, [=](auto seed, Rng& r) {
                       ScenarioSpec s;
                       s.family = ScenarioFamily::kWeaksetShm;
                       s.seeds = {seed};
                       s.env_kind = EnvKind::kMS;
                       s.n = shm_n;
                       s.shm.gen_ops = shm_pairs;
                       s.shm.domain = 8 + r.below(24);
                       return s;
                     }});
  w.rotation = {0, 1, 2, 3, 1, 2, 0, 1, 2, 3};
  w.pin_cells = 20;
  w.sample_every = 3;
  w.sizes.set("ws_n", JsonValue::uint(ws_n));
  w.sizes.set("ws_pairs", JsonValue::uint(ws_pairs));
  w.sizes.set("register_n", JsonValue::uint(reg_n));
  w.sizes.set("register_pairs", JsonValue::uint(reg_pairs));
  w.sizes.set("emulation_n", JsonValue::uint(emu_n));
  w.sizes.set("emulation_rounds", JsonValue::uint(emu_rounds));
  w.sizes.set("shm_n", JsonValue::uint(shm_n));
  w.sizes.set("shm_pairs", JsonValue::uint(shm_pairs));
  return w;
}

SimWorkload make_workload(const std::string& name, bool smoke) {
  if (name == "sim-expanded") return sim_expanded(smoke);
  if (name == "sim-cohort") return sim_cohort(smoke);
  return sim_stack(smoke);
}

// ---- One cell through the scenario surface ----------------------------------

struct CellRun {
  ScenarioReport report;
  std::string report_json;
  double seconds = 0;     // encode → parse → run → emit
  double run_seconds = 0;  // ScenarioRegistry::run alone
  bool codec_ok = false;  // parsed spec == generated spec
};

CellRun run_cell(const ScenarioSpec& spec, std::uint64_t id, Tracer& tr) {
  CellRun out;
  SpecDecodeResult decoded;
  const Clock::time_point t0 = Clock::now();
  {
    auto cell = tr.span("cell", id);
    std::string text;
    {
      auto s = tr.span("scenario.encode", id);
      text = scenario_spec_to_json(spec);
    }
    {
      auto s = tr.span("scenario.parse", id);
      decoded = parse_scenario_spec(text);
    }
    if (decoded.ok()) {
      const Clock::time_point r0 = Clock::now();
      {
        auto s = tr.span("scenario.run", id);
        out.report =
            ScenarioRegistry::instance().run(*decoded.spec, {.threads = 1});
      }
      out.run_seconds = seconds_between(r0, Clock::now());
      auto s = tr.span("scenario.report_json", id);
      out.report_json = out.report.to_json_string(false);
    }
  }
  out.seconds = seconds_between(t0, Clock::now());
  out.codec_ok = decoded.ok() && *decoded.spec == spec;
  return out;
}

// The suite's output checks for one cell; returns the first failure.
std::string check_cell(const CellKind& kind, const ScenarioSpec& spec,
                       const CellRun& cell, Tracer& tr, std::uint64_t id) {
  auto s = tr.span("check", id);
  if (!cell.codec_ok) return "spec did not round-trip through the codec";
  const ScenarioReport& rep = cell.report;
  if (rep.cells() != 1) return "report does not hold exactly one cell";
  switch (kind.family) {
    case Family::kConsensus: {
      const ConsensusReport& r = rep.consensus_cells.at(0).report;
      if (!r.agreement) return "agreement violated";
      if (!r.validity) return "validity violated";
      if (!r.all_correct_decided || r.undecided || r.hit_round_limit)
        return "a correct process did not decide";
      const std::vector<Value> proposals = spec.initial_values();
      if (!r.value ||
          std::find(proposals.begin(), proposals.end(), *r.value) ==
              proposals.end())
        return "decided value was never proposed";
      return "";
    }
    case Family::kWeakset: {
      const WeaksetCellOutcome& c = rep.weakset_cells.at(0);
      if (!c.spec_ok) return "weak-set spec violated: " + c.violation;
      if (!c.all_adds_completed) return "an add of a correct process blocked";
      if (!c.env_ms_ok) return "trace is not an MS environment";
      if (c.set_records.empty()) return "no operation records kept";
      WsCheckResult again;
      {
        auto cs = tr.span("weakset.check_spec", id);
        again = check_weak_set_spec(c.set_records);
      }
      if (!again.ok) return "weak-set spec violated: " + again.violation;
      return "";
    }
    case Family::kRegister: {
      const WeaksetCellOutcome& c = rep.weakset_cells.at(0);
      if (!c.spec_ok) return "register not regular: " + c.violation;
      if (!c.env_ms_ok) return "trace is not an MS environment";
      if (c.reg_records.empty()) return "no operation records kept";
      RegCheckResult again;
      {
        auto cs = tr.span("weakset.check_register", id);
        again = check_regular_register(c.reg_records);
      }
      if (!again.ok) return "register not regular: " + again.violation;
      return "";
    }
    case Family::kEmulation: {
      const EmulationCellOutcome& c = rep.emulation_cells.at(0);
      if (!c.ran) return "emulation did not reach its round target";
      if (!c.ms_certified) return "emulated trace is not an MS environment";
      return "";
    }
    case Family::kShm: {
      const ShmCellOutcome& c = rep.shm_cells.at(0);
      if (!c.spec_ok) return "weak-set spec violated: " + c.violation;
      if (c.records != 2 * spec.shm.gen_ops) return "operations went missing";
      return "";
    }
  }
  return "";
}

// ---- Direct runs and stepped replays ---------------------------------------

Tracer& quiet_tracer() {
  static Tracer t;  // never enabled
  return t;
}

// The registry's consensus configuration, rebuilt from the public spec
// helpers (the direct path the dispatch overhead is measured against).
ConsensusConfig consensus_config(const ScenarioSpec& spec) {
  const std::uint64_t seed = spec.seeds.at(0);
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

std::string diff_consensus(const ConsensusReport& a, const ConsensusReport& b) {
  auto field = [](const char* name, auto x, auto y) -> std::string {
    if (x == y) return "";
    return std::string(name) + " " + std::to_string(x) + " vs " +
           std::to_string(y);
  };
  for (const std::string& d :
       {field("rounds", a.rounds_executed, b.rounds_executed),
        field("deliveries", a.deliveries, b.deliveries),
        field("sends", a.sends, b.sends),
        field("bytes", a.bytes_sent, b.bytes_sent),
        field("fault_drops", a.fault_drops, b.fault_drops),
        field("fault_dups", a.fault_dups, b.fault_dups),
        field("inbox_dropped", a.inbox_overflow_dropped,
              b.inbox_overflow_dropped),
        field("first_decision_round", a.first_decision_round,
              b.first_decision_round),
        field("last_decision_round", a.last_decision_round,
              b.last_decision_round),
        field("all_decided", a.all_correct_decided, b.all_correct_decided),
        field("agreement", a.agreement, b.agreement),
        field("validity", a.validity, b.validity),
        field("undecided", a.undecided, b.undecided),
        field("classes_max", a.cohorts_max, b.cohorts_max),
        field("classes_final", a.cohorts_final, b.cohorts_final)})
    if (!d.empty()) return d;
  if (a.value.has_value() != b.value.has_value() ||
      (a.value && !(*a.value == *b.value)))
    return "decided value differs";
  return "";
}

struct Replay {
  ConsensusReport report;
  double seconds = 0;       // construct + steps + teardown
  double step_seconds = 0;  // the run_rounds(1) calls alone
  std::size_t inbox_high_water = 0;
};

// Steps a freshly built net one engine round at a time, observing at the
// point run_decided_with_watchdog observes (after each round's deliveries;
// never at max_rounds, where the engine loop returns unobserved).
template <typename Net>
void step_to_decision(Net& net, const ConsensusConfig& cfg, Tracer& tr,
                      std::uint64_t id, Replay& out) {
  bool stopped = false, undecided = false;
  std::size_t decided = 0;
  Round last_progress = 0;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    {
      auto s = tr.span("engine.round", id);
      net.run_rounds(1);
    }
    out.step_seconds += seconds_between(t0, Clock::now());
    if (net.round() >= cfg.net.max_rounds) break;
    if (net.all_correct_decided()) {
      stopped = true;
      break;
    }
    if (cfg.watchdog_rounds == 0) continue;
    std::size_t count = 0;
    for (ProcId p = 0; p < net.n(); ++p)
      if (net.decision(p).has_value()) ++count;
    if (count > decided) {
      decided = count;
      last_progress = net.round();
    }
    if (net.round() - last_progress >= cfg.watchdog_rounds) {
      stopped = undecided = true;
      break;
    }
  }
  out.report = summarize_consensus_run(net, cfg.initial, cfg.crashes,
                                       RunResult{net.round(), stopped}, false);
  out.report.undecided = undecided;
  out.inbox_high_water = net.inbox_overflow_high_water();
}

template <typename M, typename Make>
std::vector<std::unique_ptr<Automaton<M>>> automatons(
    const std::vector<Value>& initial, Make make) {
  std::vector<std::unique_ptr<Automaton<M>>> out;
  out.reserve(initial.size());
  for (const Value& v : initial) out.push_back(make(v));
  return out;
}

// Builds the consensus cell's engine directly and steps it.
Replay replay_consensus(ConsensusAlgo algo, const ConsensusConfig& cfg,
                        std::size_t threads, Tracer& tr, std::uint64_t id) {
  Replay out;
  const Clock::time_point t0 = Clock::now();
  std::optional<EnvDelayModel> delays;
  std::optional<FaultPlan> plan;
  HistoryArena arena;
  LockstepOptions lopt = cfg.net;
  lopt.engine_threads = threads;
  auto build = [&] {
    delays.emplace(cfg.env, cfg.crashes);
    plan.emplace(cfg.faults, cfg.net.seed, cfg.env.n, &*delays);
    if (plan->active()) lopt.faults = &*plan;
  };
  auto es = [](const Value& v) { return std::make_unique<EsConsensus>(v); };
  auto ess = [&arena](const Value& v) {
    return std::make_unique<EssConsensus>(v, &arena);
  };
  auto drive = [&](auto make_net) {
    decltype(make_net()) net;
    {
      auto s = tr.span("engine.construct", id);
      build();
      net = make_net();
    }
    step_to_decision(*net, cfg, tr, id, out);
    auto s = tr.span("engine.teardown", id);
    net.reset();
  };
  if (cfg.backend == ConsensusBackend::kCohort) {
    if (algo == ConsensusAlgo::kEs)
      drive([&] {
        return std::make_unique<CohortNet<EsMessage>>(
            groups_by_initial_value<EsMessage>(cfg.initial, es), *delays,
            cfg.crashes, CohortOptions::from(lopt));
      });
    else
      drive([&] {
        return std::make_unique<CohortNet<EssMessage>>(
            groups_by_initial_value<EssMessage>(cfg.initial, ess), *delays,
            cfg.crashes, CohortOptions::from(lopt));
      });
  } else {
    if (algo == ConsensusAlgo::kEs)
      drive([&] {
        return std::make_unique<LockstepNet<EsMessage>>(
            automatons<EsMessage>(cfg.initial, es), *delays, cfg.crashes, lopt);
      });
    else
      drive([&] {
        return std::make_unique<LockstepNet<EssMessage>>(
            automatons<EssMessage>(cfg.initial, ess), *delays, cfg.crashes,
            lopt);
      });
  }
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

// The spec's explicit weak-set script as harness ops (WsScriptOp for the
// set, RegScriptOp for the register: both are {round, process, mutation,
// value}).
template <typename ScriptOp>
std::vector<ScriptOp> script_of(const ScenarioSpec& spec) {
  std::vector<ScriptOp> script;
  for (const WeaksetOpSpec& op : spec.weakset.script)
    script.push_back({op.round, op.process, op.is_mutation, Value(op.value)});
  return script;
}

WsRunOptions ws_options(const ScenarioSpec& spec) {
  WsRunOptions o;
  o.extra_rounds = spec.weakset.extra_rounds;
  o.validate_env = spec.weakset.validate_env;
  o.engine_threads = spec.weakset.engine_threads;
  o.faults = spec.faults;
  return o;
}

// The emulation cell's outcome fields, read the way the family runner
// reads them.
struct EmulationOutcome {
  bool ran = false;
  std::uint64_t deliveries = 0, ticks = 0, rounds_total = 0;
  Round rounds_min = 0, rounds_max = 0;
};

std::unique_ptr<MsEmulation<ValueSet>> make_emulation(
    const ScenarioSpec& spec) {
  const std::uint64_t seed = spec.seeds.at(0);
  std::vector<std::unique_ptr<Automaton<ValueSet>>> autos;
  for (const Value& v : materialize_values(spec.emulation.probe_values, spec.n))
    autos.push_back(std::make_unique<EchoAutomaton>(v.get()));
  MsEmulationOptions o;
  o.seed = seed;
  o.min_add_latency = spec.emulation.min_add_latency;
  o.max_add_latency = spec.emulation.max_add_latency;
  o.skew = spec.emulation.skew;
  o.max_ticks = spec.emulation.max_ticks;
  o.faults = EmulFaultModel(spec.faults, seed, spec.n);
  return std::make_unique<MsEmulation<ValueSet>>(std::move(autos), o);
}

EmulationOutcome read_emulation(const MsEmulation<ValueSet>& emu, bool ran) {
  EmulationOutcome o;
  o.ran = ran;
  const Trace& trace = emu.trace();
  o.deliveries = trace.deliveries().size();
  if (!trace.end_of_rounds().empty())
    o.ticks = trace.end_of_rounds().back().time;
  o.rounds_min = kNeverCrashes;
  for (ProcId p = 0; p < emu.n(); ++p) {
    const Round r = trace.rounds_completed(p, emu.n());
    o.rounds_min = std::min(o.rounds_min, r);
    o.rounds_max = std::max(o.rounds_max, r);
    o.rounds_total += r;
  }
  if (o.rounds_min == kNeverCrashes) o.rounds_min = 0;
  return o;
}

std::string diff_emulation(const EmulationOutcome& a,
                           const EmulationCellOutcome& b) {
  if (a.ran != b.ran) return "ran differs";
  if (a.deliveries != b.trace_deliveries) return "trace deliveries differ";
  if (a.ticks != b.ticks) return "ticks differ";
  if (a.rounds_min != b.rounds_min || a.rounds_max != b.rounds_max ||
      a.rounds_total != b.rounds_total)
    return "completed rounds differ";
  return "";
}

// What the traced segments accumulate beyond the spans.
struct TraceTotals {
  std::vector<double> dispatch_overhead_us;  // registry run − direct run
  std::uint64_t replay_deliveries = 0;
  double replay_step_seconds = 0;
  double replay_1t_seconds = 0, replay_2t_seconds = 0;
  std::size_t inbox_high_water = 0;
  std::size_t replays = 0;
};

// Runs a cell's direct (registry-free) equivalent under a "direct.run" span.
using DirectTimer = std::function<void(const std::function<void()>&)>;

// Direct run and stepped replay of a sampled cell by family; returns the
// first mismatch against the registry report.
std::string cross_check_family(const CellKind& kind, const ScenarioSpec& spec,
                               const ScenarioReport& rep,
                               const DirectTimer& direct_timed, Tracer& tr,
                               std::uint64_t id, TraceTotals& totals) {
  switch (kind.family) {
    case Family::kConsensus: {
      const ConsensusConfig cfg = consensus_config(spec);
      const ConsensusReport& want = rep.consensus_cells.at(0).report;
      ConsensusReport direct;
      direct_timed([&] { direct = run_consensus(spec.consensus.algo, cfg); });
      if (std::string d = diff_consensus(direct, want); !d.empty())
        return "direct run_consensus differs: " + d;
      const std::size_t threads = cfg.net.engine_threads;
      const Replay replay =
          replay_consensus(spec.consensus.algo, cfg, threads, tr, id);
      if (std::string d = diff_consensus(replay.report, want); !d.empty())
        return "stepped replay differs: " + d;
      // The same cell at the other thread count (1 ↔ 2): the speedup of
      // the engine's intra-run shards, and a second replica.
      const std::size_t other = threads == 1 ? 2 : 1;
      const Replay again =
          replay_consensus(spec.consensus.algo, cfg, other, quiet_tracer(), id);
      if (std::string d = diff_consensus(again.report, want); !d.empty())
        return "replay at " + std::to_string(other) + " threads differs: " + d;
      totals.replay_deliveries += replay.report.deliveries;
      totals.replay_step_seconds += replay.step_seconds;
      (threads == 1 ? totals.replay_1t_seconds : totals.replay_2t_seconds) +=
          replay.seconds;
      (other == 1 ? totals.replay_1t_seconds : totals.replay_2t_seconds) +=
          again.seconds;
      totals.inbox_high_water =
          std::max({totals.inbox_high_water, replay.inbox_high_water,
                    again.inbox_high_water});
      ++totals.replays;
      return "";
    }
    case Family::kWeakset: {
      const WeaksetCellOutcome& want = rep.weakset_cells.at(0);
      MsWeakSetRunResult run;
      WsCheckResult check;
      direct_timed([&] {
        run = run_ms_weak_set(spec.env_params(spec.seeds[0]),
                              spec.crash_plan(spec.seeds[0]),
                              script_of<WsScriptOp>(spec), ws_options(spec));
        check = check_weak_set_spec(run.records);
      });
      if (run.rounds_executed != want.rounds || run.adds != want.adds ||
          run.add_latency_rounds_total != want.add_latency_total ||
          run.records.size() != want.set_records.size() ||
          check.ok != want.spec_ok || run.env_check.ms_ok != want.env_ms_ok)
        return "direct run_ms_weak_set differs from the registry cell";
      ++totals.replays;
      return "";
    }
    case Family::kRegister: {
      const WeaksetCellOutcome& want = rep.weakset_cells.at(0);
      RegisterRunResult run;
      direct_timed([&] {
        run = run_register_over_ms(
            spec.env_params(spec.seeds[0]), spec.crash_plan(spec.seeds[0]),
            script_of<RegScriptOp>(spec), ws_options(spec));
      });
      if (run.rounds_executed != want.rounds ||
          run.writes_completed != want.writes_completed ||
          run.write_latency_rounds_total != want.write_latency_total ||
          run.records.size() != want.reg_records.size() ||
          run.check.ok != want.spec_ok)
        return "direct run_register_over_ms differs from the registry cell";
      ++totals.replays;
      return "";
    }
    case Family::kEmulation: {
      const EmulationCellOutcome& want = rep.emulation_cells.at(0);
      EmulationOutcome direct;
      bool certified = false;
      direct_timed([&] {
        const auto emu = make_emulation(spec);
        const bool ran = emu->run_until_round(spec.emulation.rounds);
        direct = read_emulation(*emu, ran);
        // The family runner certifies the trace (certify = true): so does
        // the direct path, or the overhead would absorb the certification.
        std::vector<ProcId> all(spec.n);
        for (ProcId p = 0; p < spec.n; ++p) all[p] = p;
        certified = check_environment(emu->trace(), spec.n, all).ms_ok;
      });
      if (std::string d = diff_emulation(direct, want); !d.empty())
        return "direct emulation differs: " + d;
      if (certified != want.ms_certified)
        return "direct emulation certification differs";
      // Stepped replay: one emulated round per call.
      std::unique_ptr<MsEmulation<ValueSet>> emu;
      {
        auto s = tr.span("engine.construct", id);
        emu = make_emulation(spec);
      }
      bool ran = true;
      double step_s = 0;
      for (Round k = 1; k <= spec.emulation.rounds && ran; ++k) {
        const Clock::time_point s0 = Clock::now();
        {
          auto s = tr.span("engine.round", id);
          ran = emu->run_until_round(k);
        }
        step_s += seconds_between(s0, Clock::now());
      }
      const EmulationOutcome stepped = read_emulation(*emu, ran);
      {
        auto s = tr.span("engine.teardown", id);
        emu.reset();
      }
      if (std::string d = diff_emulation(stepped, want); !d.empty())
        return "stepped emulation replay differs: " + d;
      totals.replay_deliveries += stepped.deliveries;
      totals.replay_step_seconds += step_s;
      ++totals.replays;
      return "";
    }
    case Family::kShm:
      return "";
  }
  return "";
}

// The cross-check of a sampled cell.  The dispatch overhead pairs its
// direct run with a second registry run of the same spec (which must emit
// a byte-identical report), in an order that alternates between samples
// so cache warmth biases neither side.
std::string cross_check(const CellKind& kind, const ScenarioSpec& spec,
                        const CellRun& cell, bool direct_first, Tracer& tr,
                        std::uint64_t id, TraceTotals& totals) {
  std::string rerun_json;
  const DirectTimer direct_timed = [&](const std::function<void()>& fn) {
    double direct_s = 0, registry_s = 0;
    auto run_direct = [&] {
      const Clock::time_point t0 = Clock::now();
      {
        auto s = tr.span("direct.run", id);
        fn();
      }
      direct_s = seconds_between(t0, Clock::now());
    };
    auto run_registry = [&] {
      ScenarioReport again;
      const Clock::time_point t0 = Clock::now();
      {
        auto s = tr.span("dispatch.registry_run", id);
        again = ScenarioRegistry::instance().run(spec, {.threads = 1});
      }
      registry_s = seconds_between(t0, Clock::now());
      rerun_json = again.to_json_string(false);
    };
    if (direct_first) {
      run_direct();
      run_registry();
    } else {
      run_registry();
      run_direct();
    }
    totals.dispatch_overhead_us.push_back((registry_s - direct_s) * 1e6);
  };
  const std::string d =
      cross_check_family(kind, spec, cell.report, direct_timed, tr, id, totals);
  if (!d.empty()) return d;
  if (!rerun_json.empty() && rerun_json != cell.report_json)
    return "registry rerun is not byte-identical";
  return "";
}

// ---- Exact totals over the pinned prefix ------------------------------------

struct Pins {
  std::size_t cells = 0;
  std::uint64_t rounds = 0, sends = 0, bytes = 0, deliveries = 0;
  std::uint64_t classes = 0, fault_drops = 0;
  std::uint64_t digest = kFnvBasis;
  // Per-kind exact counts (sim-cohort classes, sim-stack add latency).
  std::map<std::string, std::uint64_t> classes_max_by_kind;
  std::uint64_t add_latency_rounds = 0, adds = 0;

  void add(const CellKind& kind, const CellRun& cell) {
    const ScenarioReport& rep = cell.report;
    ++cells;
    rounds += rep.rounds;
    sends += rep.sends;
    bytes += rep.bytes;
    deliveries += rep.deliveries;
    digest = fnv1a(digest, cell.report_json);
    for (const ConsensusCellOutcome& c : rep.consensus_cells) {
      classes += c.report.cohorts_max;
      fault_drops += c.report.fault_drops;
      std::uint64_t& m = classes_max_by_kind[kind.label];
      m = std::max<std::uint64_t>(m, c.report.cohorts_max);
    }
    for (const WeaksetCellOutcome& c : rep.weakset_cells) {
      add_latency_rounds += c.add_latency_total;
      adds += c.adds;
    }
  }

  JsonValue to_json() const {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    JsonValue j = JsonValue::object();
    j.set("cells", JsonValue::uint(cells));
    j.set("rounds", JsonValue::uint(rounds));
    j.set("sends", JsonValue::uint(sends));
    j.set("bytes", JsonValue::uint(bytes));
    j.set("deliveries", JsonValue::uint(deliveries));
    j.set("classes", JsonValue::uint(classes));
    j.set("digest", JsonValue::str(hex));
    return j;
  }
};

// Cell `index` of a stream: its scenario seed (48 bits, so it stays exact
// through every JSON reader) and an independent generator for its values.
ScenarioSpec make_cell(const SimWorkload& w, std::uint64_t seed,
                       std::uint64_t stream, std::uint64_t index,
                       std::size_t kind) {
  const std::uint64_t base = derive_seed(seed, stream, index);
  Rng rng(derive_seed(base, kValueStream, 0));
  return w.kinds[kind].make(base >> 16, rng);
}

Pins run_pinned_prefix(const SimWorkload& w, std::uint64_t seed) {
  Pins pins;
  for (std::size_t i = 0; i < w.pin_cells; ++i) {
    const std::size_t k = w.rotation[i % w.rotation.size()];
    const ScenarioSpec spec = make_cell(w, seed, kCellStream, i, k);
    pins.add(w.kinds[k], run_cell(spec, i, quiet_tracer()));
  }
  return pins;
}

JsonValue pins_key(const JsonValue& doc, const std::string& key) {
  const JsonValue* wl = doc.find("workloads");
  if (wl == nullptr) return JsonValue();
  const JsonValue* v = wl->find(key);
  return v == nullptr ? JsonValue() : *v;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "sim-expanded" || name == "sim-cohort" || name == "sim-stack";
}

WorkloadResult run_sim_workload(const Options& opt, Tracer& tr) {
  WorkloadResult res;
  const SimWorkload w = make_workload(opt.workload, opt.smoke);
  res.sizes = w.sizes;
  res.sizes.set("rotation", [&] {
    JsonValue a = JsonValue::array();
    for (std::size_t k : w.rotation) a.push(JsonValue::str(w.kinds[k].label));
    return a;
  }());
  res.sizes.set("pin_cells", JsonValue::uint(w.pin_cells));

  // Set-up: registry initialization (first repetition), workload
  // generation and one untimed warm-up cell of every kind; repeated, the
  // median reported.
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ScenarioRegistry::instance();
    for (std::size_t k = 0; k < w.kinds.size(); ++k) {
      const ScenarioSpec spec = make_cell(w, opt.seed, kWarmupStream, rep, k);
      const CellRun cell = run_cell(spec, k, quiet_tracer());
      ++res.attempted;
      if (std::string d = check_cell(w.kinds[k], spec, cell, quiet_tracer(), k);
          !d.empty())
        res.fail("warm-up " + w.kinds[k].label, d);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Measured phase.  Traced runs alternate four segments, untraced first.
  Pins pins;
  TraceTotals totals;
  std::vector<double> cell_ms;  // untraced cells
  std::map<std::string, std::vector<double>> kind_ms;
  double traced_cell_s = 0, untraced_cell_s = 0;
  std::size_t traced_cells = 0, untraced_cells = 0, samples = 0;
  const Clock::time_point start = Clock::now();
  const double segment = opt.seconds / 4;
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed >= opt.seconds && i >= w.pin_cells) break;
    const bool traced =
        opt.trace && static_cast<int>(elapsed / segment) % 2 == 1;
    tr.set_enabled(traced);
    const std::size_t k = w.rotation[i % w.rotation.size()];
    const CellKind& kind = w.kinds[k];
    const ScenarioSpec spec = make_cell(w, opt.seed, kCellStream, i, k);
    const CellRun cell = run_cell(spec, i, tr);
    ++res.attempted;
    const std::string where =
        "cell " + std::to_string(i) + " (" + kind.label + ")";
    if (std::string d = check_cell(kind, spec, cell, tr, i); !d.empty())
      res.fail(where, d);
    if (i < w.pin_cells) pins.add(kind, cell);
    if (traced) {
      traced_cell_s += cell.seconds;
      ++traced_cells;
      if (i % w.sample_every == 0) {
        if (std::string d =
                cross_check(kind, spec, cell, samples % 2 == 0, tr, i, totals);
            !d.empty())
          res.fail(where, d);
        ++samples;
      }
    } else {
      untraced_cell_s += cell.seconds;
      ++untraced_cells;
      cell_ms.push_back(cell.seconds * 1e3);
      kind_ms[kind.label].push_back(cell.seconds * 1e3);
    }
  }
  tr.set_enabled(false);

  // Pins: --seed 1 must reproduce expected.json exactly.
  res.pins = pins.to_json();
  if (opt.seed == 1 && !opt.expected_path.empty()) {
    std::ifstream f(opt.expected_path);
    std::stringstream ss;
    ss << f.rdbuf();
    const JsonParseResult doc = JsonValue::parse(ss.str());
    const std::string key = opt.workload + (opt.smoke ? ".smoke" : "");
    const JsonValue want = doc.value ? pins_key(*doc.value, key) : JsonValue();
    if (want.is_null())
      res.violation("expected.json has no pins for " + opt.workload);
    else if (!(want == res.pins))
      res.violation("pinned totals differ from expected.json: got " +
                    res.pins.dump_compact() + ", want " + want.dump_compact());
  }

  auto per_cell = [&](std::uint64_t total) {
    return ratio(static_cast<double>(total), static_cast<double>(pins.cells));
  };
  auto rate = [](std::size_t cells, double seconds) {
    return ratio(static_cast<double>(cells), seconds);
  };
  auto span_p50 = [&](const char* span) {
    return quantile(tr.durations_us(span), 0.5);
  };
  auto classes = [&](const char* label) {
    const auto it = pins.classes_max_by_kind.find(label);
    return it == pins.classes_max_by_kind.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  const auto E = MetricKind::kEndToEnd;
  const auto L = MetricKind::kPerLayer;
  const auto D = MetricKind::kDetail;

  // End-to-end (untraced cells only).
  res.add("setup_s", quantile(setup_s, 0.5), "s", false, E);
  res.add("cells_per_s", rate(untraced_cells, untraced_cell_s), "1/s", true, E);
  res.add("cell_p50_ms", quantile(cell_ms, 0.5), "ms", false, E);
  res.add("cell_p90_ms", quantile(cell_ms, 0.9), "ms", false, E);
  res.add("peak_rss_mb", peak_rss_mb(), "MB", false, E);

  // Per-layer: spans of the traced segments; exact counts of the prefix.
  res.add("codec.encode_us_p50", span_p50("scenario.encode"), "us", false, L);
  res.add("codec.decode_us_p50", span_p50("scenario.parse"), "us", false, L);
  res.add("codec.report_us_p50", span_p50("scenario.report_json"), "us", false,
          L);
  res.add("dispatch.overhead_us_p50",
          quantile(totals.dispatch_overhead_us, 0.5), "us", false, L);
  res.add("direct.cell_ms_p50", span_p50("direct.run") / 1e3, "ms", false, L);
  res.add("engine.construct_us_p50", span_p50("engine.construct"), "us", false,
          L);
  res.add("engine.teardown_us_p50", span_p50("engine.teardown"), "us", false,
          L);
  res.add("engine.round_us_p50", span_p50("engine.round"), "us", false, L);
  res.add("engine.round_us_p99",
          quantile(tr.durations_us("engine.round"), 0.99), "us", false, L);
  res.add("engine.deliveries_per_s",
          ratio(static_cast<double>(totals.replay_deliveries),
                totals.replay_step_seconds),
          "1/s", true, L);
  res.add("engine.speedup_2t",
          std::thread::hardware_concurrency() >= 2
              ? ratio(totals.replay_1t_seconds, totals.replay_2t_seconds)
              : 0,
          "ratio", true, L);
  res.add("check.cell_us_p50", span_p50("check"), "us", false, L);
  res.add("engine.rounds_per_cell", per_cell(pins.rounds), "count", false, L,
          true);
  res.add("engine.deliveries_per_cell", per_cell(pins.deliveries), "count",
          false, L, true);
  res.add("engine.sends_per_cell", per_cell(pins.sends), "count", false, L,
          true);
  res.add("engine.bytes_per_cell", per_cell(pins.bytes), "B", false, L, true);
  res.add("engine.fault_drops_per_cell", per_cell(pins.fault_drops), "count",
          false, L, true);
  res.add("engine.inbox_overflow_high_water",
          static_cast<double>(totals.inbox_high_water), "count", false, L);
  res.add("cohort.classes_max_split", classes("split"), "count", false, L,
          true);
  res.add("cohort.classes_max_distinct", classes("distinct"), "count", false, L,
          true);
  res.add("weakset.add_latency_rounds_mean",
          ratio(static_cast<double>(pins.add_latency_rounds),
                static_cast<double>(pins.adds)),
          "rounds", false, L, true);
  res.add("trace_overhead_ratio",
          ratio(rate(traced_cells, traced_cell_s),
                rate(untraced_cells, untraced_cell_s)),
          "ratio", true, L);

  // Detail: the per-kind split behind the pooled percentiles.
  for (const CellKind& kind : w.kinds)
    res.add("kind." + kind.label + ".cell_ms_p50",
            quantile(kind_ms[kind.label], 0.5), "ms", false, D);
  if (opt.trace) {
    if (opt.workload == "sim-stack") {
      res.add("weakset.check_spec_us_p50", span_p50("weakset.check_spec"), "us",
              false, D);
      res.add("weakset.check_register_us_p50",
              span_p50("weakset.check_register"), "us", false, D);
    }
    res.add("replays", static_cast<double>(totals.replays), "count", true, D);
  }
  res.add("cells", static_cast<double>(untraced_cells), "count", true, D);
  res.add("failed_ratio",
          ratio(static_cast<double>(res.failed),
                static_cast<double>(res.attempted)),
          "ratio", false, D);
  return res;
}

JsonValue compute_all_pins() {
  JsonValue workloads = JsonValue::object();
  for (const char* name : {"sim-expanded", "sim-cohort", "sim-stack"})
    for (bool smoke : {false, true}) {
      const SimWorkload w = make_workload(name, smoke);
      workloads.set(std::string(name) + (smoke ? ".smoke" : ""),
                    run_pinned_prefix(w, 1).to_json());
    }
  JsonValue doc = JsonValue::object();
  doc.set("seed", JsonValue::uint(1));
  doc.set("workloads", std::move(workloads));
  return doc;
}

}  // namespace anon::suite

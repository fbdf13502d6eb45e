// Named scenario presets reproducing the paper's experiment grids.  Every
// experiment has (a) its tracked workload, the base of its ladders in
// bench/ladders.json, and (b) a seconds-fast variant the CI smoke job
// drives through `anonsim run`.  Tests pin each preset's canonical spec encoding against
// a golden file, so editing one here is a deliberate, reviewed act.
#include "scenario/registry.hpp"
#include "sim/experiment.hpp"

namespace anon {

namespace {

ScenarioSpec base_spec(const std::string& name, ScenarioFamily family,
                       std::size_t seed_count) {
  ScenarioSpec spec;
  spec.name = name;
  spec.family = family;
  spec.seeds = experiment_seeds(seed_count);
  return spec;
}

// --- consensus ---------------------------------------------------------------

ScenarioSpec e1_spec(const std::string& name, std::size_t n,
                     std::size_t seed_count) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kConsensus, seed_count);
  spec.env_kind = EnvKind::kES;
  spec.n = n;
  spec.consensus.algo = ConsensusAlgo::kEs;
  return spec;
}

ScenarioSpec e2_spec(const std::string& name, std::size_t n,
                     std::size_t seed_count) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kConsensus, seed_count);
  spec.env_kind = EnvKind::kESS;
  spec.n = n;
  spec.consensus.algo = ConsensusAlgo::kEss;
  return spec;
}

ScenarioSpec e3_pseudo_spec() {
  ScenarioSpec spec = base_spec("e3-pseudo", ScenarioFamily::kConsensus, 8);
  spec.env_kind = EnvKind::kESS;
  spec.n = 5;
  spec.consensus.algo = ConsensusAlgo::kEss;
  spec.consensus.probe = ConsensusSpecSection::Probe::kLeaderConvergence;
  spec.consensus.horizon = 300;
  spec.consensus.record_trace = false;  // probe runs are trace-free
  return spec;
}

ScenarioSpec e8_spec(const std::string& name, std::size_t n, Round horizon) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kConsensus, 1);
  spec.seeds = {1};
  spec.env_kind = EnvKind::kMS;
  spec.n = n;
  spec.initial.kind = ValueGenSpec::Kind::kBivalent;
  spec.consensus.algo = ConsensusAlgo::kEs;
  spec.consensus.schedule = ConsensusSpecSection::Schedule::kBivalentMs;
  spec.consensus.max_rounds = horizon;
  spec.consensus.validate_env = true;
  return spec;
}

ScenarioSpec e9_alg3_spec(const std::string& name, std::size_t n,
                          std::size_t seed_count) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kConsensus, seed_count);
  spec.env_kind = EnvKind::kESS;
  spec.n = n;
  spec.stabilization = 10;
  spec.consensus.algo = ConsensusAlgo::kEss;
  return spec;
}

ScenarioSpec e10_spec(const std::string& name, bool gc, Round horizon) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kConsensus, 1);
  spec.seeds = {23};
  spec.env_kind = EnvKind::kESS;
  spec.n = 5;
  spec.stabilization = 6;
  spec.consensus.algo = ConsensusAlgo::kEss;
  spec.consensus.probe = ConsensusSpecSection::Probe::kStateGrowth;
  spec.consensus.horizon = horizon;
  spec.consensus.gc_counters = gc;
  spec.consensus.record_trace = false;  // probe runs are trace-free
  return spec;
}

ScenarioSpec e12_spec(const std::string& name, std::size_t n) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kConsensus, 1);
  spec.seeds = {42};
  spec.env_kind = EnvKind::kES;
  spec.n = n;
  spec.initial.kind = ValueGenSpec::Kind::kCycle;
  spec.initial.period = 8;
  spec.consensus.algo = ConsensusAlgo::kEs;
  spec.consensus.backend = ConsensusBackend::kCohort;
  spec.consensus.record_trace = false;
  return spec;
}

// E13: sharded intra-run execution — an E1-shaped ES run with mid-flight
// random crashes (so the per-link audience fallback and crash splits get
// exercised, not just the uniform fast path) on the cohort engine,
// engine_threads=0 = one shard per hardware thread.  The report is
// byte-identical at every thread count and, apart from the class
// counters, to the serial expanded engine; the preset exists so CI's
// smoke job has a named sharded shape to drive.
ScenarioSpec e13_spec(const std::string& name, std::size_t n,
                      std::size_t crashes) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kConsensus, 1);
  spec.seeds = {42};
  spec.env_kind = EnvKind::kES;
  spec.n = n;
  spec.initial.kind = ValueGenSpec::Kind::kCycle;
  spec.initial.period = 8;
  spec.crashes.kind = CrashGenSpec::Kind::kRandom;
  spec.crashes.count = crashes;
  spec.crashes.horizon = 6;
  spec.consensus.algo = ConsensusAlgo::kEs;
  spec.consensus.backend = ConsensusBackend::kCohort;
  spec.consensus.engine_threads = 0;
  spec.consensus.record_trace = false;
  return spec;
}

// E14: the fault-injection survival map — an E1-shaped ES run with a seeded
// loss/duplication/reorder/omission/churn plan (env/faults.hpp) layered over
// the env schedule, the no-progress watchdog armed so fault-starved cells
// degrade to a graceful `undecided` instead of spinning to max_rounds.  With
// the planned source exempt (the default) the safety contract holds at any
// intensity and only termination degrades; the -hostile variant clears the
// exemption to map where the guarantees break (the E14 ladder sweeps the
// full intensity × env grid).
ScenarioSpec e14_spec(const std::string& name, std::size_t n,
                      std::size_t seed_count, double intensity,
                      bool exempt_source) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kConsensus, seed_count);
  spec.env_kind = EnvKind::kES;
  spec.n = n;
  spec.stabilization = 4;
  spec.initial.kind = ValueGenSpec::Kind::kCycle;
  spec.initial.period = 8;
  spec.faults.loss_prob = intensity;
  spec.faults.dup_prob = intensity / 2;
  spec.faults.dup_extra_delay = 2;
  spec.faults.reorder_prob = intensity;
  spec.faults.max_extra_delay = 3;
  spec.faults.omission_senders = {3};
  spec.faults.churn = {{5, 8, 20}};
  spec.faults.exempt_source = exempt_source;
  spec.consensus.algo = ConsensusAlgo::kEs;
  spec.consensus.max_rounds = 4000;
  spec.consensus.watchdog_rounds = 500;
  spec.consensus.record_trace = false;
  return spec;
}

// --- omega -------------------------------------------------------------------

ScenarioSpec e3_omega_spec() {
  ScenarioSpec spec = base_spec("e3-omega", ScenarioFamily::kOmega, 8);
  spec.env_kind = EnvKind::kESS;
  spec.n = 5;
  spec.omega.probe = OmegaSpecSection::Probe::kLeaderConvergence;
  spec.omega.horizon = 300;
  return spec;
}

ScenarioSpec e9_omega_spec(const std::string& name, std::size_t n,
                           std::size_t seed_count) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kOmega, seed_count);
  spec.env_kind = EnvKind::kESS;
  spec.n = n;
  spec.stabilization = 10;
  return spec;
}

// --- weakset -----------------------------------------------------------------

ScenarioSpec e4_spec(const std::string& name, std::size_t n, std::size_t ops,
                     std::size_t seed_count) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kWeakset, seed_count);
  spec.env_kind = EnvKind::kMS;
  spec.n = n;
  spec.weakset.gen_ops = ops;
  spec.weakset.validate_env = false;
  return spec;
}

ScenarioSpec e6_register_spec(const std::string& name, std::size_t n,
                              std::size_t seed_count) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kWeakset, seed_count);
  spec.env_kind = EnvKind::kMS;
  spec.n = n;
  spec.weakset.mode = WeaksetSpecSection::Mode::kRegister;
  spec.weakset.gen_ops = 8;
  spec.weakset.extra_rounds = 60;
  spec.weakset.validate_env = false;
  return spec;
}

// --- emulation ---------------------------------------------------------------

ScenarioSpec e5_spec(const std::string& name, std::size_t n, Round rounds,
                     std::size_t seed_count) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kEmulation, seed_count);
  spec.env_kind = EnvKind::kMS;
  spec.n = n;
  spec.emulation.rounds = rounds;
  return spec;
}

// E16: the cohort-collapsed §5 stack.  The weakset shape is e4's workload
// on backend=cohort (validate_env off — the cohort engine records no
// per-process trace) over the all-timely MS parameterization: with
// timely_prob = 1 every link delay is provably 0, EnvDelayModel's
// uniform_delay() kicks in, and CohortNet broadcasts once per CLASS
// instead of probing all Θ(n²) links (an admissible MS run — MS merely
// permits late links, it does not require them).  The emulation shape
// bounds the echo-probe seed support with an 8-value cycle so the class
// count stays O(1) and the engine scales to n ≫ the expanded engine's
// Θ(r·n²) trace budget.  Running either preset with `--backend expanded`
// is the byte-identity A/B: the trace switches are already off in the
// preset, so the reports must match exactly (CI diffs them).
ScenarioSpec e16_weakset_spec(const std::string& name, std::size_t n,
                              std::size_t ops) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kWeakset, 1);
  spec.seeds = {42};
  spec.env_kind = EnvKind::kMS;
  spec.n = n;
  spec.timely_prob = 1.0;
  spec.weakset.backend = WeaksetSpecSection::Backend::kCohort;
  spec.weakset.gen_ops = ops;
  // The horizon is 3·ops + extra: the serial expanded engine pays Θ(n²)
  // per round, so the A/B's reference runs are budgeted by this knob.
  spec.weakset.extra_rounds = 12;
  spec.weakset.validate_env = false;
  return spec;
}

ScenarioSpec e16_emulation_spec(const std::string& name, std::size_t n,
                                Round rounds) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kEmulation, 1);
  spec.seeds = {42};
  spec.env_kind = EnvKind::kMS;
  spec.n = n;
  spec.emulation.backend = EmulationSpecSection::Backend::kCohort;
  spec.emulation.rounds = rounds;
  spec.emulation.certify = false;
  spec.emulation.probe_values.kind = ValueGenSpec::Kind::kCycle;
  spec.emulation.probe_values.base = 0;
  spec.emulation.probe_values.period = 8;
  return spec;
}

// --- weakset-shm -------------------------------------------------------------

ScenarioSpec e7_swmr_spec(const std::string& name, std::size_t n,
                          std::uint64_t ops, std::size_t seed_count) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kWeaksetShm, seed_count);
  spec.n = n;
  spec.shm.construction = ShmSpecSection::Construction::kSwmr;
  spec.shm.gen_ops = ops;
  return spec;
}

ScenarioSpec e7_mwmr_spec() {
  ScenarioSpec spec = base_spec("e7-mwmr", ScenarioFamily::kWeaksetShm, 10);
  spec.n = 5;
  spec.shm.construction = ShmSpecSection::Construction::kMwmr;
  spec.shm.gen_ops = 100;
  spec.shm.domain = 64;
  return spec;
}

// --- abd ---------------------------------------------------------------------

ScenarioSpec e6_abd_spec(const std::string& name, std::size_t n,
                         std::size_t crash_prefix, std::size_t seed_count) {
  ScenarioSpec spec = base_spec(name, ScenarioFamily::kAbd, seed_count);
  spec.n = n;
  spec.abd.crash_prefix = crash_prefix;
  return spec;
}

// --- E17: the anonsvc live service -------------------------------------------

// E17 runs cells on the real-socket stack (transport "live"): a loopback
// LiveCluster of UDP meshes paced by wall-clock deadlines instead of a
// lockstep simulator, with blocking SvcClients as the workload.  Live
// reports are NOT deterministic (round counts and frame totals are timing
// artifacts), so E17 presets are exercised by the CI loopback smoke job
// and BENCH_E17, never by byte-identity goldens.  The 2 ms period keeps a
// smoke cell in the hundreds of milliseconds; a single seed keeps port
// and thread churn bounded.
ScenarioSpec e17_base(const std::string& name, ScenarioFamily family,
                      std::size_t n) {
  ScenarioSpec spec = base_spec(name, family, 1);
  spec.seeds = {42};
  spec.transport = TransportKind::kLive;
  spec.n = n;
  spec.live.period_ms = 2;
  return spec;
}

ScenarioSpec e17_consensus_spec(const std::string& name, std::size_t n,
                                double loss, std::uint64_t jitter_ms) {
  ScenarioSpec spec = e17_base(name, ScenarioFamily::kConsensus, n);
  spec.consensus.algo = ConsensusAlgo::kEs;
  spec.live.loss = loss;
  spec.live.jitter_ms = jitter_ms;
  return spec;
}

ScenarioSpec e17_weakset_spec(const std::string& name, std::size_t n,
                              std::size_t ops, std::size_t clients) {
  ScenarioSpec spec = e17_base(name, ScenarioFamily::kWeakset, n);
  spec.weakset.gen_ops = ops;
  spec.live.clients = clients;
  return spec;
}

ScenarioSpec e17_abd_spec(const std::string& name, std::size_t n) {
  return e17_base(name, ScenarioFamily::kAbd, n);
}

// A watchdog deadline tighter than the earliest possible decision: with
// distinct proposals, round 2's PROPOSED still holds foreign values, so no
// node can have decided when the round-2 watchdog fires — every decision
// probe must come back a clean kTimeout and the run must report
// `undecided` instead of hanging.  This is the live face of the sim's
// graceful-degradation contract (CI asserts `anonsim run --preset
// e17-live-stall --fail-undecided` exits 4).  Loss cannot play the
// stalling villain here: the exempt-source rule keeps every node hearing
// the rotating source, so consensus terminates under any UDP loss rate —
// which is the safety contract, not a gap in it.
ScenarioSpec e17_stall_spec(const std::string& name) {
  ScenarioSpec spec = e17_consensus_spec(name, 5, 0.0, 0);
  spec.live.watchdog_rounds = 2;
  return spec;
}

// --- the quickstart scenario (examples/quickstart.cpp) -----------------------

ScenarioSpec quickstart_spec() {
  ScenarioSpec spec;
  spec.name = "quickstart";
  spec.family = ScenarioFamily::kConsensus;
  spec.seeds = {2026};
  spec.env_kind = EnvKind::kES;
  spec.n = 5;
  spec.stabilization = 10;
  spec.initial.kind = ValueGenSpec::Kind::kExplicit;
  spec.initial.values = {170, 230, 190, 230, 180};
  spec.crashes.kind = CrashGenSpec::Kind::kExplicit;
  spec.crashes.entries = {{3, 6}};
  spec.consensus.algo = ConsensusAlgo::kEs;
  spec.consensus.validate_env = true;
  return spec;
}

}  // namespace

void register_builtin_presets(ScenarioRegistry& reg) {
  auto add = [&](std::string description, ScenarioSpec spec) {
    reg.register_preset({spec.name, std::move(description), std::move(spec)});
  };

  add("E1 tracked workload: Alg 2 (ES) n=64 sweep, GST=0, 10 seeds",
      e1_spec("e1", 64, 10));
  add("E1 smoke cell: Alg 2 (ES) n=8, 3 seeds", e1_spec("e1-fast", 8, 3));
  add("E2 tracked workload: Alg 3 (ESS) n=32 sweep, stab=0, 10 seeds",
      e2_spec("e2", 32, 10));
  add("E2 smoke cell: Alg 3 (ESS) n=8, 3 seeds", e2_spec("e2-fast", 8, 3));
  add("E3 pseudo-leader convergence probe (ESS n=5, horizon 300)",
      e3_pseudo_spec());
  add("E3 Omega accusation-tracker convergence probe (ESS n=5, horizon 300)",
      e3_omega_spec());
  add("E4 tracked workload: Alg 4 weak-set over MS, n=16, 48 op pairs",
      e4_spec("e4", 16, 48, 10));
  add("E4 smoke cell: Alg 4 weak-set over MS, n=4, 12 op pairs",
      e4_spec("e4-fast", 4, 12, 3));
  add("E5 tracked workload: Alg 5 MS emulation (interned engine), n=32, 160 "
      "rounds",
      e5_spec("e5", 32, 160, 10));
  add("E5 smoke cell: interned engine, n=8, 25 rounds",
      e5_spec("e5-fast", 8, 25, 3));
  add("E6 weak-set register (Prop 1) over MS, n=9, 8 write/read pairs",
      e6_register_spec("e6-register", 9, 10));
  add("E6 register smoke cell: n=5, 3 seeds",
      e6_register_spec("e6-register-fast", 5, 3));
  add("E6 ABD baseline write probe, n=9, majority alive",
      e6_abd_spec("e6-abd", 9, 0, 10));
  add("E6 ABD smoke cell: n=5, 3 seeds", e6_abd_spec("e6-abd-fast", 5, 0, 3));
  add("E7 tracked workload: Prop 2 SWMR construction, n=16, 1000 op pairs",
      e7_swmr_spec("e7-swmr", 16, 1000, 10));
  add("E7 Prop 3 MWMR construction, |domain|=64, 100 op pairs",
      e7_mwmr_spec());
  add("E7 smoke cell: Prop 2, n=4, 100 op pairs",
      e7_swmr_spec("e7-fast", 4, 100, 3));
  add("E8 bivalent two-camp MS schedule vs Alg 2 (n=9, horizon 4000; decides "
      "never, trace MS-certified)",
      e8_spec("e8-bivalent", 9, 4000));
  add("E8 smoke cell: n=5, horizon 500", e8_spec("e8-fast", 5, 500));
  add("E9 tracked workload: Alg 3 (anonymous) in ESS stab=10, n=17",
      e9_alg3_spec("e9-alg3", 17, 10));
  add("E9 A/B side: Omega-with-IDs on the e9 workload",
      e9_omega_spec("e9-omega", 17, 10));
  add("E9 Omega smoke cell: n=5, 3 seeds",
      e9_omega_spec("e9-omega-fast", 5, 3));
  add("E10 tracked workload: ESS no-decide state growth, n=5, 750 rounds",
      e10_spec("e10", false, 750));
  add("E10 counter-GC variant of the e10 workload", e10_spec("e10-gc", true, 750));
  add("E10 smoke cell: 150 rounds", e10_spec("e10-fast", false, 150));
  add("E12 cohort-collapsed E1-shaped run, n=4096 (8 proposal values)",
      e12_spec("e12-cohort", 4096));
  add("E12 smoke cell: n=256", e12_spec("e12-fast", 256));
  {
    // E12 at scale: the cohort engine with intra-run sharding
    // (engine_threads=0 = one shard per hardware thread).  The 8-value
    // proposal cycle keeps the class count tiny, so the run's cost is the
    // O(n) setup/metric passes — the part the shards absorb.
    ScenarioSpec huge = e12_spec("e12-huge", 100'000'000);
    huge.consensus.engine_threads = 0;
    add("E12 at scale: cohort-collapsed failure-free run at n=10^8, "
        "sharded intra-run",
        std::move(huge));
  }
  add("E13 sharded intra-run E1-shaped run, n=4096, 8 mid-flight crashes",
      e13_spec("e13-sharded", 4096, 8));
  add("E13 smoke cell: n=256, 4 crashes", e13_spec("e13-fast", 256, 4));
  add("E14 tracked workload: fault survival map — ES n=32 under seeded "
      "loss/dup/reorder + omission + churn, source exempt, watchdog 500",
      e14_spec("e14-survival", 32, 10, 0.15, true));
  add("E14 smoke cell: n=8, intensity 0.1, 3 seeds",
      e14_spec("e14-fast", 8, 3, 0.1, true));
  add("E14 hostile variant: source exemption OFF — maps where safety breaks",
      e14_spec("e14-hostile", 8, 5, 0.3, false));
  add("E16 cohort-collapsed weak-set: e4's workload on backend=cohort, "
      "n=4096",
      e16_weakset_spec("e16-ws-cohort", 4096, 12));
  add("E16 weakset smoke cell: n=64, cohort backend (run with --backend "
      "expanded for the byte-identity A/B)",
      e16_weakset_spec("e16-ws-fast", 64, 12));
  add("E16 cohort-collapsed MS emulation: 8-value echo-probe cycle, n=4096, "
      "40 rounds",
      e16_emulation_spec("e16-emul-cohort", 4096, 40));
  add("E16 emulation smoke cell: n=64, cohort backend, 25 rounds",
      e16_emulation_spec("e16-emul-fast", 64, 25));
  add("E17 live consensus: 5-node loopback UDP cluster decides over real "
      "sockets (anonsvc stack)",
      e17_consensus_spec("e17-live-consensus", 5, 0.0, 0));
  add("E17 live consensus under fire: loss 0.2 + 1 ms ingress jitter — "
      "safety by source-gated rounds, termination slows only",
      e17_consensus_spec("e17-live-lossy", 5, 0.2, 1));
  add("E17 live weak-set: 8 adds from 4 concurrent clients, history "
      "checked against the weak-set spec",
      e17_weakset_spec("e17-live-weakset", 5, 8, 4));
  add("E17 live ABD register: write/read probe over the loopback quorum",
      e17_abd_spec("e17-live-abd", 5));
  add("E17 stalled cluster: a watchdog tighter than the earliest decision "
      "degrades the run to `undecided` instead of hanging",
      e17_stall_spec("e17-live-stall"));
  add("The quickstart scenario: 5 anonymous processes, one mid-run crash "
      "(examples/quickstart.cpp)",
      quickstart_spec());
}

}  // namespace anon

// Declarative scenario descriptions — the one experiment surface.
//
// A `ScenarioSpec` names an experiment family (consensus | omega |
// emulation | weakset | weakset-shm | abd), the environment it runs in,
// the workload (initial values / scripts / crash plan), the execution
// backend, the seed list (multi-seed specs shard across threads via
// core/sweep.hpp) and the round/tick limits.  Specs round-trip through
// JSON canonically — encode(decode(encode(s))) is byte-identical — and
// validation returns field-path diagnostics instead of aborting, so a
// malformed spec file is a first-class user error.
//
// Families and the constructions they drive:
//   consensus    Algorithms 2/3 (ES/ESS), expanded or cohort backend,
//                env-generated or adversarial (bivalent/hostile) schedules,
//                decision / leader-convergence / state-growth probes.
//   omega        The Ω-with-IDs baseline consensus (cost-of-anonymity).
//   weakset      Algorithm 4's weak-set over MS, raw set or the Prop-1
//                register transformation.
//   emulation    Algorithm 5's MS-from-weak-set emulation (Theorem 4).
//   weakset-shm  The §5 register constructions (Prop 2 SWMR / Prop 3 MWMR).
//   abd          The ABD majority-register baseline (quorums + IDs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/runner.hpp"
#include "env/environment.hpp"
#include "scenario/json.hpp"

namespace anon {

enum class ScenarioFamily {
  kConsensus,
  kOmega,
  kWeakset,
  kEmulation,
  kWeaksetShm,
  kAbd,
};

const char* to_string(ScenarioFamily f);
// All families, in registry/order of the paper's constructions.
const std::vector<ScenarioFamily>& all_scenario_families();

// ---- Transport --------------------------------------------------------------

// Which backend executes the spec: the deterministic simulators (default),
// or the anonsvc live service (src/svc/) — real loopback sockets, one
// event-loop thread per node, wall-clock GIRAF rounds.  Live runs emit the
// same tagged ScenarioReport; wall-clock effects live only in fields the
// deterministic emission already excludes or that sim reports gate off.
enum class TransportKind { kSim, kLive };

// True for the families the live service hosts (consensus / weakset / abd
// — the three objects a LiveNode serves).
bool family_live_supported(ScenarioFamily f);

// Live-transport knobs.  Only encoded for transport "live" (and then
// defaults-elided), so every existing sim spec is byte-identical.
struct LiveSpecSection {
  enum class Socket { kUdp, kTcp };  // datagrams vs framed loopback streams
  Socket socket = Socket::kUdp;
  std::uint64_t period_ms = 4;       // pacemaker round cadence
  std::uint64_t jitter_ms = 0;       // ingress JitterPolicy max extra delay
  double loss = 0.0;                 // ingress loss (round-source exempt)
  std::uint64_t op_timeout_ms = 10000;  // per client operation
  std::size_t clients = 4;           // concurrent clients (weakset / abd)
  Round watchdog_rounds = 0;  // decision waits degrade to undecided; 0 = off

  friend bool operator==(const LiveSpecSection&,
                         const LiveSpecSection&) = default;
};

// ---- Workload building blocks ---------------------------------------------

// How the per-process initial/proposed values are produced.
struct ValueGenSpec {
  enum class Kind {
    kDistinct,   // base, base+1, …  (the experiments' default)
    kIdentical,  // n copies of base (fully symmetric anonymity)
    kCycle,      // base + (i % period): bounded proposal domain (E12)
    kBivalent,   // BivalentMsModel::initial_values(n) two-camp split (E8)
    kExplicit,   // the `values` list verbatim (must have size env.n)
  };
  Kind kind = Kind::kDistinct;
  std::int64_t base = 100;
  std::size_t period = 0;                // kCycle only
  std::vector<std::int64_t> values;      // kExplicit only

  friend bool operator==(const ValueGenSpec&, const ValueGenSpec&) = default;
};

// Materializes a ValueGenSpec into n per-process values (consensus
// proposals, emulation probe seeds, …).
std::vector<Value> materialize_values(const ValueGenSpec& g, std::size_t n);

struct CrashEntrySpec {
  std::size_t process = 0;
  Round round = 0;

  friend bool operator==(const CrashEntrySpec&, const CrashEntrySpec&) = default;
};

// The crash plan: none, an explicit (process, round) list, or f random
// victims at hash-chosen rounds (runner::random_crashes, seeded from the
// cell seed plus `seed_offset`).
struct CrashGenSpec {
  enum class Kind { kNone, kExplicit, kRandom };
  Kind kind = Kind::kNone;
  std::vector<CrashEntrySpec> entries;  // kExplicit
  std::size_t count = 0;                // kRandom: f victims
  Round horizon = 0;                    // kRandom: crash rounds in [1, horizon]
  std::uint64_t seed_offset = 7;        // kRandom: crash RNG = cell seed + offset

  friend bool operator==(const CrashGenSpec&, const CrashGenSpec&) = default;
};

// ---- Per-family sections ---------------------------------------------------

struct ConsensusSpecSection {
  // The network schedule: the env-generated model (EnvDelayModel), or one
  // of the adversarial models behind E1.b / E8.
  enum class Schedule { kEnv, kBivalentMs, kBivalentUntilGst, kHostileMs };
  // What the run observes: the decision (default), the round the pseudo
  // leader set converges (E3; ESS, no decisions), or a no-decide run to a
  // fixed horizon (E10's state-growth workload).
  enum class Probe { kDecision, kLeaderConvergence, kStateGrowth };

  ConsensusAlgo algo = ConsensusAlgo::kEs;
  ConsensusBackend backend = ConsensusBackend::kExpanded;
  // Worker-pool participants for the cohort engine's intra-run waves
  // (CohortOptions::engine_threads): 0 = one per hardware thread, N = N
  // shards.  Results are byte-identical at any value.  The expanded engine
  // is serial, so validation requires 1 there.
  std::size_t engine_threads = 1;
  Schedule schedule = Schedule::kEnv;
  Probe probe = Probe::kDecision;
  Round horizon = 0;           // probes != decision: rounds to execute
  bool gc_counters = false;    // ESS state-growth extension
  Round max_rounds = 60000;
  bool record_trace = true;
  bool record_deliveries = false;
  bool validate_env = false;
  // No-progress watchdog (ConsensusConfig::watchdog_rounds): stop a run
  // that reaches no new decision for this many rounds and report the cell
  // `undecided`.  0 = off (the default keeps existing specs unchanged).
  Round watchdog_rounds = 0;

  friend bool operator==(const ConsensusSpecSection&,
                         const ConsensusSpecSection&) = default;
};

struct OmegaSpecSection {
  enum class Probe { kDecision, kLeaderConvergence };
  Probe probe = Probe::kDecision;  // convergence probe disables decisions
  Round silence_threshold = 2;
  Round horizon = 300;         // convergence probe: observation window
  Round max_rounds = 60000;

  friend bool operator==(const OmegaSpecSection&, const OmegaSpecSection&) = default;
};

struct WeaksetOpSpec {
  Round round = 0;
  std::size_t process = 0;
  bool is_mutation = false;  // add (set mode) / write (register mode)
  std::int64_t value = 0;    // mutations only

  friend bool operator==(const WeaksetOpSpec&, const WeaksetOpSpec&) = default;
};

struct WeaksetSpecSection {
  enum class Mode { kSet, kRegister };  // raw Alg-4 set vs the Prop-1 register
  // Per-index LockstepNet vs the cohort-collapsed engine.  Cohort records
  // no per-process trace, so it requires validate_env = false; reports are
  // otherwise byte-identical (tests/weakset_cohort_test.cpp).
  enum class Backend { kExpanded, kCohort };
  Mode mode = Mode::kSet;
  Backend backend = Backend::kExpanded;
  // Worker-pool participants for the cohort backend's intra-run waves
  // (0 = one per hardware thread); byte-identical results at any value.
  // The expanded backend is serial: validation requires 1 there.
  std::size_t engine_threads = 1;
  std::vector<WeaksetOpSpec> script;  // explicit; empty ⇒ generated
  // Generated workload (`gen_ops` mutation/observation pairs, the E4/E6
  // bench shapes: adds at rounds 2+3i cycling processes, gets one round
  // later / writes at 2+5i alternating two writers, reads by process 2).
  std::size_t gen_ops = 0;
  Round extra_rounds = 50;   // rounds past the last scripted op
  bool validate_env = true;
  bool keep_records = false;  // retain the op records on the in-memory report

  friend bool operator==(const WeaksetSpecSection&, const WeaksetSpecSection&) = default;
};

struct EmulationAddSpec {
  std::size_t process = 0;
  std::int64_t value = 0;

  friend bool operator==(const EmulationAddSpec&, const EmulationAddSpec&) = default;
};

struct EmulationSpecSection {
  enum class Inner { kEcho, kWeakset };     // the automaton run on emulated rounds
  // Per-index execution vs the cohort-collapsed engine
  // (emul/ms_emulation_cohort.hpp).  Cohort records no trace (so requires
  // certify = false) and emits byte-identical cells otherwise
  // (tests/emulation_cohort_test.cpp).
  enum class Backend { kExpanded, kCohort };
  Inner inner = Inner::kEcho;
  Backend backend = Backend::kExpanded;
  std::size_t engine_threads = 1;           // cohort only: worker participants
  Round rounds = 40;                        // emulated rounds to reach
  std::uint64_t min_add_latency = 1;
  std::uint64_t max_add_latency = 6;
  std::vector<std::uint64_t> skew;          // per-process tick multiplier
  std::uint64_t max_ticks = 1000000;
  std::vector<EmulationAddSpec> adds;       // kWeakset inner: injected adds
  // Echo-probe seed shape (inner "echo" only).  The default — distinct,
  // base 0 — is exactly the historical seeds 0..n-1; "identical" or
  // "cycle" bound the seed support so the cohort backend can collapse
  // probe classes.
  ValueGenSpec probe_values{ValueGenSpec::Kind::kDistinct, 0, 0, {}};
  // Certify the emitted trace against the MS environment definition
  // (check_environment).  Requires a trace: the expanded backend only.
  bool certify = true;

  friend bool operator==(const EmulationSpecSection&,
                         const EmulationSpecSection&) = default;
};

struct ShmSpecSection {
  enum class Construction { kSwmr, kMwmr };  // Prop 2 (IDs) vs Prop 3 (domain)
  Construction construction = Construction::kSwmr;
  std::uint64_t gen_ops = 100;   // generated add/get pairs
  std::uint64_t domain = 13;     // value domain (|domain| registers for MWMR)
  std::size_t writers = 5;       // MWMR generator: processes cycling the script

  friend bool operator==(const ShmSpecSection&, const ShmSpecSection&) = default;
};

struct AbdSpecSection {
  std::size_t crash_prefix = 0;  // crash processes n-1 … n-crash_prefix up front
  std::int64_t write_value = 1;  // the probed write

  friend bool operator==(const AbdSpecSection&, const AbdSpecSection&) = default;
};

// ---- The spec ---------------------------------------------------------------

struct ScenarioSpec {
  std::string name;  // optional label (presets set it)
  ScenarioFamily family = ScenarioFamily::kConsensus;
  // One independent simulation per seed; multi-seed specs shard across
  // worker threads (results are index-aligned and thread-count invariant).
  std::vector<std::uint64_t> seeds = {1};

  // Execution backend: the simulators (default) or the anonsvc live stack.
  // Live seeds run sequentially — each one owns real sockets and threads.
  TransportKind transport = TransportKind::kSim;
  LiveSpecSection live;  // transport "live" only

  // Environment (EnvParams minus the seed, which comes from `seeds`).
  EnvKind env_kind = EnvKind::kES;
  std::size_t n = 3;
  Round stabilization = 0;
  Round max_delay = 3;
  double timely_prob = 0.25;
  // Fault plan layered over the environment (env/faults.hpp); inactive by
  // default and only encoded when active, so existing specs are unchanged.
  FaultParams faults;

  // Workload.
  ValueGenSpec initial;   // consensus / omega proposals
  CrashGenSpec crashes;   // consensus / weakset

  // Exactly one per-family section is meaningful (and encoded).
  ConsensusSpecSection consensus;
  OmegaSpecSection omega;
  WeaksetSpecSection weakset;
  EmulationSpecSection emulation;
  ShmSpecSection shm;
  AbdSpecSection abd;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;

  // Materialization helpers (validated specs only).
  EnvParams env_params(std::uint64_t seed) const;
  std::vector<Value> initial_values() const;
  CrashPlan crash_plan(std::uint64_t seed) const;
};

// ---- JSON encode / decode / validation -------------------------------------

// One diagnostic: a dotted field path ("consensus.backend",
// "workload.initial.values") plus a human message.
struct SpecError {
  std::string path;
  std::string message;

  std::string to_string() const { return path + ": " + message; }

  friend bool operator==(const SpecError&, const SpecError&) = default;
};

struct SpecDecodeResult {
  std::optional<ScenarioSpec> spec;  // set iff errors is empty
  std::vector<SpecError> errors;

  bool ok() const { return errors.empty(); }
  std::string errors_to_string() const;
};

// Canonical encoding: every field in a fixed order, only the active
// family's section.  encode(decode(encode(s))) is byte-identical.
JsonValue encode_scenario_spec(const ScenarioSpec& spec);
std::string scenario_spec_to_json(const ScenarioSpec& spec);  // dump() + '\n'

// Decode + validate.  Unknown keys, wrong types, out-of-family sections and
// inconsistent values all produce SpecErrors (never CHECK aborts).
SpecDecodeResult decode_scenario_spec(const JsonValue& doc);
SpecDecodeResult parse_scenario_spec(std::string_view json_text);

// Validation only (already-built specs — the experiment driver and tests
// construct specs in code).
std::vector<SpecError> validate_scenario_spec(const ScenarioSpec& spec);

// Sets the one field at a dotted JSON path ("env.faults.loss_prob",
// "consensus.engine_threads") from command-line text, parsed and diagnosed
// exactly like the same value in a spec file.  The text is read as JSON,
// or as a string when it is not JSON ("cohort").  Every other field keeps
// its value and nothing is validated; returns the decode diagnostics
// (empty on success).
std::vector<SpecError> set_scenario_field(ScenarioSpec* spec,
                                          std::string_view path,
                                          std::string_view text);

}  // namespace anon

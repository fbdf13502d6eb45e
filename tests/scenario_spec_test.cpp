// ScenarioSpec JSON: canonical round trips (encode → decode → byte-identical
// re-encode), first-class validation diagnostics with field paths, and the
// golden files pinning every registered preset's spec.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace anon {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(ANON_REPO_DIR) + "/tests/golden/presets/" + name + ".json";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

// Collects the error paths for compact assertions.
std::vector<std::string> error_paths(const SpecDecodeResult& res) {
  std::vector<std::string> paths;
  for (const auto& e : res.errors) paths.push_back(e.path);
  return paths;
}

bool has_error_at(const std::vector<SpecError>& errors,
                  const std::string& path) {
  for (const auto& e : errors)
    if (e.path == path) return true;
  return false;
}

// ---- round trips ------------------------------------------------------------

TEST(ScenarioSpecJson, EveryPresetRoundTripsByteIdentically) {
  const auto& presets = ScenarioRegistry::instance().presets();
  ASSERT_FALSE(presets.empty());
  for (const auto& preset : presets) {
    SCOPED_TRACE(preset.name);
    const std::string encoded = scenario_spec_to_json(preset.spec);
    auto decoded = parse_scenario_spec(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.errors_to_string();
    // Struct equality AND byte-identical re-encode.
    EXPECT_TRUE(*decoded.spec == preset.spec);
    EXPECT_EQ(scenario_spec_to_json(*decoded.spec), encoded);
  }
}

TEST(ScenarioSpecJson, HandwrittenSpecRoundTrips) {
  ScenarioSpec spec;
  spec.name = "rt";
  spec.family = ScenarioFamily::kWeakset;
  spec.seeds = {1, 2, 3};
  spec.env_kind = EnvKind::kMS;
  spec.n = 4;
  spec.weakset.mode = WeaksetSpecSection::Mode::kRegister;
  spec.weakset.script = {{2, 0, true, 7}, {9, 2, false, 0}};
  spec.weakset.extra_rounds = 33;
  spec.weakset.keep_records = true;
  spec.crashes.kind = CrashGenSpec::Kind::kExplicit;
  spec.crashes.entries = {{1, 4}};

  const std::string encoded = scenario_spec_to_json(spec);
  auto decoded = parse_scenario_spec(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.errors_to_string();
  EXPECT_TRUE(*decoded.spec == spec);
  EXPECT_EQ(scenario_spec_to_json(*decoded.spec), encoded);
}

// Valid hand-built specs that between them move every field of every
// section off its default and make every list non-empty.  No preset sets
// live.socket, live.clients, live.op_timeout_ms, emulation.adds,
// emulation.skew or weakset.script, so these are what catch a field
// missing from the spec tables, or listed before the sibling its
// predicate reads.
std::vector<ScenarioSpec> every_field_specs() {
  std::vector<ScenarioSpec> specs;

  // Fault plan, random crashes, cycle proposals, cohort backend.
  ScenarioSpec faults;
  faults.name = "faults";
  faults.family = ScenarioFamily::kConsensus;
  faults.seeds = {5, 6};
  faults.env_kind = EnvKind::kESS;
  faults.n = 6;
  faults.stabilization = 4;
  faults.max_delay = 5;
  faults.timely_prob = 0.5;
  faults.faults = {99, 0.125, 0.25, 2, 0.5, 3, {1}, {{0, 3, 8}, {2, 5, 0}},
                   false};
  faults.initial = {ValueGenSpec::Kind::kCycle, 7, 2, {}};
  faults.crashes.kind = CrashGenSpec::Kind::kRandom;
  faults.crashes.count = 2;
  faults.crashes.horizon = 9;
  faults.crashes.seed_offset = 11;
  faults.consensus.algo = ConsensusAlgo::kEss;
  faults.consensus.backend = ConsensusBackend::kCohort;
  faults.consensus.engine_threads = 3;
  faults.consensus.gc_counters = true;
  faults.consensus.max_rounds = 5000;
  faults.consensus.watchdog_rounds = 400;
  faults.consensus.record_trace = false;
  specs.push_back(faults);

  // Adversarial schedule with the full certified trace.
  ScenarioSpec bivalent;
  bivalent.name = "bivalent";
  bivalent.env_kind = EnvKind::kMS;
  bivalent.n = 5;
  bivalent.initial.kind = ValueGenSpec::Kind::kBivalent;
  bivalent.consensus.schedule = ConsensusSpecSection::Schedule::kBivalentMs;
  bivalent.consensus.record_deliveries = true;
  bivalent.consensus.validate_env = true;
  specs.push_back(bivalent);

  // A non-decision probe, explicit proposals and explicit crashes.
  ScenarioSpec growth;
  growth.name = "growth";
  growth.n = 4;
  growth.initial = {ValueGenSpec::Kind::kExplicit, 100, 0, {4, -2, 9, 1}};
  growth.crashes.kind = CrashGenSpec::Kind::kExplicit;
  growth.crashes.entries = {{1, 3}, {2, 7}};
  growth.consensus.algo = ConsensusAlgo::kEss;
  growth.consensus.probe = ConsensusSpecSection::Probe::kStateGrowth;
  growth.consensus.horizon = 50;
  specs.push_back(growth);

  // Live consensus: every live field but the socket (loss needs UDP).
  ScenarioSpec live;
  live.name = "live";
  live.transport = TransportKind::kLive;
  live.n = 5;
  live.live = {LiveSpecSection::Socket::kUdp, 2, 1, 0.2, 500, 2, 30};
  specs.push_back(live);

  // Live ABD over TCP.
  ScenarioSpec tcp;
  tcp.name = "tcp";
  tcp.family = ScenarioFamily::kAbd;
  tcp.transport = TransportKind::kLive;
  tcp.live.socket = LiveSpecSection::Socket::kTcp;
  tcp.abd = {1, -4};
  specs.push_back(tcp);

  ScenarioSpec omega;
  omega.name = "omega";
  omega.family = ScenarioFamily::kOmega;
  omega.env_kind = EnvKind::kESS;
  omega.initial = {ValueGenSpec::Kind::kIdentical, 5, 0, {}};
  omega.omega = {OmegaSpecSection::Probe::kLeaderConvergence, 3, 120, 900};
  specs.push_back(omega);

  // Scripted register ops on the cohort engine.
  ScenarioSpec script;
  script.name = "script";
  script.family = ScenarioFamily::kWeakset;
  script.env_kind = EnvKind::kMS;
  script.n = 4;
  script.weakset.mode = WeaksetSpecSection::Mode::kRegister;
  script.weakset.backend = WeaksetSpecSection::Backend::kCohort;
  script.weakset.engine_threads = 2;
  script.weakset.script = {{2, 0, true, 7}, {9, 3, false, 0}};
  script.weakset.extra_rounds = 20;
  script.weakset.validate_env = false;
  script.weakset.keep_records = true;
  specs.push_back(script);

  ScenarioSpec gen_ops;
  gen_ops.name = "gen-ops";
  gen_ops.family = ScenarioFamily::kWeakset;
  gen_ops.weakset.gen_ops = 6;
  specs.push_back(gen_ops);

  // The weak-set inner on the reference engine, with skew and adds.
  ScenarioSpec adds;
  adds.name = "adds";
  adds.family = ScenarioFamily::kEmulation;
  adds.env_kind = EnvKind::kMS;
  adds.n = 3;
  adds.emulation.inner = EmulationSpecSection::Inner::kWeakset;
  adds.emulation.engine = EmulationSpecSection::Engine::kRef;
  adds.emulation.rounds = 12;
  adds.emulation.min_add_latency = 2;
  adds.emulation.max_add_latency = 4;
  adds.emulation.skew = {1, 3, 2};
  adds.emulation.max_ticks = 5000;
  adds.emulation.adds = {{0, 8}, {2, -1}};
  adds.emulation.certify = false;
  specs.push_back(adds);

  // Echo probes with bounded seeds on the cohort engine.
  ScenarioSpec probes;
  probes.name = "probes";
  probes.family = ScenarioFamily::kEmulation;
  probes.env_kind = EnvKind::kMS;
  probes.emulation.backend = EmulationSpecSection::Backend::kCohort;
  probes.emulation.engine_threads = 2;
  probes.emulation.probe_values = {ValueGenSpec::Kind::kCycle, 3, 2, {}};
  probes.emulation.certify = false;
  specs.push_back(probes);

  ScenarioSpec shm;
  shm.name = "shm";
  shm.family = ScenarioFamily::kWeaksetShm;
  shm.shm = {ShmSpecSection::Construction::kMwmr, 20, 5, 3};
  specs.push_back(shm);
  return specs;
}

TEST(ScenarioSpecJson, EveryFieldRoundTripsByteIdentically) {
  for (const ScenarioSpec& spec : every_field_specs()) {
    SCOPED_TRACE(spec.name);
    const auto errors = validate_scenario_spec(spec);
    ASSERT_TRUE(errors.empty()) << errors[0].to_string();
    const std::string encoded = scenario_spec_to_json(spec);
    auto decoded = parse_scenario_spec(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.errors_to_string();
    EXPECT_TRUE(*decoded.spec == spec) << encoded;
    EXPECT_EQ(scenario_spec_to_json(*decoded.spec), encoded);
  }
}

TEST(ScenarioSpecJson, SetFieldDecodesLikeASpecFile) {
  // One dotted path, decoded through the spec tables: other fields keep
  // their values, and a bad value gets the spec file's diagnostic.
  ScenarioSpec spec;
  spec.n = 7;
  EXPECT_TRUE(
      set_scenario_field(&spec, "env.faults.loss_prob", "0.25").empty());
  EXPECT_TRUE(set_scenario_field(&spec, "consensus.backend", "cohort").empty());
  EXPECT_EQ(spec.faults.loss_prob, 0.25);
  EXPECT_EQ(spec.consensus.backend, ConsensusBackend::kCohort);
  EXPECT_EQ(spec.n, 7u);

  const std::vector<SpecError> number = {
      {"env.faults.loss_prob", "must be a number"}};
  EXPECT_EQ(set_scenario_field(&spec, "env.faults.loss_prob", "high"), number);
  const std::vector<SpecError> unknown = {
      {"env.faults.bogus", "unknown field"}};
  EXPECT_EQ(set_scenario_field(&spec, "env.faults.bogus", "1"), unknown);

  spec.family = ScenarioFamily::kAbd;
  const auto wrong =
      set_scenario_field(&spec, "consensus.watchdog_rounds", "5");
  ASSERT_EQ(wrong.size(), 1u);
  EXPECT_EQ(wrong[0].path, "consensus");
}

TEST(ScenarioSpecJson, EngineThreadsRoundTripsAndDefaultsStayImplicit) {
  // engine_threads is encoded only when != 1, so every pre-existing spec
  // and golden stays byte-identical; a non-default value round-trips.  Only
  // the cohort backend takes one, and it records no trace.
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kConsensus;
  spec.consensus.backend = ConsensusBackend::kCohort;
  spec.consensus.record_trace = false;
  spec.consensus.validate_env = false;
  EXPECT_EQ(scenario_spec_to_json(spec).find("engine_threads"),
            std::string::npos);

  spec.consensus.engine_threads = 8;
  const std::string encoded = scenario_spec_to_json(spec);
  EXPECT_NE(encoded.find("\"engine_threads\": 8"), std::string::npos);
  auto decoded = parse_scenario_spec(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.errors_to_string();
  EXPECT_EQ(decoded.spec->consensus.engine_threads, 8u);
  EXPECT_TRUE(*decoded.spec == spec);
  EXPECT_EQ(scenario_spec_to_json(*decoded.spec), encoded);

  // 0 (= one shard per hardware thread) is a valid, non-default value.
  auto zero = parse_scenario_spec(R"({
    "family": "consensus",
    "consensus": {"backend": "cohort", "record_trace": false,
                  "validate_env": false, "engine_threads": 0}
  })");
  ASSERT_TRUE(zero.ok()) << zero.errors_to_string();
  EXPECT_EQ(zero.spec->consensus.engine_threads, 0u);
}

TEST(ScenarioSpecJson, FaultPlanRoundTripsAndDefaultsStayImplicit) {
  // An inactive fault plan is not encoded at all (every pre-fault spec and
  // golden stays byte-identical); an active one round-trips canonically,
  // including the list-valued fields.
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kConsensus;
  EXPECT_EQ(scenario_spec_to_json(spec).find("faults"), std::string::npos);

  spec.faults.seed = 99;
  spec.faults.loss_prob = 0.125;
  spec.faults.dup_prob = 0.25;
  spec.faults.dup_extra_delay = 2;
  spec.faults.reorder_prob = 0.5;
  spec.faults.max_extra_delay = 3;
  spec.faults.omission_senders = {1, 2};
  spec.faults.churn = {{0, 3, 8}, {2, 5, 0}};
  spec.faults.exempt_source = false;
  spec.consensus.watchdog_rounds = 500;

  const std::string encoded = scenario_spec_to_json(spec);
  EXPECT_NE(encoded.find("\"faults\""), std::string::npos);
  EXPECT_NE(encoded.find("\"watchdog_rounds\": 500"), std::string::npos);
  auto decoded = parse_scenario_spec(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.errors_to_string();
  EXPECT_TRUE(*decoded.spec == spec);
  EXPECT_EQ(scenario_spec_to_json(*decoded.spec), encoded);
}

TEST(ScenarioSpecJson, SparseSpecUsesDefaults) {
  auto decoded = parse_scenario_spec(R"({"family": "abd"})");
  ASSERT_TRUE(decoded.ok()) << decoded.errors_to_string();
  EXPECT_EQ(decoded.spec->family, ScenarioFamily::kAbd);
  EXPECT_EQ(decoded.spec->seeds, std::vector<std::uint64_t>{1});
  EXPECT_EQ(decoded.spec->n, 3u);
}

// ---- malformed JSON ---------------------------------------------------------

TEST(ScenarioSpecJson, MalformedJsonIsADiagnosticNotACrash) {
  auto res = parse_scenario_spec("{\"family\": \"consensus\",}");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.errors[0].path, "(json)");
  EXPECT_NE(res.errors[0].message.find("line"), std::string::npos);
}

TEST(ScenarioSpecJson, NonConformingNumbersAreRejected) {
  // RFC 8259 strictness: what jq/python reject, the spec parser rejects.
  for (const char* bad :
       {R"({"env": {"n": 04}})", R"({"env": {"timely_prob": 1.}})",
        R"({"env": {"timely_prob": .5}})", R"({"seeds": [1e]})"}) {
    SCOPED_TRACE(bad);
    auto res = parse_scenario_spec(bad);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.errors[0].path, "(json)");
  }
}

TEST(ScenarioSpecJson, PathologicalNestingIsADiagnosticNotACrash) {
  const std::string deep(100000, '[');
  auto res = parse_scenario_spec(deep);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.errors[0].message.find("nesting"), std::string::npos)
      << res.errors_to_string();
}

TEST(ScenarioSpecJson, DuplicateKeysAreRejected) {
  auto res = parse_scenario_spec(R"({"family": "abd", "family": "abd"})");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.errors[0].path, "(json)");
}

TEST(ScenarioSpecJson, UnknownFieldsCarryTheirPath) {
  auto res = parse_scenario_spec(
      R"({"family": "consensus", "consensus": {"algo": "es", "bckend": "cohort"}})");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "consensus.bckend"))
      << res.errors_to_string();
}

TEST(ScenarioSpecJson, UnknownEnumValueListsChoices) {
  auto res = parse_scenario_spec(R"({"family": "flooding"})");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "family"));
  EXPECT_NE(res.errors[0].message.find("weakset-shm"), std::string::npos);
}

TEST(ScenarioSpecJson, WrongFamilySectionIsRejected) {
  auto res = parse_scenario_spec(
      R"({"family": "abd", "emulation": {"rounds": 5}})");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "emulation")) << res.errors_to_string();
}

// ---- validation -------------------------------------------------------------

TEST(ScenarioSpecValidation, InitialSizeMustMatchN) {
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"n": 5},
    "workload": {"initial": {"kind": "explicit", "values": [1, 2, 3]}}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "workload.initial.values"))
      << res.errors_to_string();
  EXPECT_NE(res.errors[0].message.find("3"), std::string::npos);
  EXPECT_NE(res.errors[0].message.find("5"), std::string::npos);
}

TEST(ScenarioSpecValidation, CohortBackendWithTraceIsDiagnosed) {
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "consensus": {"backend": "cohort"}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "consensus.backend"))
      << res.errors_to_string();

  // With the trace surfaces off, the cohort backend is valid.
  auto ok = parse_scenario_spec(R"({
    "family": "consensus",
    "consensus": {"backend": "cohort", "record_trace": false,
                  "validate_env": false}
  })");
  EXPECT_TRUE(ok.ok()) << ok.errors_to_string();
}

TEST(ScenarioSpecValidation, CohortBackendAcceptsIntraRunSharding) {
  // The cohort engine shards its class list over engine_threads
  // participants, and the spec round-trips the knob.
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "consensus": {"backend": "cohort", "record_trace": false,
                  "validate_env": false, "engine_threads": 4}
  })");
  ASSERT_TRUE(res.ok()) << res.errors_to_string();
  EXPECT_EQ(res.spec->consensus.backend, ConsensusBackend::kCohort);
  EXPECT_EQ(res.spec->consensus.engine_threads, 4u);

  const std::string once = scenario_spec_to_json(*res.spec);
  auto again = parse_scenario_spec(once);
  ASSERT_TRUE(again.ok()) << again.errors_to_string();
  EXPECT_EQ(once, scenario_spec_to_json(*again.spec));
}

TEST(ScenarioSpecValidation, EngineThreadsNeedTheCohortBackend) {
  // The expanded engines are serial: a thread count there would be
  // silently ignored, so any value but 1 is an error at the field's path.
  for (const char* threads : {"0", "4"}) {
    SCOPED_TRACE(threads);
    const std::string t = threads;
    auto consensus = parse_scenario_spec(
        R"({"family": "consensus", "consensus": {"engine_threads": )" + t +
        "}}");
    ASSERT_FALSE(consensus.ok());
    EXPECT_TRUE(has_error_at(consensus.errors, "consensus.engine_threads"))
        << consensus.errors_to_string();

    auto weakset = parse_scenario_spec(
        R"({"family": "weakset", "weakset": {"engine_threads": )" + t + "}}");
    ASSERT_FALSE(weakset.ok());
    EXPECT_TRUE(has_error_at(weakset.errors, "weakset.engine_threads"))
        << weakset.errors_to_string();

    auto emulation = parse_scenario_spec(
        R"({"family": "emulation", "env": {"kind": "ms"},
            "emulation": {"engine_threads": )" +
        t + "}}");
    ASSERT_FALSE(emulation.ok());
    EXPECT_TRUE(has_error_at(emulation.errors, "emulation.engine_threads"))
        << emulation.errors_to_string();
  }
}

TEST(ScenarioSpecValidation, ValidateEnvNeedsTheFullTrace) {
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "consensus": {"validate_env": true}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "consensus.validate_env"))
      << res.errors_to_string();
}

TEST(ScenarioSpecValidation, WeaksetCohortBackendRoundTripsAndGates) {
  // backend/engine_threads stay implicit at their defaults (goldens are
  // untouched), round-trip when set, and cohort rejects validate_env.
  ScenarioSpec spec;
  spec.family = ScenarioFamily::kWeakset;
  EXPECT_EQ(scenario_spec_to_json(spec).find("backend"), std::string::npos);

  auto res = parse_scenario_spec(R"({
    "family": "weakset",
    "weakset": {"backend": "cohort", "engine_threads": 4, "gen_ops": 4,
                "validate_env": false}
  })");
  ASSERT_TRUE(res.ok()) << res.errors_to_string();
  EXPECT_EQ(res.spec->weakset.backend, WeaksetSpecSection::Backend::kCohort);
  EXPECT_EQ(res.spec->weakset.engine_threads, 4u);
  const std::string once = scenario_spec_to_json(*res.spec);
  auto again = parse_scenario_spec(once);
  ASSERT_TRUE(again.ok()) << again.errors_to_string();
  EXPECT_EQ(once, scenario_spec_to_json(*again.spec));

  auto bad = parse_scenario_spec(R"({
    "family": "weakset",
    "weakset": {"backend": "cohort", "validate_env": true}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(has_error_at(bad.errors, "weakset.validate_env"))
      << bad.errors_to_string();
}

TEST(ScenarioSpecValidation, EmulationCohortNeedsInternedAndNoCertify) {
  auto ok = parse_scenario_spec(R"({
    "family": "emulation",
    "env": {"kind": "ms"},
    "emulation": {"backend": "cohort", "certify": false, "engine_threads": 2}
  })");
  ASSERT_TRUE(ok.ok()) << ok.errors_to_string();
  EXPECT_EQ(ok.spec->emulation.backend,
            EmulationSpecSection::Backend::kCohort);

  auto certify = parse_scenario_spec(R"({
    "family": "emulation",
    "env": {"kind": "ms"},
    "emulation": {"backend": "cohort"}
  })");
  ASSERT_FALSE(certify.ok());
  EXPECT_TRUE(has_error_at(certify.errors, "emulation.certify"))
      << certify.errors_to_string();

  auto ref = parse_scenario_spec(R"({
    "family": "emulation",
    "env": {"kind": "ms"},
    "emulation": {"backend": "cohort", "engine": "ref", "certify": false}
  })");
  ASSERT_FALSE(ref.ok());
  EXPECT_TRUE(has_error_at(ref.errors, "emulation.engine"))
      << ref.errors_to_string();
}

TEST(ScenarioSpecValidation, EmulationProbeValuesShapeTheEchoSeeds) {
  // probe_values round-trips (implicit at the historical 0..n-1 default)
  // and is gated to the echo inner with value-shape rules.
  auto ok = parse_scenario_spec(R"({
    "family": "emulation",
    "env": {"kind": "ms", "n": 6},
    "emulation": {"probe_values": {"kind": "cycle", "base": 0, "period": 2}}
  })");
  ASSERT_TRUE(ok.ok()) << ok.errors_to_string();
  EXPECT_EQ(ok.spec->emulation.probe_values.kind, ValueGenSpec::Kind::kCycle);
  const std::string once = scenario_spec_to_json(*ok.spec);
  auto again = parse_scenario_spec(once);
  ASSERT_TRUE(again.ok()) << again.errors_to_string();
  EXPECT_EQ(once, scenario_spec_to_json(*again.spec));

  auto inner = parse_scenario_spec(R"({
    "family": "emulation",
    "env": {"kind": "ms"},
    "emulation": {"inner": "weakset",
                  "probe_values": {"kind": "identical", "base": 3}}
  })");
  ASSERT_FALSE(inner.ok());
  EXPECT_TRUE(has_error_at(inner.errors, "emulation.probe_values"))
      << inner.errors_to_string();

  auto bivalent = parse_scenario_spec(R"({
    "family": "emulation",
    "env": {"kind": "ms"},
    "emulation": {"probe_values": {"kind": "bivalent"}}
  })");
  ASSERT_FALSE(bivalent.ok());
  EXPECT_TRUE(has_error_at(bivalent.errors, "emulation.probe_values.kind"))
      << bivalent.errors_to_string();

  auto sized = parse_scenario_spec(R"({
    "family": "emulation",
    "env": {"kind": "ms", "n": 4},
    "emulation": {"probe_values": {"kind": "explicit", "values": [1, 2]}}
  })");
  ASSERT_FALSE(sized.ok());
  EXPECT_TRUE(has_error_at(sized.errors, "emulation.probe_values.values"))
      << sized.errors_to_string();
}

TEST(ScenarioSpecValidation, FaultPlansReachWeaksetAndInternedEmulation) {
  // The env.faults gate: weakset accepts any plan, emulation accepts them
  // on the interned engine only (the ref engine is the untouched oracle),
  // and trace-free families still reject.
  auto ws = parse_scenario_spec(R"({
    "family": "weakset",
    "env": {"faults": {"loss_prob": 0.25}},
    "weakset": {"gen_ops": 4}
  })");
  EXPECT_TRUE(ws.ok()) << ws.errors_to_string();

  auto emu = parse_scenario_spec(R"({
    "family": "emulation",
    "env": {"kind": "ms", "faults": {"loss_prob": 0.25}}
  })");
  EXPECT_TRUE(emu.ok()) << emu.errors_to_string();

  auto ref = parse_scenario_spec(R"({
    "family": "emulation",
    "env": {"kind": "ms", "faults": {"loss_prob": 0.25}},
    "emulation": {"engine": "ref"}
  })");
  ASSERT_FALSE(ref.ok());
  EXPECT_TRUE(has_error_at(ref.errors, "env.faults"))
      << ref.errors_to_string();

  auto shm = parse_scenario_spec(R"({
    "family": "weakset-shm",
    "env": {"faults": {"loss_prob": 0.25}}
  })");
  ASSERT_FALSE(shm.ok());
  EXPECT_TRUE(has_error_at(shm.errors, "env.faults"))
      << shm.errors_to_string();
}

TEST(ScenarioSpecValidation, RandomCrashesMustLeaveACorrectProcess) {
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"n": 4},
    "workload": {"crashes": {"kind": "random", "count": 4, "horizon": 5}}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "workload.crashes.count"))
      << res.errors_to_string();
}

TEST(ScenarioSpecValidation, ExplicitCrashesMustLeaveACorrectProcess) {
  // The runner layer CHECK-aborts on an all-crashed environment; the spec
  // layer must catch it first and return a diagnostic instead.
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"n": 2},
    "workload": {"crashes": {"kind": "explicit", "entries": [
      {"process": 0, "round": 1}, {"process": 1, "round": 1}]}}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "workload.crashes.entries"))
      << res.errors_to_string();
}

TEST(ScenarioSpecValidation, BivalentSchedulesNeedThreeProcesses) {
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"kind": "ms", "n": 2},
    "workload": {"initial": {"kind": "bivalent"}},
    "consensus": {"schedule": "bivalent-ms"}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "env.n")) << res.errors_to_string();
}

TEST(ScenarioSpecValidation, AdversarialSchedulesDriveAlgorithm2) {
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"kind": "ms", "n": 5},
    "consensus": {"algo": "ess", "schedule": "hostile-ms"}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "consensus.algo"))
      << res.errors_to_string();
}

TEST(ScenarioSpecValidation, EmulationSkewMustMatchN) {
  auto res = parse_scenario_spec(R"({
    "family": "emulation",
    "env": {"kind": "ms", "n": 4},
    "emulation": {"skew": [1, 2]}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "emulation.skew"))
      << res.errors_to_string();
}

TEST(ScenarioSpecValidation, ConvergenceProbeRequiresEss) {
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"kind": "ess", "n": 5},
    "consensus": {"algo": "es", "probe": "leader-convergence", "horizon": 50}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "consensus.algo"))
      << res.errors_to_string();
}

TEST(ScenarioSpecValidation, ErrorsAccumulateAcrossFields) {
  auto res = parse_scenario_spec(R"({
    "family": "weakset",
    "env": {"kind": "ms", "n": 2},
    "weakset": {"script": [{"round": 0, "process": 7, "mutate": true,
                            "value": 1}]}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_GE(res.errors.size(), 2u) << res.errors_to_string();
  EXPECT_TRUE(has_error_at(res.errors, "weakset.script[0].process"));
  EXPECT_TRUE(has_error_at(res.errors, "weakset.script[0].round"));
  (void)error_paths(res);
}

TEST(ScenarioSpecValidation, FaultProbabilitiesMustBeInRange) {
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"faults": {"loss_prob": 1.5}}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "env.faults.loss_prob"))
      << res.errors_to_string();
}

TEST(ScenarioSpecValidation, ChurnWindowsMustBeWellFormed) {
  // rejoin inside the leave window, and a process id off the end of n.
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"n": 3, "faults": {"churn": [
      {"process": 1, "leave": 5, "rejoin": 4},
      {"process": 7, "leave": 2}]}}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "env.faults.churn[0].rejoin"))
      << res.errors_to_string();
  EXPECT_TRUE(has_error_at(res.errors, "env.faults.churn[1].process"))
      << res.errors_to_string();
}

TEST(ScenarioSpecValidation, ActiveFaultsNeedTheEnvDecisionPath) {
  // Faults are wired through the env-schedule decision pipeline only; an
  // adversarial schedule with an active plan is a diagnostic, not a
  // silently fault-free run.
  auto res = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"kind": "ms", "n": 5, "faults": {"loss_prob": 0.1}},
    "consensus": {"schedule": "hostile-ms"}
  })");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(has_error_at(res.errors, "env.faults"))
      << res.errors_to_string();

  // An inactive plan (all defaults) is fine anywhere.
  auto ok = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"kind": "ms", "n": 5, "faults": {"exempt_source": true}},
    "consensus": {"schedule": "hostile-ms"}
  })");
  EXPECT_TRUE(ok.ok()) << ok.errors_to_string();
}

TEST(ScenarioSpecValidation, LiveTransportGates) {
  // A live consensus spec with the live knobs round-trips and validates.
  auto ok = parse_scenario_spec(R"({
    "family": "consensus",
    "transport": "live",
    "env": {"n": 5},
    "live": {"period_ms": 2, "loss": 0.2, "jitter_ms": 1}
  })");
  EXPECT_TRUE(ok.ok()) << ok.errors_to_string();

  // Unserved family.
  auto emu = parse_scenario_spec(R"({
    "family": "emulation",
    "transport": "live",
    "env": {"kind": "ms"}
  })");
  ASSERT_FALSE(emu.ok());
  EXPECT_TRUE(has_error_at(emu.errors, "transport"))
      << emu.errors_to_string();

  // env.faults is the sim fault surface; live faults are live.loss/jitter.
  auto faults = parse_scenario_spec(R"({
    "family": "consensus",
    "transport": "live",
    "env": {"n": 5, "faults": {"loss_prob": 0.1}}
  })");
  ASSERT_FALSE(faults.ok());
  EXPECT_TRUE(has_error_at(faults.errors, "env.faults"))
      << faults.errors_to_string();

  // TCP cannot attribute senders, so loss would hit the rotating source's
  // frames too and break the exempt-source safety contract.
  auto tcp = parse_scenario_spec(R"({
    "family": "consensus",
    "transport": "live",
    "env": {"n": 5},
    "live": {"socket": "tcp", "loss": 0.2}
  })");
  ASSERT_FALSE(tcp.ok());
  EXPECT_TRUE(has_error_at(tcp.errors, "live.loss"))
      << tcp.errors_to_string();

  // A live section on a sim spec is a diagnostic, not silently ignored.
  auto sim = parse_scenario_spec(R"({
    "family": "consensus",
    "env": {"n": 5},
    "live": {"period_ms": 2}
  })");
  ASSERT_FALSE(sim.ok());
  EXPECT_TRUE(has_error_at(sim.errors, "live")) << sim.errors_to_string();
}

// ---- preset goldens ---------------------------------------------------------

// Every registered preset's canonical spec encoding is pinned to a golden
// file: editing a preset is a reviewed act, and `anonsim describe` output
// stays stable for scripts.  Regenerate with:
//   for p in $(build/anonsim list | awk '/^\s\s\S/ {print $1}'); do
//     build/anonsim describe $p > tests/golden/presets/$p.json; done
TEST(ScenarioPresetGoldens, EveryPresetMatchesItsGoldenFile) {
  const auto& presets = ScenarioRegistry::instance().presets();
  ASSERT_FALSE(presets.empty());
  for (const auto& preset : presets) {
    SCOPED_TRACE(preset.name);
    auto golden = read_file(golden_path(preset.name));
    ASSERT_TRUE(golden.has_value())
        << "missing golden file " << golden_path(preset.name)
        << " — regenerate with `anonsim describe " << preset.name << "`";
    EXPECT_EQ(scenario_spec_to_json(preset.spec), *golden);
  }
}

}  // namespace
}  // namespace anon

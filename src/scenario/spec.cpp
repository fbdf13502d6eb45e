#include "scenario/spec.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <type_traits>

#include "env/generate.hpp"

namespace anon {

// ------------------------------------------------------------ enum tables --

namespace {

template <typename E>
struct EnumName {
  E value;
  const char* name;
};

constexpr EnumName<ScenarioFamily> kFamilyNames[] = {
    {ScenarioFamily::kConsensus, "consensus"},
    {ScenarioFamily::kOmega, "omega"},
    {ScenarioFamily::kWeakset, "weakset"},
    {ScenarioFamily::kEmulation, "emulation"},
    {ScenarioFamily::kWeaksetShm, "weakset-shm"},
    {ScenarioFamily::kAbd, "abd"},
};

constexpr EnumName<EnvKind> kEnvKindNames[] = {
    {EnvKind::kMS, "ms"},
    {EnvKind::kES, "es"},
    {EnvKind::kESS, "ess"},
};

constexpr EnumName<TransportKind> kTransportNames[] = {
    {TransportKind::kSim, "sim"},
    {TransportKind::kLive, "live"},
};

constexpr EnumName<LiveSpecSection::Socket> kLiveSocketNames[] = {
    {LiveSpecSection::Socket::kUdp, "udp"},
    {LiveSpecSection::Socket::kTcp, "tcp"},
};

constexpr EnumName<ConsensusAlgo> kAlgoNames[] = {
    {ConsensusAlgo::kEs, "es"},
    {ConsensusAlgo::kEss, "ess"},
};

constexpr EnumName<ConsensusBackend> kBackendNames[] = {
    {ConsensusBackend::kExpanded, "expanded"},
    {ConsensusBackend::kCohort, "cohort"},
};

constexpr EnumName<WeaksetSpecSection::Backend> kWsBackendNames[] = {
    {WeaksetSpecSection::Backend::kExpanded, "expanded"},
    {WeaksetSpecSection::Backend::kCohort, "cohort"},
};

constexpr EnumName<EmulationSpecSection::Backend> kEmuBackendNames[] = {
    {EmulationSpecSection::Backend::kExpanded, "expanded"},
    {EmulationSpecSection::Backend::kCohort, "cohort"},
};

constexpr EnumName<ConsensusSpecSection::Schedule> kScheduleNames[] = {
    {ConsensusSpecSection::Schedule::kEnv, "env"},
    {ConsensusSpecSection::Schedule::kBivalentMs, "bivalent-ms"},
    {ConsensusSpecSection::Schedule::kBivalentUntilGst, "bivalent-until-gst"},
    {ConsensusSpecSection::Schedule::kHostileMs, "hostile-ms"},
};

constexpr EnumName<ConsensusSpecSection::Probe> kConsensusProbeNames[] = {
    {ConsensusSpecSection::Probe::kDecision, "decision"},
    {ConsensusSpecSection::Probe::kLeaderConvergence, "leader-convergence"},
    {ConsensusSpecSection::Probe::kStateGrowth, "state-growth"},
};

constexpr EnumName<OmegaSpecSection::Probe> kOmegaProbeNames[] = {
    {OmegaSpecSection::Probe::kDecision, "decision"},
    {OmegaSpecSection::Probe::kLeaderConvergence, "leader-convergence"},
};

constexpr EnumName<ValueGenSpec::Kind> kValueGenNames[] = {
    {ValueGenSpec::Kind::kDistinct, "distinct"},
    {ValueGenSpec::Kind::kIdentical, "identical"},
    {ValueGenSpec::Kind::kCycle, "cycle"},
    {ValueGenSpec::Kind::kBivalent, "bivalent"},
    {ValueGenSpec::Kind::kExplicit, "explicit"},
};

constexpr EnumName<CrashGenSpec::Kind> kCrashGenNames[] = {
    {CrashGenSpec::Kind::kNone, "none"},
    {CrashGenSpec::Kind::kExplicit, "explicit"},
    {CrashGenSpec::Kind::kRandom, "random"},
};

constexpr EnumName<WeaksetSpecSection::Mode> kWeaksetModeNames[] = {
    {WeaksetSpecSection::Mode::kSet, "set"},
    {WeaksetSpecSection::Mode::kRegister, "register"},
};

constexpr EnumName<EmulationSpecSection::Inner> kEmuInnerNames[] = {
    {EmulationSpecSection::Inner::kEcho, "echo"},
    {EmulationSpecSection::Inner::kWeakset, "weakset"},
};

constexpr EnumName<ShmSpecSection::Construction> kShmNames[] = {
    {ShmSpecSection::Construction::kSwmr, "swmr"},
    {ShmSpecSection::Construction::kMwmr, "mwmr"},
};

// The codecs below find an enum's names by its type.
const auto& names(ScenarioFamily) { return kFamilyNames; }
const auto& names(EnvKind) { return kEnvKindNames; }
const auto& names(TransportKind) { return kTransportNames; }
const auto& names(LiveSpecSection::Socket) { return kLiveSocketNames; }
const auto& names(ConsensusAlgo) { return kAlgoNames; }
const auto& names(ConsensusBackend) { return kBackendNames; }
const auto& names(WeaksetSpecSection::Backend) { return kWsBackendNames; }
const auto& names(EmulationSpecSection::Backend) { return kEmuBackendNames; }
const auto& names(ConsensusSpecSection::Schedule) { return kScheduleNames; }
const auto& names(ConsensusSpecSection::Probe) { return kConsensusProbeNames; }
const auto& names(OmegaSpecSection::Probe) { return kOmegaProbeNames; }
const auto& names(ValueGenSpec::Kind) { return kValueGenNames; }
const auto& names(CrashGenSpec::Kind) { return kCrashGenNames; }
const auto& names(WeaksetSpecSection::Mode) { return kWeaksetModeNames; }
const auto& names(EmulationSpecSection::Inner) { return kEmuInnerNames; }
const auto& names(ShmSpecSection::Construction) { return kShmNames; }

template <typename E>
const char* enum_name(E value) {
  for (const auto& e : names(value))
    if (e.value == value) return e.name;
  return "?";
}

template <typename E>
bool enum_from_name(const std::string& name, E* out) {
  for (const auto& e : names(E{})) {
    if (name == e.name) {
      *out = e.value;
      return true;
    }
  }
  return false;
}

template <typename E>
std::string enum_choices() {
  std::string out;
  for (const auto& e : names(E{})) {
    if (!out.empty()) out += " | ";
    out += std::string("\"") + e.name + "\"";
  }
  return out;
}

}  // namespace

const char* to_string(ScenarioFamily f) { return enum_name(f); }

const std::vector<ScenarioFamily>& all_scenario_families() {
  static const std::vector<ScenarioFamily> kAll = {
      ScenarioFamily::kConsensus, ScenarioFamily::kOmega,
      ScenarioFamily::kWeakset,   ScenarioFamily::kEmulation,
      ScenarioFamily::kWeaksetShm, ScenarioFamily::kAbd,
  };
  return kAll;
}

// -------------------------------------------------------- materialization --

EnvParams ScenarioSpec::env_params(std::uint64_t seed) const {
  EnvParams env;
  env.kind = env_kind;
  env.n = n;
  env.seed = seed;
  env.stabilization = stabilization;
  env.max_delay = max_delay;
  env.timely_prob = timely_prob;
  return env;
}

std::vector<Value> materialize_values(const ValueGenSpec& g, std::size_t n) {
  switch (g.kind) {
    case ValueGenSpec::Kind::kDistinct: {
      std::vector<Value> out;
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        out.push_back(Value(g.base + static_cast<std::int64_t>(i)));
      return out;
    }
    case ValueGenSpec::Kind::kIdentical:
      return std::vector<Value>(n, Value(g.base));
    case ValueGenSpec::Kind::kCycle: {
      std::vector<Value> out;
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        out.push_back(Value(g.base + static_cast<std::int64_t>(i % g.period)));
      return out;
    }
    case ValueGenSpec::Kind::kBivalent:
      return BivalentMsModel::initial_values(n);
    case ValueGenSpec::Kind::kExplicit: {
      std::vector<Value> out;
      out.reserve(g.values.size());
      for (std::int64_t v : g.values) out.push_back(Value(v));
      return out;
    }
  }
  return {};
}

std::vector<Value> ScenarioSpec::initial_values() const {
  return materialize_values(initial, n);
}

CrashPlan ScenarioSpec::crash_plan(std::uint64_t seed) const {
  switch (crashes.kind) {
    case CrashGenSpec::Kind::kNone:
      return CrashPlan{};
    case CrashGenSpec::Kind::kExplicit: {
      CrashPlan plan;
      for (const auto& e : crashes.entries) plan.crash_at(e.process, e.round);
      return plan;
    }
    case CrashGenSpec::Kind::kRandom:
      return random_crashes(n, crashes.count, crashes.horizon,
                            seed + crashes.seed_offset);
  }
  return CrashPlan{};
}

// ------------------------------------------------------------ field tables --
//
// Every JSON object of a spec is described by one static table of Field
// entries: its key, the member it maps to, when it is written and any
// single-field range.  The member's type picks its JSON kind (unsigned
// integer, integer, number, boolean, string, enum name, list, or an object
// with its own table).  One set of walkers then encodes (table order is the
// canonical key order), decodes with field-path diagnostics, rejects
// unknown keys, and runs the range checks inside validate_scenario_spec.
// Adding a spec field is one table entry.

namespace {

using Errors = std::vector<SpecError>;

// A dotted field path ("env.faults.churn[1].leave"), linked through the
// walkers' stack frames and rendered only when a diagnostic needs it.
struct Path {
  const Path* parent;  // nullptr at the top level
  const char* key;     // a member, or nullptr for list element `index`
  std::size_t index = 0;

  std::string str() const {
    if (key == nullptr)
      return parent->str() + "[" + std::to_string(index) + "]";
    return parent == nullptr ? key : parent->str() + "." + key;
  }
};

void fail(Errors& errs, const Path& at, std::string message) {
  errs.push_back({at.str(), std::move(message)});
}

// ---- member codecs: the member's type picks its JSON kind ----

template <typename T>
JsonValue to_json(const T& v) {
  if constexpr (std::is_same_v<T, bool>)
    return JsonValue::boolean(v);
  else if constexpr (std::is_unsigned_v<T>)
    return JsonValue::uint(v);
  else if constexpr (std::is_integral_v<T>)
    return JsonValue::integer(v);
  else if constexpr (std::is_floating_point_v<T>)
    return JsonValue::number(v);
  else if constexpr (std::is_enum_v<T>)
    return JsonValue::str(enum_name(v));
  else
    return JsonValue::str(v);
}

template <typename T>
JsonValue to_json(const std::vector<T>& xs) {
  JsonValue arr = JsonValue::array();
  for (const T& x : xs) arr.push(to_json(x));
  return arr;
}

// Absent fields keep the struct's value (specs are sparse-friendly);
// present-but-mistyped ones are diagnosed at their path.
template <typename T>
void from_json(Errors& errs, const JsonValue& v, const Path& at, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return fail(errs, at, "must be a boolean");
    *out = v.as_bool();
  } else if constexpr (std::is_unsigned_v<T>) {
    if (!v.is_uint()) return fail(errs, at, "must be a non-negative integer");
    *out = static_cast<T>(v.as_uint());
  } else if constexpr (std::is_integral_v<T>) {
    if (!v.is_int()) return fail(errs, at, "must be an integer");
    *out = v.as_int();
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!v.is_number()) return fail(errs, at, "must be a number");
    *out = v.as_double();
  } else if constexpr (std::is_enum_v<T>) {
    if (!v.is_string())
      return fail(errs, at, "must be one of " + enum_choices<T>());
    if (!enum_from_name(v.as_string(), out))
      fail(errs, at, "unknown value \"" + v.as_string() + "\" — expected " +
                         enum_choices<T>());
  } else {
    if (!v.is_string()) return fail(errs, at, "must be a string");
    *out = v.as_string();
  }
}

template <typename T>
void from_json(Errors& errs, const JsonValue& v, const Path& at,
               std::vector<T>* out) {
  if (!v.is_array()) return fail(errs, at, "must be an array");
  out->assign(v.items().size(), T{});
  for (std::size_t i = 0; i < v.items().size(); ++i)
    from_json(errs, v.items()[i], Path{&at, nullptr, i}, &(*out)[i]);
}

// ---- single-field ranges ----

enum class Range {
  kAny,
  kAtLeastOne,  // "must be >= 1"
  kOneBased,    // a round number: "rounds are 1-based"
  kUnit,        // a probability: "must be in [0, 1]"
};

template <typename T>
void check_range(Errors& errs, const T& v, const Path& at, Range r) {
  if constexpr (std::is_floating_point_v<T>) {
    if (r == Range::kUnit && (v < 0 || v > 1))
      fail(errs, at, "must be in [0, 1]");
  } else if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) {
    if (r == Range::kAtLeastOne && v == 0) fail(errs, at, "must be >= 1");
    if (r == Range::kOneBased && v == 0) fail(errs, at, "rounds are 1-based");
  }
}

template <typename T>
void check_range(Errors& errs, const std::vector<T>& xs, const Path& at,
                 Range r) {
  for (std::size_t i = 0; i < xs.size(); ++i)
    check_range(errs, xs[i], Path{&at, nullptr, i}, r);
}

// ---- the entry ----

enum class Emit {
  kAlways,      // every encoding carries the key
  kNonDefault,  // only when the member differs from its struct's default
};

template <typename S>
struct Field {
  const char* key;
  // Member access, generated from the member's type by field<>, object<>,
  // objects<> and group<> below.
  JsonValue (*encode)(const S&);
  void (*decode)(Errors&, const JsonValue&, const Path&, S*);
  void (*check)(Errors&, const S&, const Path&, Range);
  bool (*is_default)(const S&);
  // The entry's rules.
  Emit emit = Emit::kAlways;
  Range range = Range::kAny;
  // A predicate on siblings listed (and so decoded) earlier: while it is
  // false the field is not encoded, not range-checked, and a present key
  // is diagnosed with `why`.  In the ScenarioSpec tables `why` may name
  // the spec's family as "{family}".
  bool (*when)(const S&) = nullptr;
  const char* why = nullptr;

  constexpr Field if_changed() const {
    Field f = *this;
    f.emit = Emit::kNonDefault;
    return f;
  }
  constexpr Field must_be(Range r) const {
    Field f = *this;
    f.range = r;
    return f;
  }
  constexpr Field only_if(bool (*pred)(const S&), const char* message) const {
    Field f = *this;
    f.when = pred;
    f.why = message;
    return f;
  }
  bool active(const S& s) const { return when == nullptr || when(s); }
};

template <typename S>
std::string reason(const char* why, const S&) {
  return why;
}

std::string reason(const char* why, const ScenarioSpec& spec) {
  static constexpr std::string_view kFamily = "{family}";
  std::string out = why;
  if (const std::size_t at = out.find(kFamily); at != std::string::npos)
    out.replace(at, kFamily.size(), to_string(spec.family));
  return out;
}

// ---- the walkers ----

template <typename S, std::size_t N>
JsonValue encode_fields(const Field<S> (&table)[N], const S& s) {
  JsonValue obj = JsonValue::object();
  for (const Field<S>& f : table)
    if (f.active(s) && !(f.emit == Emit::kNonDefault && f.is_default(s)))
      obj.set(f.key, f.encode(s));
  return obj;
}

template <typename S, std::size_t N>
void decode_fields(Errors& errs, const Field<S> (&table)[N],
                   const JsonValue& obj, const Path* parent, S* s) {
  for (const auto& [key, value] : obj.entries()) {
    const auto known = [&key](const Field<S>& f) { return key == f.key; };
    if (std::none_of(std::begin(table), std::end(table), known))
      fail(errs, Path{parent, key.c_str()}, "unknown field");
  }
  for (const Field<S>& f : table) {
    const JsonValue* v = obj.find(f.key);
    if (v == nullptr) continue;
    const Path at{parent, f.key};
    if (f.active(*s))
      f.decode(errs, *v, at, s);
    else
      fail(errs, at, reason(f.why, *s));
  }
}

template <typename S, std::size_t N>
void check_fields(Errors& errs, const Field<S> (&table)[N], const S& s,
                  const Path* parent) {
  for (const Field<S>& f : table)
    if (f.active(s)) f.check(errs, s, Path{parent, f.key}, f.range);
}

template <typename S, std::size_t N>
void decode_object(Errors& errs, const Field<S> (&table)[N],
                   const JsonValue& v, const Path& at, S* s) {
  if (v.is_object())
    decode_fields(errs, table, v, &at, s);
  else
    fail(errs, at, "must be an object");
}

// ---- entry factories ----

template <typename S, typename T>
S owner_of(T S::*);
template <auto M>
using Owner = decltype(owner_of(M));

// The struct's own member initializers are the only copy of its defaults.
template <typename S>
const S& defaults() {
  static const S kDefaults{};
  return kDefaults;
}

template <auto M, typename S>
bool member_is_default(const S& s) {
  return s.*M == defaults<S>().*M;
}

// A scalar, enum or scalar-list member.
template <auto M, typename S = Owner<M>>
constexpr Field<S> field(const char* key) {
  return {key, [](const S& s) { return to_json(s.*M); },
          [](Errors& errs, const JsonValue& v, const Path& at, S* s) {
            from_json(errs, v, at, &(s->*M));
          },
          [](Errors& errs, const S& s, const Path& at, Range r) {
            check_range(errs, s.*M, at, r);
          },
          member_is_default<M, S>};
}

// A member object described by its own table.
template <auto M, const auto& Sub, typename S = Owner<M>>
constexpr Field<S> object(const char* key) {
  return {key, [](const S& s) { return encode_fields(Sub, s.*M); },
          [](Errors& errs, const JsonValue& v, const Path& at, S* s) {
            decode_object(errs, Sub, v, at, &(s->*M));
          },
          [](Errors& errs, const S& s, const Path& at, Range) {
            check_fields(errs, Sub, s.*M, &at);
          },
          member_is_default<M, S>};
}

// A list of objects sharing one table.  A non-object element's diagnostic
// spells out the table's keys.
template <auto M, const auto& Sub, typename S = Owner<M>>
constexpr Field<S> objects(const char* key) {
  return {key,
          [](const S& s) {
            JsonValue arr = JsonValue::array();
            for (const auto& e : s.*M) arr.push(encode_fields(Sub, e));
            return arr;
          },
          [](Errors& errs, const JsonValue& v, const Path& at, S* s) {
            if (!v.is_array()) return fail(errs, at, "must be an array");
            auto& out = s->*M;
            out.assign(v.items().size(), {});
            for (std::size_t i = 0; i < out.size(); ++i) {
              const Path elem{&at, nullptr, i};
              if (v.items()[i].is_object()) {
                decode_fields(errs, Sub, v.items()[i], &elem, &out[i]);
                continue;
              }
              std::string keys;
              for (const auto& f : Sub) keys += (keys.empty() ? "" : ", ") +
                                                std::string(f.key);
              fail(errs, elem, "must be an object {" + keys + "}");
            }
          },
          [](Errors& errs, const S& s, const Path& at, Range) {
            for (std::size_t i = 0; i < (s.*M).size(); ++i) {
              const Path elem{&at, nullptr, i};
              check_fields(errs, Sub, (s.*M)[i], &elem);
            }
          },
          member_is_default<M, S>};
}

// A JSON object grouping members of the enclosing struct itself: the
// flat ScenarioSpec's `env` and `workload`.  Always encoded.
template <typename S, const auto& Sub>
constexpr Field<S> group(const char* key) {
  return {key, [](const S& s) { return encode_fields(Sub, s); },
          [](Errors& errs, const JsonValue& v, const Path& at, S* s) {
            decode_object(errs, Sub, v, at, s);
          },
          [](Errors& errs, const S& s, const Path& at, Range) {
            check_fields(errs, Sub, s, &at);
          },
          nullptr};
}

// ---- the tables, innermost first ----

bool has_base(const ValueGenSpec& g) {
  return g.kind == ValueGenSpec::Kind::kDistinct ||
         g.kind == ValueGenSpec::Kind::kIdentical ||
         g.kind == ValueGenSpec::Kind::kCycle;
}
bool is_cycle(const ValueGenSpec& g) {
  return g.kind == ValueGenSpec::Kind::kCycle;
}
bool is_explicit(const ValueGenSpec& g) {
  return g.kind == ValueGenSpec::Kind::kExplicit;
}

// Consensus/omega proposals (workload.initial) and emulation probe seeds.
constexpr Field<ValueGenSpec> kValueGenFields[] = {
    field<&ValueGenSpec::kind>("kind"),
    field<&ValueGenSpec::base>("base").only_if(has_base,
                                               "not valid for this kind"),
    field<&ValueGenSpec::period>("period")
        .only_if(is_cycle, "only valid for kind \"cycle\"")
        .must_be(Range::kAtLeastOne),
    field<&ValueGenSpec::values>("values")
        .only_if(is_explicit, "only valid for kind \"explicit\""),
};

bool explicit_crashes(const CrashGenSpec& c) {
  return c.kind == CrashGenSpec::Kind::kExplicit;
}
bool random_crashes(const CrashGenSpec& c) {
  return c.kind == CrashGenSpec::Kind::kRandom;
}

constexpr Field<CrashEntrySpec> kCrashEntryFields[] = {
    field<&CrashEntrySpec::process>("process"),
    field<&CrashEntrySpec::round>("round").must_be(Range::kOneBased),
};

constexpr Field<CrashGenSpec> kCrashFields[] = {
    field<&CrashGenSpec::kind>("kind"),
    objects<&CrashGenSpec::entries, kCrashEntryFields>("entries")
        .only_if(explicit_crashes, "only valid for kind \"explicit\""),
    field<&CrashGenSpec::count>("count")
        .only_if(random_crashes, "only valid for kind \"random\""),
    field<&CrashGenSpec::horizon>("horizon")
        .only_if(random_crashes, "only valid for kind \"random\"")
        .must_be(Range::kAtLeastOne),
    field<&CrashGenSpec::seed_offset>("seed_offset")
        .only_if(random_crashes, "only valid for kind \"random\""),
};

constexpr Field<ChurnSpec> kChurnFields[] = {
    field<&ChurnSpec::process>("process"),
    field<&ChurnSpec::leave>("leave").must_be(Range::kOneBased),
    field<&ChurnSpec::rejoin>("rejoin").if_changed(),
};

// Defaults-elided field by field (and the object itself only attached to
// env when anything differs), so fault-free specs never mention faults.
constexpr Field<FaultParams> kFaultFields[] = {
    field<&FaultParams::seed>("seed").if_changed(),
    field<&FaultParams::loss_prob>("loss_prob").if_changed().must_be(
        Range::kUnit),
    field<&FaultParams::dup_prob>("dup_prob").if_changed().must_be(
        Range::kUnit),
    // A same-round copy would be invisible: inbox views are sets.
    field<&FaultParams::dup_extra_delay>("dup_extra_delay")
        .if_changed()
        .must_be(Range::kAtLeastOne),
    field<&FaultParams::reorder_prob>("reorder_prob")
        .if_changed()
        .must_be(Range::kUnit),
    field<&FaultParams::max_extra_delay>("max_extra_delay").if_changed(),
    field<&FaultParams::omission_senders>("omission_senders").if_changed(),
    objects<&FaultParams::churn, kChurnFields>("churn").if_changed(),
    field<&FaultParams::exempt_source>("exempt_source").if_changed(),
};

// Defaults-elided like the fault plan; only attached for transport "live".
constexpr Field<LiveSpecSection> kLiveFields[] = {
    field<&LiveSpecSection::socket>("socket").if_changed(),
    field<&LiveSpecSection::period_ms>("period_ms")
        .if_changed()
        .must_be(Range::kAtLeastOne),
    field<&LiveSpecSection::jitter_ms>("jitter_ms").if_changed(),
    field<&LiveSpecSection::loss>("loss").if_changed().must_be(Range::kUnit),
    field<&LiveSpecSection::op_timeout_ms>("op_timeout_ms")
        .if_changed()
        .must_be(Range::kAtLeastOne),
    field<&LiveSpecSection::clients>("clients")
        .if_changed()
        .must_be(Range::kAtLeastOne),
    field<&LiveSpecSection::watchdog_rounds>("watchdog_rounds").if_changed(),
};

bool observes_rounds(const ConsensusSpecSection& c) {
  return c.probe != ConsensusSpecSection::Probe::kDecision;
}

// engine_threads and watchdog_rounds stay implicit at their defaults, so
// specs written before either knob existed encode unchanged.
constexpr Field<ConsensusSpecSection> kConsensusFields[] = {
    field<&ConsensusSpecSection::algo>("algo"),
    field<&ConsensusSpecSection::backend>("backend"),
    field<&ConsensusSpecSection::engine_threads>("engine_threads")
        .if_changed(),
    field<&ConsensusSpecSection::schedule>("schedule"),
    field<&ConsensusSpecSection::probe>("probe"),
    field<&ConsensusSpecSection::horizon>("horizon")
        .only_if(observes_rounds, "only valid for non-decision probes")
        .must_be(Range::kAtLeastOne),
    field<&ConsensusSpecSection::gc_counters>("gc_counters"),
    field<&ConsensusSpecSection::max_rounds>("max_rounds")
        .must_be(Range::kAtLeastOne),
    field<&ConsensusSpecSection::watchdog_rounds>("watchdog_rounds")
        .if_changed(),
    field<&ConsensusSpecSection::record_trace>("record_trace"),
    field<&ConsensusSpecSection::record_deliveries>("record_deliveries"),
    field<&ConsensusSpecSection::validate_env>("validate_env"),
};

bool probes_convergence(const OmegaSpecSection& o) {
  return o.probe == OmegaSpecSection::Probe::kLeaderConvergence;
}

constexpr Field<OmegaSpecSection> kOmegaFields[] = {
    field<&OmegaSpecSection::probe>("probe"),
    field<&OmegaSpecSection::silence_threshold>("silence_threshold"),
    field<&OmegaSpecSection::horizon>("horizon")
        .only_if(probes_convergence,
                 "only valid for probe \"leader-convergence\"")
        .must_be(Range::kAtLeastOne),
    field<&OmegaSpecSection::max_rounds>("max_rounds")
        .must_be(Range::kAtLeastOne),
};

bool is_mutation(const WeaksetOpSpec& op) { return op.is_mutation; }

constexpr Field<WeaksetOpSpec> kWeaksetOpFields[] = {
    field<&WeaksetOpSpec::round>("round").must_be(Range::kOneBased),
    field<&WeaksetOpSpec::process>("process"),
    field<&WeaksetOpSpec::is_mutation>("mutate"),
    field<&WeaksetOpSpec::value>("value").only_if(is_mutation,
                                                  "only valid for mutations"),
};

bool generated_ops(const WeaksetSpecSection& w) { return w.script.empty(); }

constexpr Field<WeaksetSpecSection> kWeaksetFields[] = {
    field<&WeaksetSpecSection::mode>("mode"),
    field<&WeaksetSpecSection::backend>("backend").if_changed(),
    field<&WeaksetSpecSection::engine_threads>("engine_threads").if_changed(),
    objects<&WeaksetSpecSection::script, kWeaksetOpFields>("script")
        .if_changed(),
    field<&WeaksetSpecSection::gen_ops>("gen_ops")
        .only_if(generated_ops, "mutually exclusive with an explicit script")
        .must_be(Range::kAtLeastOne),
    field<&WeaksetSpecSection::extra_rounds>("extra_rounds"),
    field<&WeaksetSpecSection::validate_env>("validate_env"),
    field<&WeaksetSpecSection::keep_records>("keep_records"),
};

constexpr Field<EmulationAddSpec> kEmulationAddFields[] = {
    field<&EmulationAddSpec::process>("process"),
    field<&EmulationAddSpec::value>("value"),
};

// backend, engine_threads, skew, adds, probe_values and certify stay
// implicit at their defaults (probe_values' is the historical echo seeds
// 0..n-1).
constexpr Field<EmulationSpecSection> kEmulationFields[] = {
    field<&EmulationSpecSection::inner>("inner"),
    field<&EmulationSpecSection::backend>("backend").if_changed(),
    field<&EmulationSpecSection::engine_threads>("engine_threads")
        .if_changed(),
    field<&EmulationSpecSection::rounds>("rounds").must_be(Range::kAtLeastOne),
    field<&EmulationSpecSection::min_add_latency>("min_add_latency"),
    field<&EmulationSpecSection::max_add_latency>("max_add_latency"),
    field<&EmulationSpecSection::skew>("skew").if_changed().must_be(
        Range::kAtLeastOne),
    field<&EmulationSpecSection::max_ticks>("max_ticks"),
    objects<&EmulationSpecSection::adds, kEmulationAddFields>("adds")
        .if_changed(),
    object<&EmulationSpecSection::probe_values, kValueGenFields>(
        "probe_values")
        .if_changed(),
    field<&EmulationSpecSection::certify>("certify").if_changed(),
};

bool is_mwmr(const ShmSpecSection& s) {
  return s.construction == ShmSpecSection::Construction::kMwmr;
}

constexpr Field<ShmSpecSection> kShmFields[] = {
    field<&ShmSpecSection::construction>("construction"),
    field<&ShmSpecSection::gen_ops>("gen_ops").must_be(Range::kAtLeastOne),
    field<&ShmSpecSection::domain>("domain").must_be(Range::kAtLeastOne),
    field<&ShmSpecSection::writers>("writers")
        .only_if(is_mwmr, "only valid for construction \"mwmr\"")
        .must_be(Range::kAtLeastOne),
};

constexpr Field<AbdSpecSection> kAbdFields[] = {
    field<&AbdSpecSection::crash_prefix>("crash_prefix"),
    field<&AbdSpecSection::write_value>("write_value"),
};

// EnvParams minus the seed, which comes from `seeds`.
constexpr Field<ScenarioSpec> kEnvFields[] = {
    field<&ScenarioSpec::env_kind>("kind"),
    field<&ScenarioSpec::n>("n").must_be(Range::kAtLeastOne),
    field<&ScenarioSpec::stabilization>("stabilization"),
    field<&ScenarioSpec::max_delay>("max_delay"),
    field<&ScenarioSpec::timely_prob>("timely_prob").must_be(Range::kUnit),
    object<&ScenarioSpec::faults, kFaultFields>("faults").if_changed(),
};

bool has_workload(const ScenarioSpec& s) {
  return s.family == ScenarioFamily::kConsensus ||
         s.family == ScenarioFamily::kOmega ||
         s.family == ScenarioFamily::kWeakset;
}

bool has_initial(const ScenarioSpec& s) {
  return s.family == ScenarioFamily::kConsensus ||
         s.family == ScenarioFamily::kOmega;
}

constexpr Field<ScenarioSpec> kWorkloadFields[] = {
    object<&ScenarioSpec::initial, kValueGenFields>("initial")
        .only_if(has_initial, "not valid for family \"{family}\""),
    object<&ScenarioSpec::crashes, kCrashFields>("crashes"),
};

bool is_live(const ScenarioSpec& s) {
  return s.transport == TransportKind::kLive;
}

template <ScenarioFamily F>
bool is_family(const ScenarioSpec& s) {
  return s.family == F;
}

// Exactly one family section is encoded: the spec's own.  Sim specs stay
// byte-identical to their pre-live encoding: `transport` and `live` only
// appear for the live backend.
constexpr Field<ScenarioSpec> kSpecFields[] = {
    field<&ScenarioSpec::name>("name"),
    field<&ScenarioSpec::family>("family"),
    field<&ScenarioSpec::seeds>("seeds"),
    field<&ScenarioSpec::transport>("transport").if_changed(),
    group<ScenarioSpec, kEnvFields>("env"),
    object<&ScenarioSpec::live, kLiveFields>("live").if_changed().only_if(
        is_live, "only valid for transport \"live\""),
    group<ScenarioSpec, kWorkloadFields>("workload")
        .only_if(has_workload, "not valid for family \"{family}\""),
    object<&ScenarioSpec::consensus, kConsensusFields>("consensus")
        .only_if(is_family<ScenarioFamily::kConsensus>,
                 "section belongs to family \"consensus\" but this spec's "
                 "family is \"{family}\""),
    object<&ScenarioSpec::omega, kOmegaFields>("omega")
        .only_if(is_family<ScenarioFamily::kOmega>,
                 "section belongs to family \"omega\" but this spec's "
                 "family is \"{family}\""),
    object<&ScenarioSpec::weakset, kWeaksetFields>("weakset")
        .only_if(is_family<ScenarioFamily::kWeakset>,
                 "section belongs to family \"weakset\" but this spec's "
                 "family is \"{family}\""),
    object<&ScenarioSpec::emulation, kEmulationFields>("emulation")
        .only_if(is_family<ScenarioFamily::kEmulation>,
                 "section belongs to family \"emulation\" but this spec's "
                 "family is \"{family}\""),
    object<&ScenarioSpec::shm, kShmFields>("shm")
        .only_if(is_family<ScenarioFamily::kWeaksetShm>,
                 "section belongs to family \"weakset-shm\" but this spec's "
                 "family is \"{family}\""),
    object<&ScenarioSpec::abd, kAbdFields>("abd")
        .only_if(is_family<ScenarioFamily::kAbd>,
                 "section belongs to family \"abd\" but this spec's family "
                 "is \"{family}\""),
};

}  // namespace

// ---------------------------------------------------------- encode / decode --

JsonValue encode_scenario_spec(const ScenarioSpec& spec) {
  return encode_fields(kSpecFields, spec);
}

std::string scenario_spec_to_json(const ScenarioSpec& spec) {
  return encode_scenario_spec(spec).dump() + "\n";
}

std::string SpecDecodeResult::errors_to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) os << "\n";
    os << errors[i].to_string();
  }
  return os.str();
}

SpecDecodeResult decode_scenario_spec(const JsonValue& doc) {
  SpecDecodeResult res;
  if (!doc.is_object()) {
    res.errors.push_back({"", "spec must be a JSON object"});
    return res;
  }
  ScenarioSpec spec;
  decode_fields(res.errors, kSpecFields, doc, nullptr, &spec);
  if (res.errors.empty()) res.errors = validate_scenario_spec(spec);
  if (res.errors.empty()) res.spec = std::move(spec);
  return res;
}

SpecDecodeResult parse_scenario_spec(std::string_view json_text) {
  auto parsed = JsonValue::parse(json_text);
  if (!parsed.value.has_value()) {
    SpecDecodeResult res;
    res.errors.push_back(
        {"(json)", parsed.error + " at line " + std::to_string(parsed.line) +
                       ", column " + std::to_string(parsed.column)});
    return res;
  }
  return decode_scenario_spec(*parsed.value);
}

std::vector<SpecError> set_scenario_field(ScenarioSpec* spec,
                                          std::string_view path,
                                          std::string_view text) {
  auto parsed = JsonValue::parse(text);
  JsonValue doc = parsed.value.has_value() ? std::move(*parsed.value)
                                           : JsonValue::str(std::string(text));
  // Nest the value under the path's keys, innermost first, and decode that
  // sparse document onto the spec: every other field keeps its value.
  for (std::size_t end = path.size();;) {
    const std::size_t dot = path.substr(0, end).rfind('.');
    const std::size_t begin = dot == std::string_view::npos ? 0 : dot + 1;
    JsonValue obj = JsonValue::object();
    obj.set(std::string(path.substr(begin, end - begin)), std::move(doc));
    doc = std::move(obj);
    if (dot == std::string_view::npos) break;
    end = dot;
  }
  Errors errs;
  decode_fields(errs, kSpecFields, doc, nullptr, spec);
  return errs;
}

// ---------------------------------------------------------------- validate --

bool family_live_supported(ScenarioFamily f) {
  // The anonsvc daemon serves the paper's three objects: consensus,
  // weak-set add/get, and the ABD register.
  return f == ScenarioFamily::kConsensus || f == ScenarioFamily::kWeakset ||
         f == ScenarioFamily::kAbd;
}

std::vector<SpecError> validate_scenario_spec(const ScenarioSpec& spec) {
  std::vector<SpecError> errs;
  auto err = [&](const std::string& path, const std::string& msg) {
    errs.push_back({path, msg});
  };
  const std::string env_n = "env.n = " + std::to_string(spec.n);
  auto out_of_range = [&](std::size_t p) {
    return "process " + std::to_string(p) + " out of range (" + env_n + ")";
  };
  auto size_mismatch = [&](std::size_t size) {
    return "has " + std::to_string(size) + " entries but env.n is " +
           std::to_string(spec.n);
  };

  // Single-field ranges come from the tables; the cross-field rules below
  // are hand-written.
  check_fields(errs, kSpecFields, spec, nullptr);
  if (spec.seeds.empty()) err("seeds", "at least one seed is required");

  // Live transport consistency.
  if (spec.transport == TransportKind::kLive) {
    if (!family_live_supported(spec.family))
      err("transport", "the live service serves the consensus, weakset and "
                       "abd families");
    if (spec.env_kind != EnvKind::kES)
      err("env.kind", "the live pacemaker realizes the ES round-source "
                      "property — set \"es\"");
    if (spec.faults.active())
      err("env.faults", "the live transport models faults with live.loss / "
                        "live.jitter_ms");
    if (spec.family == ScenarioFamily::kConsensus) {
      if (spec.consensus.schedule != ConsensusSpecSection::Schedule::kEnv)
        err("consensus.schedule",
            "live rounds are paced by wall-clock deadlines — adversarial "
            "schedules are sim-only; set \"env\"");
      if (spec.consensus.probe != ConsensusSpecSection::Probe::kDecision)
        err("consensus.probe", "the live service observes decisions only");
    }
    if (spec.family == ScenarioFamily::kWeakset) {
      if (spec.weakset.mode != WeaksetSpecSection::Mode::kSet)
        err("weakset.mode",
            "the live register is the abd family — set mode \"set\"");
      if (!spec.weakset.script.empty())
        err("weakset.script", "live adds are generated (weakset.gen_ops "
                              "spread across live.clients) — leave empty");
    }
    if (spec.live.loss > 0 && spec.live.socket == LiveSpecSection::Socket::kTcp)
      err("live.loss",
          "TCP inbound cannot attribute senders, so the exempt-source "
          "safety contract is unenforceable under loss — use socket "
          "\"udp\"");
  } else if (!(spec.live == LiveSpecSection{})) {
    err("live", "only valid for transport \"live\"");
  }

  // Fault plan consistency (env.faults).
  {
    const FaultParams& f = spec.faults;
    if (f.reorder_prob > 0 && f.max_extra_delay == 0)
      err("env.faults.max_extra_delay", "must be >= 1 when reorder_prob > 0");
    for (std::size_t i = 0; i < f.omission_senders.size(); ++i)
      if (f.omission_senders[i] >= spec.n)
        err("env.faults.omission_senders[" + std::to_string(i) + "]",
            out_of_range(f.omission_senders[i]));
    for (std::size_t i = 0; i < f.churn.size(); ++i) {
      const ChurnSpec& c = f.churn[i];
      const std::string path = "env.faults.churn[" + std::to_string(i) + "]";
      if (c.process >= spec.n)
        err(path + ".process", out_of_range(c.process));
      if (c.rejoin != 0 && c.rejoin <= c.leave)
        err(path + ".rejoin",
            "must be > leave (or 0 for a permanent departure)");
    }
    if (f.active()) {
      switch (spec.family) {
        case ScenarioFamily::kConsensus:
          if (spec.consensus.schedule != ConsensusSpecSection::Schedule::kEnv)
            err("env.faults",
                "fault plans run on the env schedule (the adversarial "
                "schedules are their own fault model)");
          else if (spec.consensus.probe !=
                   ConsensusSpecSection::Probe::kDecision)
            err("env.faults", "fault plans observe the decision probe");
          break;
        case ScenarioFamily::kWeakset:
          break;  // both backends thread FaultPlan through the harness
        case ScenarioFamily::kEmulation:
          break;
        case ScenarioFamily::kAbd:
          // The async point-to-point net takes loss/dup/reorder/omission
          // (AsyncNet::set_faults, keyed on message sequence); churn is a
          // round-window concept and this network has no rounds.
          if (!f.churn.empty())
            err("env.faults.churn",
                "churn windows are round-based; the abd family's async "
                "network has no rounds");
          break;
        default:
          err("env.faults",
              "fault plans are wired into the consensus, weakset, emulation "
              "and abd families");
          break;
      }
    }
  }

  // Workload consistency.
  if (has_initial(spec) && spec.initial.kind == ValueGenSpec::Kind::kExplicit &&
      spec.initial.values.size() != spec.n)
    err("workload.initial.values", size_mismatch(spec.initial.values.size()));
  if (has_workload(spec)) {
    if (spec.crashes.kind == CrashGenSpec::Kind::kExplicit) {
      std::set<std::size_t> victims;
      for (std::size_t i = 0; i < spec.crashes.entries.size(); ++i) {
        const auto& e = spec.crashes.entries[i];
        const std::string path =
            "workload.crashes.entries[" + std::to_string(i) + "]";
        if (e.process >= spec.n)
          err(path + ".process", out_of_range(e.process));
        else
          victims.insert(e.process);
      }
      if (victims.size() >= spec.n)
        err("workload.crashes.entries",
            "must leave at least one correct process (" + env_n + ")");
    }
    if (spec.crashes.kind == CrashGenSpec::Kind::kRandom &&
        spec.crashes.count >= spec.n)
      err("workload.crashes.count",
          "must leave at least one correct process (" + env_n + ")");
  }

  // Only the cohort engines shard a run; the expanded engines are serial,
  // so a thread count there would be silently ignored.
  auto threads_need_cohort = [&](const char* family, bool cohort,
                                 std::size_t engine_threads) {
    if (!cohort && engine_threads != 1)
      err(std::string(family) + ".engine_threads",
          "only the cohort backend runs on several engine threads — set 1 "
          "or backend \"cohort\"");
  };

  switch (spec.family) {
    case ScenarioFamily::kConsensus: {
      const auto& c = spec.consensus;
      threads_need_cohort("consensus",
                          c.backend == ConsensusBackend::kCohort,
                          c.engine_threads);
      const bool adversarial =
          c.schedule != ConsensusSpecSection::Schedule::kEnv;
      if (c.backend == ConsensusBackend::kCohort) {
        if (c.record_trace || c.validate_env)
          err("consensus.backend",
              "the cohort backend records no trace to certify — set "
              "consensus.record_trace = false and consensus.validate_env = "
              "false");
        if (adversarial)
          err("consensus.schedule",
              "adversarial schedules require the expanded backend");
        if (c.probe != ConsensusSpecSection::Probe::kDecision)
          err("consensus.probe",
              "non-decision probes require the expanded backend");
      }
      const bool bivalent =
          c.schedule == ConsensusSpecSection::Schedule::kBivalentMs ||
          c.schedule == ConsensusSpecSection::Schedule::kBivalentUntilGst;
      if (bivalent && spec.initial.kind != ValueGenSpec::Kind::kBivalent)
        err("workload.initial.kind",
            std::string("schedule \"") + enum_name(c.schedule) +
                "\" requires kind \"bivalent\"");
      if (bivalent && spec.n < 3)
        err("env.n", "the two-camp schedules need env.n >= 3 (one camp-A "
                     "process and at least two in camp B)");
      if (adversarial && c.algo != ConsensusAlgo::kEs)
        err("consensus.algo",
            std::string("schedule \"") + enum_name(c.schedule) +
                "\" drives Algorithm 2 — set algo \"es\"");
      if (spec.initial.kind == ValueGenSpec::Kind::kBivalent &&
          c.schedule != ConsensusSpecSection::Schedule::kBivalentMs &&
          c.schedule != ConsensusSpecSection::Schedule::kBivalentUntilGst)
        err("workload.initial.kind",
            "kind \"bivalent\" pairs with the bivalent schedules");
      if (c.probe != ConsensusSpecSection::Probe::kDecision) {
        if (c.algo != ConsensusAlgo::kEss)
          err("consensus.algo",
              std::string("probe \"") + enum_name(c.probe) +
                  "\" observes Algorithm 3 — set algo \"ess\"");
        if (adversarial)
          err("consensus.schedule",
              "non-decision probes run on the env schedule");
      }
      if (c.probe == ConsensusSpecSection::Probe::kLeaderConvergence &&
          spec.env_kind != EnvKind::kESS)
        err("env.kind",
            "the leader-convergence probe measures stabilization on the "
            "eventual source — only ESS has one; set \"ess\"");
      if (c.gc_counters && c.algo != ConsensusAlgo::kEss)
        err("consensus.gc_counters", "the counter GC extension is ESS-only");
      if (adversarial && spec.crashes.kind != CrashGenSpec::Kind::kNone)
        err("workload.crashes.kind",
            "adversarial schedules run crash-free (the schedule is the "
            "adversary)");
      break;
    }
    case ScenarioFamily::kOmega: {
      const auto& o = spec.omega;
      if (o.probe == OmegaSpecSection::Probe::kLeaderConvergence &&
          spec.env_kind != EnvKind::kESS)
        err("env.kind",
            "the leader-convergence probe measures stabilization on the "
            "eventual source — only ESS has one; set \"ess\"");
      break;
    }
    case ScenarioFamily::kWeakset: {
      // Any MS-class environment is fine (ES/ESS are strictly stronger
      // than the MS assumption Algorithm 4 needs).
      const auto& w = spec.weakset;
      threads_need_cohort("weakset",
                          w.backend == WeaksetSpecSection::Backend::kCohort,
                          w.engine_threads);
      for (std::size_t i = 0; i < w.script.size(); ++i)
        if (w.script[i].process >= spec.n)
          err("weakset.script[" + std::to_string(i) + "].process",
              out_of_range(w.script[i].process));
      if (w.mode == WeaksetSpecSection::Mode::kRegister && spec.n < 3 &&
          w.gen_ops > 0)
        err("env.n", "the generated register workload reads via process 2 — "
                     "needs env.n >= 3");
      if (w.backend == WeaksetSpecSection::Backend::kCohort && w.validate_env)
        err("weakset.validate_env",
            "backend \"cohort\" records no per-process trace — set false");
      break;
    }
    case ScenarioFamily::kEmulation: {
      const auto& e = spec.emulation;
      threads_need_cohort("emulation",
                          e.backend == EmulationSpecSection::Backend::kCohort,
                          e.engine_threads);
      if (spec.env_kind != EnvKind::kMS)
        err("env.kind",
            "the emulation family produces an MS environment — set \"ms\"");
      if (spec.stabilization != 0)
        err("env.stabilization", "the emulated environment has no GST — must "
                                 "be 0");
      if (e.min_add_latency > e.max_add_latency)
        err("emulation.min_add_latency", "must be <= max_add_latency");
      if (!e.skew.empty() && e.skew.size() != spec.n)
        err("emulation.skew", size_mismatch(e.skew.size()));
      if (!e.adds.empty() && e.inner != EmulationSpecSection::Inner::kWeakset)
        err("emulation.adds", "only valid for inner \"weakset\"");
      for (std::size_t i = 0; i < e.adds.size(); ++i)
        if (e.adds[i].process >= spec.n)
          err("emulation.adds[" + std::to_string(i) + "].process",
              out_of_range(e.adds[i].process));
      if (e.backend == EmulationSpecSection::Backend::kCohort && e.certify)
        err("emulation.certify",
            "backend \"cohort\" records no trace to certify — set false");
      if (!(e.probe_values == defaults<EmulationSpecSection>().probe_values)) {
        if (e.inner != EmulationSpecSection::Inner::kEcho)
          err("emulation.probe_values", "only valid for inner \"echo\"");
        if (e.probe_values.kind == ValueGenSpec::Kind::kBivalent)
          err("emulation.probe_values.kind",
              "\"bivalent\" shapes consensus proposals, not probe seeds");
        if (e.probe_values.kind == ValueGenSpec::Kind::kExplicit &&
            e.probe_values.values.size() != spec.n)
          err("emulation.probe_values.values",
              size_mismatch(e.probe_values.values.size()));
      }
      break;
    }
    case ScenarioFamily::kWeaksetShm:
      break;  // single-field ranges only
    case ScenarioFamily::kAbd: {
      if (spec.abd.crash_prefix >= spec.n)
        err("abd.crash_prefix",
            "must leave at least one live process (" + env_n + ")");
      break;
    }
  }
  return errs;
}

}  // namespace anon

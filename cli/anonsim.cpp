// anonsim — the one scenario driver.
//
//   anonsim list                         families + named presets
//   anonsim describe <preset>            canonical spec JSON to stdout
//   anonsim run --preset e1 [--threads N] [--json out.json] [--no-timing]
//   anonsim run --spec file.json ...     same, from a spec file
//   anonsim schema --preset e1 [...]     sorted report key paths (CI golden)
//
// Multi-seed specs shard across worker threads (--threads, default: one
// per hardware thread); the report is identical at any thread count.
// Consensus, weakset and emulation specs on the cohort backend
// additionally parallelize inside each run (--engine-threads, default: the
// spec's own value; 0 = one per hardware thread) — also byte-identical at
// any setting; the expanded engines are serial, so any value but 1 there
// is an invalid spec.  --backend switches those families between the
// expanded and cohort engines (cohort turns the trace surfaces off —
// validate_env, certify, record_trace — since it never materializes
// per-process traces); `anonsim describe` notes each preset's backend
// support.
// Fault injection (env/faults.hpp) can be layered onto any consensus spec
// from the command line: `--faults loss_prob=0.1,reorder_prob=0.2` patches
// env.faults fields after the spec loads (list-valued fields —
// omission_senders, churn — need a spec file), and `--watchdog N` arms the
// no-progress watchdog so fault-starved runs end `undecided` instead of
// spinning to max_rounds.  Every flag that sets a spec field hands its
// text to the spec tables (set_scenario_field), so a value on the command
// line is parsed and diagnosed exactly like the same value in a spec file.
// `--transport sim|live` switches a spec between the simulators and the
// anonsvc loopback service (real UDP/TCP sockets, one event-loop thread
// per node); only the consensus, weakset and abd families are served live
// — requesting live for any other family is a usage error (exit 2).
// `anonsim describe` notes each preset's transport support next to its
// backend support.
// Exit codes: 0 success, 1 run failed to write output, 2 usage error,
// 3 invalid spec (field-path diagnostics on stderr), 4 at least one cell
// ended undecided and --fail-undecided was given.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/registry.hpp"

namespace {

using namespace anon;

int usage(std::ostream& os, int code) {
  os << "usage:\n"
        "  anonsim list\n"
        "  anonsim describe <preset>\n"
        "  anonsim run  (--preset NAME | --spec FILE) [--threads N]\n"
        "               [--engine-threads N] [--backend expanded|cohort]\n"
        "               [--transport sim|live] [--json OUT] [--no-timing]\n"
        "               [--quiet] [--faults K=V[,K=V...]] [--watchdog N]\n"
        "               [--fail-undecided]\n"
        "  anonsim schema (--preset NAME | --spec FILE) [--threads N]\n";
  return code;
}

int cmd_list() {
  const auto& reg = ScenarioRegistry::instance();
  std::cout << "families:\n";
  for (ScenarioFamily f : all_scenario_families())
    std::cout << "  " << to_string(f)
              << (reg.has_family(f) ? "" : "  (no runner!)") << "\n";
  std::cout << "\npresets:\n";
  std::size_t width = 0;
  for (const auto& p : reg.presets()) width = std::max(width, p.name.size());
  for (const auto& p : reg.presets()) {
    std::cout << "  " << p.name << std::string(width - p.name.size() + 2, ' ')
              << "[" << to_string(p.spec.family) << "] " << p.description
              << "\n";
  }
  return 0;
}

// Which engines `--backend` can switch a family between.  The cohort
// engines execute state-equivalence classes and record no per-process
// traces, so the trace-consuming switches go dark with them.
const char* family_backend_support(ScenarioFamily f) {
  switch (f) {
    case ScenarioFamily::kConsensus:
      return "expanded, cohort (cohort disables trace surfaces)";
    case ScenarioFamily::kWeakset:
      return "expanded, cohort (cohort disables validate_env)";
    case ScenarioFamily::kEmulation:
      return "expanded, cohort (cohort needs engine \"interned\" and "
             "disables certify)";
    default:
      return "expanded only";
  }
}

// Which transports can execute a family: every family runs on the
// simulators; the anonsvc live service hosts the paper's three objects.
const char* family_transport_support(ScenarioFamily f) {
  return family_live_supported(f) ? "sim, live (anonsvc loopback cluster)"
                                  : "sim only";
}

int cmd_describe(const std::string& name) {
  const ScenarioPreset* p = ScenarioRegistry::instance().find_preset(name);
  if (p == nullptr) {
    std::cerr << "anonsim: unknown preset \"" << name
              << "\" (try `anonsim list`)\n";
    return 2;
  }
  // The canonical JSON is the stdout contract (golden files redirect it);
  // the advisory note rides on stderr.
  std::cout << scenario_spec_to_json(p->spec);
  std::cerr << "backends: " << family_backend_support(p->spec.family) << "\n";
  std::cerr << "transports: " << family_transport_support(p->spec.family)
            << "\n";
  return 0;
}

struct RunArgs {
  std::optional<std::string> preset;
  std::optional<std::string> spec_file;
  std::optional<std::string> json_out;
  std::optional<std::string> threads;
  // Spec-field overrides, kept as given: the spec tables decode them once
  // the spec has loaded (apply_overrides).
  std::optional<std::string> engine_threads;  // <family>.engine_threads
  std::optional<std::string> backend;         // <family>.backend
  std::optional<std::string> transport;       // transport
  std::optional<std::string> faults;          // env.faults.K per K=V pair
  std::optional<std::string> watchdog;        // consensus.watchdog_rounds
  bool fail_undecided = false;
  bool no_timing = false;
  bool quiet = false;
};

// Where a value-taking flag's text goes; nullptr for any other argument.
std::optional<std::string>* value_slot(RunArgs* r, const std::string& flag) {
  if (flag == "--preset") return &r->preset;
  if (flag == "--spec") return &r->spec_file;
  if (flag == "--json") return &r->json_out;
  if (flag == "--threads") return &r->threads;
  if (flag == "--engine-threads") return &r->engine_threads;
  if (flag == "--backend") return &r->backend;
  if (flag == "--transport") return &r->transport;
  if (flag == "--faults") return &r->faults;
  if (flag == "--watchdog") return &r->watchdog;
  return nullptr;
}

bool parse_run_args(const std::vector<std::string>& args, RunArgs* out,
                    std::string* error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--fail-undecided") {
      out->fail_undecided = true;
    } else if (a == "--no-timing") {
      out->no_timing = true;
    } else if (a == "--quiet") {
      out->quiet = true;
    } else if (std::optional<std::string>* slot = value_slot(out, a)) {
      if (i + 1 >= args.size()) {
        *error = a + " needs a value";
        return false;
      }
      *slot = args[++i];
    } else {
      *error = "unknown argument " + a;
      return false;
    }
  }
  if (out->threads &&
      (out->threads->empty() ||
       out->threads->find_first_not_of("0123456789") != std::string::npos)) {
    *error = "--threads needs a non-negative integer, got \"" +
             *out->threads + "\"";
    return false;
  }
  if (out->preset.has_value() == out->spec_file.has_value()) {
    *error = "exactly one of --preset / --spec is required";
    return false;
  }
  return true;
}

// 0 on success with *spec filled; 2/3 exit code otherwise.
int load_spec(const RunArgs& args, ScenarioSpec* spec) {
  if (args.preset) {
    const ScenarioPreset* p =
        ScenarioRegistry::instance().find_preset(*args.preset);
    if (p == nullptr) {
      std::cerr << "anonsim: unknown preset \"" << *args.preset
                << "\" (try `anonsim list`)\n";
      return 2;
    }
    *spec = p->spec;
    return 0;
  }
  std::ifstream f(*args.spec_file);
  if (!f) {
    std::cerr << "anonsim: cannot open " << *args.spec_file << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  auto decoded = parse_scenario_spec(buf.str());
  if (!decoded.ok()) {
    std::cerr << "anonsim: " << *args.spec_file << " is not a valid spec:\n";
    for (const auto& e : decoded.errors)
      std::cerr << "  " << e.to_string() << "\n";
    return 3;
  }
  *spec = std::move(*decoded.spec);
  return 0;
}

// Sets the spec field at `path` from a flag's text; false (after printing
// the diagnostics) when the spec tables reject it.
bool set_field(ScenarioSpec* spec, const char* flag, const std::string& path,
               const std::string& text) {
  const auto errors = set_scenario_field(spec, path, text);
  for (const auto& e : errors)
    std::cerr << "anonsim: " << flag << ": " << e.to_string() << "\n";
  return errors.empty();
}

// Applies the command-line overrides; 0, or exit code 2 on a usage error.
int apply_overrides(const RunArgs& args, ScenarioSpec* spec) {
  const bool has_backend = spec->family == ScenarioFamily::kConsensus ||
                           spec->family == ScenarioFamily::kWeakset ||
                           spec->family == ScenarioFamily::kEmulation;
  if ((args.engine_threads || args.backend) && !has_backend) {
    std::cerr << "anonsim: --engine-threads and --backend apply to the "
                 "consensus, weakset and emulation families (intra-run "
                 "sharding, cohort engines), not \""
              << to_string(spec->family) << "\"\n";
    return 2;
  }
  // These three families' section keys are their family names.
  const std::string section = to_string(spec->family);
  if (args.engine_threads &&
      !set_field(spec, "--engine-threads", section + ".engine_threads",
                 *args.engine_threads))
    return 2;
  if (args.backend) {
    if (!set_field(spec, "--backend", section + ".backend", *args.backend))
      return 2;
    // The cohort engines never materialize per-process traces, so the
    // trace surfaces go dark with them (same contract as spec validation
    // enforces).
    auto& c = spec->consensus;
    if (c.backend == ConsensusBackend::kCohort)
      c.record_trace = c.record_deliveries = c.validate_env = false;
    if (spec->weakset.backend == WeaksetSpecSection::Backend::kCohort)
      spec->weakset.validate_env = false;
    if (spec->emulation.backend == EmulationSpecSection::Backend::kCohort)
      spec->emulation.certify = false;
  }
  if (args.transport) {
    if (!set_field(spec, "--transport", "transport", *args.transport))
      return 2;
    if (spec->transport == TransportKind::kSim) spec->live = LiveSpecSection{};
  }
  // Unserved family + live is a usage error (exit 2), whether the request
  // came from --transport or the spec file itself.
  if (spec->transport == TransportKind::kLive &&
      !family_live_supported(spec->family)) {
    std::cerr << "anonsim: transport \"live\" serves the consensus, weakset "
                 "and abd families, not \""
              << to_string(spec->family) << "\"\n";
    return 2;
  }
  if (args.faults) {
    std::istringstream pairs(*args.faults);
    for (std::string pair; std::getline(pairs, pair, ',');) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "anonsim: --faults: expected key=value, got \"" << pair
                  << "\"\n";
        return 2;
      }
      if (!set_field(spec, "--faults", "env.faults." + pair.substr(0, eq),
                     pair.substr(eq + 1)))
        return 2;
    }
  }
  if (args.watchdog && !set_field(spec, "--watchdog",
                                  "consensus.watchdog_rounds", *args.watchdog))
    return 2;
  return 0;
}

int cmd_run(const RunArgs& args, bool schema_only) {
  ScenarioSpec spec;
  if (int rc = load_spec(args, &spec); rc != 0) return rc;
  if (int rc = apply_overrides(args, &spec); rc != 0) return rc;

  ScenarioReport report;
  try {
    const std::size_t threads =
        args.threads ? std::strtoull(args.threads->c_str(), nullptr, 10) : 0;
    report = ScenarioRegistry::instance().run(spec, {.threads = threads});
  } catch (const ScenarioSpecError& e) {
    std::cerr << "anonsim: " << e.what() << "\n";
    return 3;
  }

  if (schema_only) {
    for (const auto& path : report_schema(report.to_json(!args.no_timing)))
      std::cout << path << "\n";
    return 0;
  }

  if (!args.quiet) std::cout << report.summary() << "\n";
  if (args.json_out) {
    std::ofstream out(*args.json_out);
    if (!out || !(out << report.to_json_string(!args.no_timing))) {
      std::cerr << "anonsim: cannot write " << *args.json_out << "\n";
      return 1;
    }
    if (!args.quiet)
      std::cout << "report written to " << *args.json_out << "\n";
  } else if (args.quiet) {
    std::cout << report.to_json_string(!args.no_timing);
  }
  if (args.fail_undecided) {
    for (const auto& c : report.consensus_cells)
      if (c.report.undecided) return 4;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(std::cerr, 2);
  const std::string cmd = args[0];
  args.erase(args.begin());

  if (cmd == "list" && args.empty()) return cmd_list();
  if (cmd == "describe" && args.size() == 1) return cmd_describe(args[0]);
  if (cmd == "run" || cmd == "schema") {
    RunArgs run_args;
    std::string error;
    if (!parse_run_args(args, &run_args, &error)) {
      std::cerr << "anonsim: " << error << "\n";
      return usage(std::cerr, 2);
    }
    return cmd_run(run_args, cmd == "schema");
  }
  if (cmd == "--help" || cmd == "-h" || cmd == "help")
    return usage(std::cout, 0);
  std::cerr << "anonsim: unknown command \"" << cmd << "\"\n";
  return usage(std::cerr, 2);
}

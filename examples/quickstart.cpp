// Quickstart: five anonymous processes agree on a value with Algorithm 2
// in the ES environment — no IDs, no known n, one process crashing
// mid-run.  The whole experiment is one declarative ScenarioSpec run
// through the scenario registry (the same surface every bench and the
// anonsim CLI use).
//
//   $ ./example_quickstart
//
// The same scenario from the command line, no C++ required:
//
//   $ anonsim list                       # every family + named preset
//   $ anonsim describe quickstart        # this scenario as JSON
//   $ anonsim run --preset quickstart    # run it, print the summary
//   $ anonsim describe quickstart > my.json
//   $ $EDITOR my.json                    # tweak n, crashes, seeds, ...
//   $ anonsim run --spec my.json --threads 4 --json report.json
//
// A spec names the family (consensus | omega | weakset | emulation |
// weakset-shm | abd), the environment (MS/ES/ESS, n, GST), the workload
// (initial values, crash plan), the backend and the seed list; the report
// comes back as one tagged JSON document.  Malformed specs return
// field-path diagnostics ("workload.initial.values: has 3 entries but
// env.n is 5") instead of aborting.
//
// What to look for: every surviving process decides the same proposed
// value a couple of rounds after the network stabilizes (GST), and the
// recorded trace is machine-certified to satisfy the ES environment.
#include <iostream>

#include "scenario/registry.hpp"

int main() {
  using namespace anon;

  ScenarioSpec spec;
  spec.name = "quickstart";
  spec.family = ScenarioFamily::kConsensus;
  spec.seeds = {2026};
  spec.env_kind = EnvKind::kES;  // eventually-synchronous network
  spec.n = 5;                    // the simulator knows n; the processes don't
  spec.stabilization = 10;       // GST: all links timely from round 11 on

  // Each anonymous process proposes a value (say, a sensor reading).
  spec.initial.kind = ValueGenSpec::Kind::kExplicit;
  spec.initial.values = {170, 230, 190, 230, 180};

  // One process crashes during round 6, mid-broadcast.
  spec.crashes.kind = CrashGenSpec::Kind::kExplicit;
  spec.crashes.entries = {{/*process=*/3, /*round=*/6}};

  spec.consensus.algo = ConsensusAlgo::kEs;
  spec.consensus.validate_env = true;  // certify the run against ES

  auto scenario = ScenarioRegistry::instance().run(spec);
  const auto& report = scenario.consensus_cells[0].report;

  std::cout << "decided:    " << (report.all_correct_decided ? "yes" : "NO")
            << "\n"
            << "value:      "
            << (report.value ? report.value->to_string() : "-") << "\n"
            << "agreement:  " << (report.agreement ? "ok" : "VIOLATED") << "\n"
            << "validity:   " << (report.validity ? "ok" : "VIOLATED") << "\n"
            << "last decision round: " << report.last_decision_round << "\n"
            << "messages delivered:  " << report.deliveries << "\n"
            << "environment check:   " << report.env_check.to_string() << "\n"
            << "\nreport JSON (what `anonsim run --json` writes):\n"
            << scenario.to_json_string();
  return report.all_correct_decided && report.agreement ? 0 : 1;
}

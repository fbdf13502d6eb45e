// Sensor fusion in an anonymous sensor field — the paper's motivating
// setting (§1): wireless sensors with no IDs, unknown fleet size, crashes.
//
// A field of identical temperature sensors must agree on ONE alarm
// threshold using Algorithm 3 under the ESS assumption (eventually one
// sensor's radio reaches everybody every round — e.g. the one nearest the
// gateway).  Several sensors are identical clones proposing the same
// value (true anonymity: their messages merge); some die mid-protocol.
// The whole field is one declarative ScenarioSpec through the registry.
#include <iostream>

#include "scenario/registry.hpp"

int main() {
  using namespace anon;

  const std::size_t kSensors = 9;

  ScenarioSpec spec;
  spec.name = "sensor-fusion";
  spec.family = ScenarioFamily::kConsensus;
  spec.seeds = {7};
  spec.env_kind = EnvKind::kESS;
  spec.n = kSensors;
  spec.stabilization = 15;  // radio interference settles by round 15
  spec.timely_prob = 0.2;   // flaky links before/besides the source

  // Three clone groups proposing their locally computed threshold; clones
  // are byte-identical processes — the network cannot tell them apart.
  spec.initial.kind = ValueGenSpec::Kind::kExplicit;
  spec.initial.values = {40, 40, 40,            // cluster A
                         55, 55,                // cluster B
                         47, 47, 47, 47};       // cluster C

  // Two sensors run out of battery mid-run (partial final broadcast).
  spec.crashes.kind = CrashGenSpec::Kind::kExplicit;
  spec.crashes.entries = {{1, 9}, {5, 21}};

  spec.consensus.algo = ConsensusAlgo::kEss;
  spec.consensus.validate_env = true;

  const auto scenario = ScenarioRegistry::instance().run(spec);
  const auto& report = scenario.consensus_cells[0].report;

  std::cout << "sensors:           " << kSensors << " (3 anonymous clusters)\n"
            << "crashed:           2 (rounds 9 and 21)\n"
            << "agreed threshold:  "
            << (report.value ? report.value->to_string() : "-") << "\n"
            << "all correct decided: "
            << (report.all_correct_decided ? "yes" : "NO") << "\n"
            << "agreement/validity:  "
            << (report.agreement && report.validity ? "ok" : "VIOLATED")
            << "\n"
            << "rounds to finish:    " << report.last_decision_round << "\n"
            << "environment:         " << report.env_check.to_string() << "\n";

  // The decided threshold is one of the clusters' proposals.
  return report.all_correct_decided && report.agreement && report.validity
             ? 0
             : 1;
}

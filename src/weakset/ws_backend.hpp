// Backend selection for the Algorithm-4 harnesses (weak-set and the
// Proposition-1 register over it).
//
// `kExpanded` drives one GirafProcess per index on a LockstepNet — the
// reference execution, the only one that records a per-process trace (so
// env validation requires it).  `kCohort` drives a CohortNet: every
// process starts in the same state (Algorithm 4 has no initial values), so
// the whole system begins as ONE equivalence class and only the scripted
// operations and delivery asymmetries split it.  Reports are byte-identical
// across backends and across every thread/shard count — the harness loop
// is shared and the engines' stop callbacks fire at the same round points
// (tests/weakset_cohort_test.cpp pins this field-by-field).
//
// Observation discipline for crashed processes: the expanded engine keeps
// a dead process's automaton frozen at its final compute; the cohort
// engine serves the same reads from a death-time clone
// (CohortNet::automaton_view), so in-flight-add polling agrees even when
// an adder crashes mid-operation.
#pragma once

#include <cstddef>

#include "env/faults.hpp"
#include "giraf/types.hpp"

namespace anon {

enum class WsBackend { kExpanded, kCohort };

// Options shared by run_ms_weak_set and run_register_over_ms.
struct WsRunOptions {
  // Rounds to execute beyond the last scripted round (trailing blocking
  // operations need slack to complete).
  Round extra_rounds = 50;
  // Certify the emitted trace against the MS environment definition.
  // Expanded backend only: the cohort engine records no trace (a trace is
  // exactly the per-index expansion it exists to avoid), so backend=cohort
  // requires validate_env=false.
  bool validate_env = true;
  WsBackend backend = WsBackend::kExpanded;
  // Worker-pool participants (0 = one per hardware thread) and shard count
  // (0 = one per participant) of the cohort engine; the expanded engine is
  // serial and ignores both.  Results are byte-identical at any value.
  std::size_t engine_threads = 1;
  std::size_t engine_shards = 0;
  // Link-fault plan (env/faults.hpp), inactive by default.  Both backends
  // honour it: fates are pure in (round, sender, receiver), so the cohort
  // engine degrades by splitting classes, never by approximating.
  FaultParams faults;
};

}  // namespace anon

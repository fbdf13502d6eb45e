// The unified result of running a ScenarioSpec: one tagged report over the
// per-family outcomes with shared rollup metrics, and one JSON emitter.
//
// Everything in the emitted JSON except the "timing" section is a pure
// function of (spec, seeds) — the determinism regression pins that the
// deterministic emission is byte-identical at any thread count.  The
// committed BENCH_E*.json files record fields of this emission
// (bench/anonbench.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/runner.hpp"
#include "scenario/json.hpp"
#include "scenario/spec.hpp"
#include "weakset/weak_set.hpp"
#include "weakset/ws_register.hpp"

namespace anon {

// ---- Per-family per-seed outcomes ------------------------------------------

struct ConsensusCellOutcome {
  ConsensusReport report;
  // Extras by probe/schedule; sentinel values mean "not probed".
  int camps_intact = -1;          // bivalent-ms schedule: both camps alive?
  Round convergence_round = 0;    // leader-convergence probe
  std::uint64_t state_bytes = 0;  // state-growth probe: wire size at horizon
  std::uint64_t counter_entries = 0;  // state-growth probe: |C| at horizon
  bool env_checked = false;       // report.env_check is meaningful
};

struct OmegaCellOutcome {
  bool decided = false;
  Round last_decision_round = 0;
  Round rounds = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t sends = 0;
  std::uint64_t bytes = 0;
  Round convergence_round = 0;  // leader-convergence probe only
};

struct WeaksetCellOutcome {
  bool spec_ok = true;
  std::string violation;
  Round rounds = 0;
  // Set mode.
  std::size_t adds = 0;
  bool all_adds_completed = true;
  std::uint64_t add_latency_total = 0;
  // Register mode.
  std::size_t writes_completed = 0;
  std::uint64_t write_latency_total = 0;
  // Environment certification (validate_env).
  bool env_checked = false;
  bool env_ms_ok = false;
  // keep_records only — not part of the JSON emission.
  std::vector<WsOpRecord> set_records;
  std::vector<RegOpRecord> reg_records;
};

struct EmulationCellOutcome {
  bool ran = false;          // reached the target round within max_ticks
  bool ms_certified = false;
  std::uint64_t trace_deliveries = 0;
  Round rounds_min = 0;      // completed rounds over processes
  Round rounds_max = 0;
  std::uint64_t rounds_total = 0;  // summed over processes
  std::uint64_t ticks = 0;   // virtual time at the last end-of-round
  // Weakset inner only (weakset_inner gates the JSON keys, so a failing
  // run and a passing run of the same spec share one schema).
  bool weakset_inner = false;
  bool adds_completed = false;
  bool all_see = false;      // every process's get contains every added value
};

struct ShmCellOutcome {
  bool spec_ok = true;
  std::string violation;
  std::uint64_t records = 0;
};

struct AbdCellOutcome {
  bool completed = false;    // the probed write finished (majority alive)
  std::uint64_t messages = 0;
  std::uint64_t end_time = 0;
};

// ---- The report -------------------------------------------------------------

struct ScenarioReport {
  std::string name;
  ScenarioFamily family = ScenarioFamily::kConsensus;
  std::vector<std::uint64_t> seeds;

  // Shared rollup over all cells (transport totals where the family has
  // them; zero otherwise).
  std::uint64_t rounds = 0;
  std::uint64_t sends = 0;
  std::uint64_t bytes = 0;
  std::uint64_t deliveries = 0;

  // Timing (excluded from the deterministic emission).
  double wall_s = 0;
  std::size_t threads = 1;

  // Exactly the family's vector is populated, one cell per seed.
  std::vector<ConsensusCellOutcome> consensus_cells;
  std::vector<OmegaCellOutcome> omega_cells;
  std::vector<WeaksetCellOutcome> weakset_cells;
  std::vector<EmulationCellOutcome> emulation_cells;
  std::vector<ShmCellOutcome> shm_cells;
  std::vector<AbdCellOutcome> abd_cells;

  std::size_t cells() const { return seeds.size(); }

  // include_timing=false drops the "timing" section: the remainder is a
  // pure function of the spec and is what the determinism tests compare.
  JsonValue to_json(bool include_timing = true) const;
  std::string to_json_string(bool include_timing = true) const;

  // One-line human summary ("consensus e1: 10/10 decided, ...").
  std::string summary() const;
};

// Sorted unique key paths ("outcome.cells[].decided", "timing.wall_s", …)
// of the report's JSON — the schema the CI smoke job diffs against its
// golden.  Array indices collapse to "[]" so the schema is cell-count
// independent.
std::vector<std::string> report_schema(const JsonValue& report_json);

}  // namespace anon

#include "scenario/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace anon {

namespace {

JsonValue consensus_cell_json(const ConsensusCellOutcome& c,
                              std::uint64_t seed) {
  const ConsensusReport& r = c.report;
  JsonValue v = JsonValue::object();
  v.set("seed", JsonValue::uint(seed));
  v.set("decided", JsonValue::boolean(r.all_correct_decided));
  v.set("agreement", JsonValue::boolean(r.agreement));
  v.set("validity", JsonValue::boolean(r.validity));
  if (r.value.has_value())
    v.set("value", JsonValue::str(r.value->to_string()));
  v.set("first_decision_round", JsonValue::uint(r.first_decision_round));
  v.set("last_decision_round", JsonValue::uint(r.last_decision_round));
  v.set("rounds", JsonValue::uint(r.rounds_executed));
  v.set("hit_round_limit", JsonValue::boolean(r.hit_round_limit));
  // Conditional (like cohorts_max below): fault-free cells keep their
  // pre-fault-layer report bytes, so every existing golden is unchanged.
  if (r.undecided) v.set("outcome", JsonValue::str("undecided"));
  v.set("deliveries", JsonValue::uint(r.deliveries));
  v.set("sends", JsonValue::uint(r.sends));
  v.set("bytes", JsonValue::uint(r.bytes_sent));
  if (r.fault_drops > 0 || r.fault_dups > 0) {
    v.set("fault_drops", JsonValue::uint(r.fault_drops));
    v.set("fault_dups", JsonValue::uint(r.fault_dups));
  }
  if (r.inbox_overflow_dropped > 0)
    v.set("inbox_overflow_dropped", JsonValue::uint(r.inbox_overflow_dropped));
  if (r.cohorts_max > 0) {
    v.set("cohorts_max", JsonValue::uint(r.cohorts_max));
    v.set("cohorts_final", JsonValue::uint(r.cohorts_final));
  }
  if (c.env_checked) v.set("env", JsonValue::str(r.env_check.to_string()));
  if (c.camps_intact >= 0)
    v.set("camps_intact", JsonValue::boolean(c.camps_intact != 0));
  if (c.convergence_round > 0)
    v.set("convergence_round", JsonValue::uint(c.convergence_round));
  if (c.state_bytes > 0) {
    v.set("state_bytes", JsonValue::uint(c.state_bytes));
    v.set("counter_entries", JsonValue::uint(c.counter_entries));
  }
  return v;
}

JsonValue omega_cell_json(const OmegaCellOutcome& c, std::uint64_t seed) {
  JsonValue v = JsonValue::object();
  v.set("seed", JsonValue::uint(seed));
  v.set("decided", JsonValue::boolean(c.decided));
  v.set("last_decision_round", JsonValue::uint(c.last_decision_round));
  v.set("rounds", JsonValue::uint(c.rounds));
  v.set("deliveries", JsonValue::uint(c.deliveries));
  v.set("sends", JsonValue::uint(c.sends));
  v.set("bytes", JsonValue::uint(c.bytes));
  if (c.convergence_round > 0)
    v.set("convergence_round", JsonValue::uint(c.convergence_round));
  return v;
}

JsonValue weakset_cell_json(const WeaksetCellOutcome& c, std::uint64_t seed) {
  JsonValue v = JsonValue::object();
  v.set("seed", JsonValue::uint(seed));
  v.set("spec_ok", JsonValue::boolean(c.spec_ok));
  if (!c.spec_ok) v.set("violation", JsonValue::str(c.violation));
  v.set("rounds", JsonValue::uint(c.rounds));
  v.set("adds", JsonValue::uint(c.adds));
  v.set("all_adds_completed", JsonValue::boolean(c.all_adds_completed));
  v.set("add_latency_total", JsonValue::uint(c.add_latency_total));
  v.set("writes_completed", JsonValue::uint(c.writes_completed));
  v.set("write_latency_total", JsonValue::uint(c.write_latency_total));
  if (c.env_checked) v.set("env_ms_ok", JsonValue::boolean(c.env_ms_ok));
  return v;
}

JsonValue emulation_cell_json(const EmulationCellOutcome& c,
                              std::uint64_t seed) {
  JsonValue v = JsonValue::object();
  v.set("seed", JsonValue::uint(seed));
  v.set("ran", JsonValue::boolean(c.ran));
  v.set("ms_certified", JsonValue::boolean(c.ms_certified));
  v.set("trace_deliveries", JsonValue::uint(c.trace_deliveries));
  v.set("rounds_min", JsonValue::uint(c.rounds_min));
  v.set("rounds_max", JsonValue::uint(c.rounds_max));
  v.set("rounds_total", JsonValue::uint(c.rounds_total));
  v.set("ticks", JsonValue::uint(c.ticks));
  if (c.weakset_inner) {
    v.set("adds_completed", JsonValue::boolean(c.adds_completed));
    v.set("all_see", JsonValue::boolean(c.all_see));
  }
  return v;
}

JsonValue shm_cell_json(const ShmCellOutcome& c, std::uint64_t seed) {
  JsonValue v = JsonValue::object();
  v.set("seed", JsonValue::uint(seed));
  v.set("spec_ok", JsonValue::boolean(c.spec_ok));
  if (!c.spec_ok) v.set("violation", JsonValue::str(c.violation));
  v.set("records", JsonValue::uint(c.records));
  return v;
}

JsonValue abd_cell_json(const AbdCellOutcome& c, std::uint64_t seed) {
  JsonValue v = JsonValue::object();
  v.set("seed", JsonValue::uint(seed));
  v.set("completed", JsonValue::boolean(c.completed));
  v.set("messages", JsonValue::uint(c.messages));
  v.set("end_time", JsonValue::uint(c.end_time));
  return v;
}

// %.6g pre-rounding keeps the trajectory files short; the parsed-back value
// round-trips exactly, so re-emission stays byte-stable.
double round6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::strtod(buf, nullptr);
}

}  // namespace

JsonValue ScenarioReport::to_json(bool include_timing) const {
  JsonValue doc = JsonValue::object();
  JsonValue scenario = JsonValue::object();
  scenario.set("name", JsonValue::str(name));
  scenario.set("family", JsonValue::str(to_string(family)));
  doc.set("scenario", std::move(scenario));
  doc.set("cells", JsonValue::uint(cells()));

  JsonValue metrics = JsonValue::object();
  metrics.set("rounds", JsonValue::uint(rounds));
  metrics.set("sends", JsonValue::uint(sends));
  metrics.set("bytes", JsonValue::uint(bytes));
  metrics.set("deliveries", JsonValue::uint(deliveries));
  doc.set("metrics", std::move(metrics));

  JsonValue cell_arr = JsonValue::array();
  auto seed_at = [&](std::size_t i) {
    return i < seeds.size() ? seeds[i] : 0;
  };
  switch (family) {
    case ScenarioFamily::kConsensus:
      for (std::size_t i = 0; i < consensus_cells.size(); ++i)
        cell_arr.push(consensus_cell_json(consensus_cells[i], seed_at(i)));
      break;
    case ScenarioFamily::kOmega:
      for (std::size_t i = 0; i < omega_cells.size(); ++i)
        cell_arr.push(omega_cell_json(omega_cells[i], seed_at(i)));
      break;
    case ScenarioFamily::kWeakset:
      for (std::size_t i = 0; i < weakset_cells.size(); ++i)
        cell_arr.push(weakset_cell_json(weakset_cells[i], seed_at(i)));
      break;
    case ScenarioFamily::kEmulation:
      for (std::size_t i = 0; i < emulation_cells.size(); ++i)
        cell_arr.push(emulation_cell_json(emulation_cells[i], seed_at(i)));
      break;
    case ScenarioFamily::kWeaksetShm:
      for (std::size_t i = 0; i < shm_cells.size(); ++i)
        cell_arr.push(shm_cell_json(shm_cells[i], seed_at(i)));
      break;
    case ScenarioFamily::kAbd:
      for (std::size_t i = 0; i < abd_cells.size(); ++i)
        cell_arr.push(abd_cell_json(abd_cells[i], seed_at(i)));
      break;
  }
  JsonValue outcome = JsonValue::object();
  outcome.set("kind", JsonValue::str(to_string(family)));
  outcome.set("cells", std::move(cell_arr));
  doc.set("outcome", std::move(outcome));

  if (include_timing) {
    JsonValue timing = JsonValue::object();
    timing.set("wall_s", JsonValue::number(round6(wall_s)));
    timing.set("threads", JsonValue::uint(threads));
    doc.set("timing", std::move(timing));
  }
  return doc;
}

std::string ScenarioReport::to_json_string(bool include_timing) const {
  return to_json(include_timing).dump() + "\n";
}

std::string ScenarioReport::summary() const {
  std::ostringstream os;
  os << to_string(family) << (name.empty() ? "" : " " + name) << ": ";
  const std::size_t k = cells();
  switch (family) {
    case ScenarioFamily::kConsensus: {
      std::size_t decided = 0, agree = 0, undecided = 0;
      Round last = 0;
      for (const auto& c : consensus_cells) {
        decided += c.report.all_correct_decided ? 1 : 0;
        agree += c.report.agreement ? 1 : 0;
        undecided += c.report.undecided ? 1 : 0;
        last = std::max(last, c.report.last_decision_round);
      }
      os << decided << "/" << k << " decided, " << agree << "/" << k
         << " agreement, last decision round " << last;
      if (undecided > 0) os << ", " << undecided << " undecided (watchdog)";
      break;
    }
    case ScenarioFamily::kOmega: {
      std::size_t decided = 0;
      for (const auto& c : omega_cells) decided += c.decided ? 1 : 0;
      os << decided << "/" << k << " decided";
      break;
    }
    case ScenarioFamily::kWeakset: {
      std::size_t ok = 0;
      for (const auto& c : weakset_cells) ok += c.spec_ok ? 1 : 0;
      os << ok << "/" << k << " spec-clean";
      break;
    }
    case ScenarioFamily::kEmulation: {
      std::size_t cert = 0;
      for (const auto& c : emulation_cells) cert += c.ms_certified ? 1 : 0;
      os << cert << "/" << k << " MS-certified";
      break;
    }
    case ScenarioFamily::kWeaksetShm: {
      std::size_t ok = 0;
      for (const auto& c : shm_cells) ok += c.spec_ok ? 1 : 0;
      os << ok << "/" << k << " spec-clean";
      break;
    }
    case ScenarioFamily::kAbd: {
      std::size_t done = 0;
      for (const auto& c : abd_cells) done += c.completed ? 1 : 0;
      os << done << "/" << k << " writes completed";
      break;
    }
  }
  os << ", " << deliveries << " deliveries, wall " << round6(wall_s) << "s";
  return os.str();
}

namespace {

void collect_schema(const JsonValue& v, const std::string& path,
                    std::vector<std::string>& out) {
  switch (v.kind()) {
    case JsonValue::Kind::kObject:
      for (const auto& [k, child] : v.entries())
        collect_schema(child, path.empty() ? k : path + "." + k, out);
      break;
    case JsonValue::Kind::kArray:
      for (const auto& child : v.items()) collect_schema(child, path + "[]", out);
      break;
    default:
      out.push_back(path);
      break;
  }
}

}  // namespace

std::vector<std::string> report_schema(const JsonValue& report_json) {
  std::vector<std::string> out;
  collect_schema(report_json, "", out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace anon

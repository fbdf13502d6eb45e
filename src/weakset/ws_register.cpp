#include "weakset/ws_register.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "net/cohort.hpp"
#include "weakset/ms_weak_set.hpp"

namespace anon {

Value WsRegElement::encode() const {
  const std::int64_t payload = value.is_bottom() ? 0 : value.get();
  ANON_CHECK_MSG(payload >= 0 && payload < (1LL << 31),
                 "register payloads must fit 31 bits for packing");
  return Value((static_cast<std::int64_t>(rank) << 31) | payload);
}

WsRegElement WsRegElement::decode(Value packed) {
  const std::int64_t raw = packed.get();
  return {Value(raw & ((1LL << 31) - 1)),
          static_cast<std::uint32_t>(raw >> 31)};
}

WsRegElement make_write_element(Value v, const WsRegSnapshot& snapshot) {
  return {v, static_cast<std::uint32_t>(snapshot.size())};
}

std::optional<Value> register_read(const WsRegSnapshot& snapshot) {
  if (snapshot.empty()) return std::nullopt;
  std::uint32_t best_rank = 0;
  for (const auto& e : snapshot) best_rank = std::max(best_rank, e.rank);
  std::optional<Value> best;
  for (const auto& e : snapshot)
    if (e.rank == best_rank && (!best || *best < e.value)) best = e.value;
  return best;
}

// Sort-plus-sweep regularity check, O(ops log ops) total (the seed version
// was reads × writes² — every read rescanned every write pair for
// supersession).  Key fact: a write w is superseded w.r.t. read r iff some
// write w2 has w.end < w2.start and w2.end < r.start — i.e. iff
// w.end < S(r) where S(r) = max{ start of writes completed before r }.
// S(r) is a prefix-max over writes sorted by end; validity of a
// (value, read) pair is then one prefix-max query over that value's writes
// sorted by start.  The reference implementation survives as
// ref_check_regular_register (weakset/reference_checkers.hpp) and the two
// are pitted against each other on randomized and violating histories in
// tests/spec_sweep_test.cpp.
RegCheckResult check_regular_register(const std::vector<RegOpRecord>& ops) {
  struct ByEnd {
    std::uint64_t end;
    std::uint64_t start;
  };
  std::vector<ByEnd> by_end;  // all writes, sorted by end
  // Per written value: (start, prefix-max end) sorted by start.
  struct ByStart {
    std::uint64_t start;
    std::uint64_t max_end;  // max end among this value's writes up to here
  };
  std::map<std::optional<Value>, std::vector<ByStart>> by_value;

  for (const RegOpRecord& w : ops) {
    if (w.kind != RegOpRecord::Kind::kWrite) continue;
    by_end.push_back({w.end, w.start});
    by_value[w.value].push_back({w.start, w.end});
  }
  std::sort(by_end.begin(), by_end.end(),
            [](const ByEnd& a, const ByEnd& b) { return a.end < b.end; });
  // prefix_max_start[i] = max start among by_end[0..i].
  std::vector<std::uint64_t> prefix_max_start(by_end.size());
  for (std::size_t i = 0; i < by_end.size(); ++i)
    prefix_max_start[i] =
        i == 0 ? by_end[i].start : std::max(prefix_max_start[i - 1], by_end[i].start);
  for (auto& [v, writes] : by_value) {
    std::sort(writes.begin(), writes.end(),
              [](const ByStart& a, const ByStart& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < writes.size(); ++i)
      writes[i].max_end = std::max(writes[i].max_end, writes[i - 1].max_end);
  }

  for (const RegOpRecord& r : ops) {
    if (r.kind != RegOpRecord::Kind::kRead) continue;
    // Writes completed strictly before the read started: count and S(r).
    const std::size_t completed =
        static_cast<std::size_t>(std::lower_bound(
                                     by_end.begin(), by_end.end(), r.start,
                                     [](const ByEnd& w, std::uint64_t key) {
                                       return w.end < key;
                                     }) -
                                 by_end.begin());
    const bool have_superseder = completed > 0;
    const std::uint64_t s_bound =
        have_superseder ? prefix_max_start[completed - 1] : 0;

    bool ok = false;
    if (!r.value.has_value() && completed == 0) ok = true;  // initial read
    if (!ok) {
      auto it = by_value.find(r.value);
      if (it != by_value.end()) {
        const std::vector<ByStart>& writes = it->second;
        // Largest index with start <= r.end.
        const std::size_t idx = static_cast<std::size_t>(
            std::upper_bound(writes.begin(), writes.end(), r.end,
                             [](std::uint64_t key, const ByStart& w) {
                               return key < w.start;
                             }) -
            writes.begin());
        // Valid iff some such write is not superseded: its end reaches at
        // least S(r).
        if (idx > 0 &&
            (!have_superseder || writes[idx - 1].max_end >= s_bound))
          ok = true;
      }
    }
    if (!ok) {
      std::ostringstream os;
      os << "read@[" << r.start << "," << r.end << ") by p" << r.process
         << " returned "
         << (r.value ? r.value->to_string() : std::string("⊥"))
         << " which is neither a current nor a concurrent write";
      return {false, os.str()};
    }
  }
  return {};
}

namespace {

// The scripted-operation loop, shared by both backends (ws_backend.hpp):
// `peek(p)` reads p's weak-set automaton (served for dead processes too),
// `start_add(p, v)` injects the blocking add carrying the encoded write
// element.  Mirrors run_ws_script in ms_weak_set.cpp.
template <typename Net, typename Peek, typename StartAdd>
RegisterRunResult run_reg_script(Net& net, const CrashPlan& crashes,
                                 std::vector<RegScriptOp> script,
                                 Round max_rounds, Peek&& peek,
                                 StartAdd&& start_add) {
  std::sort(script.begin(), script.end(),
            [](const RegScriptOp& a, const RegScriptOp& b) {
              return a.round < b.round;
            });

  RegisterRunResult out;
  std::size_t next_op = 0;
  std::map<std::size_t, std::pair<std::size_t, Round>> in_flight;

  // One scratch snapshot reused across every operation: the weak-set's
  // ValueSet is already sorted-unique, so decoding is a linear append —
  // no per-op tree rebuild, no allocation once the capacity is warm.
  WsRegSnapshot snap;
  auto snapshot_of = [&](std::size_t p) -> const WsRegSnapshot& {
    snap.clear();
    for (const Value& v : peek(p).get())
      snap.push_back(WsRegElement::decode(v));
    return snap;
  };

  net.run([&](const Net& nn) {
    const Round r = nn.round();
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (!peek(it->first).add_blocked()) {
        out.records[it->second.first].end = (r - 1) * 4 + 3;
        out.write_latency_rounds_total += (r - 1) - it->second.second;
        ++out.writes_completed;
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
    while (next_op < script.size() && script[next_op].round <= r) {
      const RegScriptOp& op = script[next_op];
      ++next_op;
      if (crashes.crash_round(op.process) <= r) continue;
      RegOpRecord rec;
      rec.process = op.process;
      rec.start = r * 4 + 1;
      if (op.is_write) {
        if (peek(op.process).add_blocked())
          continue;  // previous write still in flight
        rec.kind = RegOpRecord::Kind::kWrite;
        rec.value = op.value;
        start_add(op.process,
                  make_write_element(op.value, snapshot_of(op.process))
                      .encode());
        out.records.push_back(rec);
        in_flight[op.process] = {out.records.size() - 1, r};
      } else {
        rec.kind = RegOpRecord::Kind::kRead;
        rec.value = register_read(snapshot_of(op.process));
        rec.end = rec.start;
        out.records.push_back(rec);
      }
    }
    return false;
  });
  out.rounds_executed = net.round();

  // Writes never completed (crashed writers): leave end at the horizon so
  // the checker treats them as concurrent-with-everything-later.
  for (const auto& [p, rec] : in_flight) {
    (void)p;
    out.records[rec.first].end = max_rounds * 4 + 3;
  }
  out.check = check_regular_register(out.records);
  return out;
}

}  // namespace

RegisterRunResult run_register_over_ms(const EnvParams& env,
                                       const CrashPlan& crashes,
                                       std::vector<RegScriptOp> script,
                                       const WsRunOptions& ropt) {
  const std::size_t n = env.n;
  EnvDelayModel delays(env, crashes);
  Round last_round = 1;
  for (const auto& op : script) last_round = std::max(last_round, op.round);
  const Round max_rounds = last_round + ropt.extra_rounds;
  std::optional<FaultPlan> faults;
  if (ropt.faults.active()) faults.emplace(ropt.faults, env.seed, n, &delays);

  if (ropt.backend == WsBackend::kCohort) {
    ANON_CHECK_MSG(!ropt.validate_env,
                   "backend=cohort records no trace; set validate_env=false");
    std::vector<CohortNet<ValueSet>::InitGroup> groups(1);
    groups[0].automaton = std::make_unique<MsWeakSetAutomaton>();
    groups[0].members.resize(n);
    std::iota(groups[0].members.begin(), groups[0].members.end(), ProcId{0});
    CohortOptions copt;
    copt.seed = env.seed;
    copt.max_rounds = max_rounds;
    copt.faults = faults ? &*faults : nullptr;
    copt.engine_threads = ropt.engine_threads;
    copt.engine_shards = ropt.engine_shards;
    CohortNet<ValueSet> net(std::move(groups), delays, crashes, copt);
    RegisterRunResult out = run_reg_script(
        net, crashes, std::move(script), max_rounds,
        [&net](std::size_t p) -> const MsWeakSetAutomaton& {
          return dynamic_cast<const MsWeakSetAutomaton&>(
              net.automaton_view(p));
        },
        [&net](std::size_t p, Value v) {
          net.mutate_member(p, [v](Automaton<ValueSet>& a) {
            dynamic_cast<MsWeakSetAutomaton&>(a).start_add(v);
          });
        });
    out.cohort_classes = net.stats().cohorts;
    out.cohort_peak_classes = net.stats().max_cohorts;
    return out;
  }

  std::vector<std::unique_ptr<Automaton<ValueSet>>> autos;
  autos.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    autos.push_back(std::make_unique<MsWeakSetAutomaton>());
  LockstepOptions opt;
  opt.seed = env.seed;
  opt.max_rounds = max_rounds;
  opt.faults = faults ? &*faults : nullptr;
  // The environment is certified online, one bit per (round, sender,
  // receiver): nothing here reads a trace, so none is recorded (a delivery
  // trace would be Θ(rounds·n²) events, fatal at the bench scales).
  std::optional<EnvMonitor> monitor;
  if (ropt.validate_env) monitor.emplace(n, crashes.correct(n));
  opt.monitor = monitor ? &*monitor : nullptr;
  opt.record_trace = false;
  LockstepNet<ValueSet> net(std::move(autos), delays, crashes, opt);
  RegisterRunResult out = run_reg_script(
      net, crashes, std::move(script), max_rounds,
      [&net](std::size_t p) -> const MsWeakSetAutomaton& {
        return dynamic_cast<MsWeakSetAutomaton&>(net.process(p).automaton());
      },
      [&net](std::size_t p, Value v) {
        dynamic_cast<MsWeakSetAutomaton&>(net.process(p).automaton())
            .start_add(v);
      });
  if (monitor) out.env_check = monitor->result();
  return out;
}

RegisterRunResult run_register_over_ms(const EnvParams& env,
                                       const CrashPlan& crashes,
                                       std::vector<RegScriptOp> script,
                                       Round extra_rounds, bool validate_env) {
  WsRunOptions opt;
  opt.extra_rounds = extra_rounds;
  opt.validate_env = validate_env;
  return run_register_over_ms(env, crashes, std::move(script), opt);
}

}  // namespace anon

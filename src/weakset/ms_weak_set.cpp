#include "weakset/ms_weak_set.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include "common/check.hpp"
#include "env/validate.hpp"
#include "net/cohort.hpp"

namespace anon {

std::uint64_t MsWeakSetAutomaton::state_digest() const {
  std::uint64_t h = 0x1f83d9abfb41bd6bULL;
  h = detail::mix_digest(h, val_.stable_hash());
  h = detail::mix_digest(h, stable_hash(proposed_));
  h = detail::mix_digest(h, stable_hash(written_));
  h = detail::mix_digest(h, block_ ? 1 : 0);
  return h;
}

bool MsWeakSetAutomaton::state_equals(const Automaton<ValueSet>& other) const {
  const auto* o = dynamic_cast<const MsWeakSetAutomaton*>(&other);
  if (o == nullptr) return false;
  return val_ == o->val_ && proposed_ == o->proposed_ &&
         written_ == o->written_ && block_ == o->block_;
}

ValueSet MsWeakSetAutomaton::initialize() {
  // Lines 1–4: VAL := ⊥; PROPOSED := WRITTEN := ∅; BLOCK := false.
  val_ = Value::Bottom();
  proposed_.clear();
  written_.clear();
  block_ = false;
  return proposed_;
}

void MsWeakSetAutomaton::start_add(Value v) {
  // Lines 7–10 (the wait of line 11 is realized by the harness polling
  // add_blocked() after each compute).
  ANON_CHECK_MSG(!block_, "Algorithm 4 serializes adds per process");
  proposed_.insert(v);
  val_ = v;
  block_ = true;
}

ValueSet MsWeakSetAutomaton::compute(Round k, const Inboxes<ValueSet>& inboxes) {
  // Line 14: WRITTEN := ∩ of this round's messages (capacity-reusing
  // assignment, then in-place intersections).
  const InboxView<ValueSet>& msgs = inbox_at(inboxes, k);
  ANON_CHECK(!msgs.empty());
  auto it = msgs.begin();
  written_ = *it;
  for (++it; it != msgs.end(); ++it) set_intersect_inplace(written_, *it);

  // Line 15: PROPOSED ∪= messages of ALL live rounds (late deliveries
  // count; the window clamps far-late rounds into the k-1 slot and only
  // drops a slot after the compute that follows its delivery, so every
  // delivered message is unioned here at least once).
  inboxes.for_each_live([this](Round, const InboxView<ValueSet>& batch) {
    for (const ValueSet& m : batch) set_union_inplace(proposed_, m);
  });

  // Line 16: an in-flight add completes once its value is written.
  if (block_ && written_.count(val_) > 0) block_ = false;

  return proposed_;
}

namespace {

// The scripted-operation loop, shared by both backends.  `peek(p)` reads
// p's weak-set automaton (served for dead processes too — frozen at the
// final compute on either engine); `start_add(p, v)` injects the blocking
// add.  Both engines fire the stop callback at the same point of their
// round loop, so observation rounds line up byte-for-byte.
template <typename Net, typename Peek, typename StartAdd>
MsWeakSetRunResult run_ws_script(Net& net, const CrashPlan& crashes,
                                 std::vector<WsScriptOp> script,
                                 Round max_rounds, Peek&& peek,
                                 StartAdd&& start_add) {
  std::sort(script.begin(), script.end(),
            [](const WsScriptOp& a, const WsScriptOp& b) {
              return a.round < b.round;
            });

  MsWeakSetRunResult out;
  std::size_t next_op = 0;
  // In-flight adds: process -> (record index, inject round).
  std::map<std::size_t, std::pair<std::size_t, Round>> in_flight;

  net.run([&](const Net& nn) {
    const Round r = nn.round();
    // Completion phase: round r's computes have run for round r-1… poll
    // blocked adds first (phase 3 of the previous round).
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (!peek(it->first).add_blocked()) {
        out.records[it->second.first].end = (r - 1) * 4 + 3;
        out.add_latency_rounds_total += (r - 1) - it->second.second;
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
    // Injection phase (phase 1 of round r): start scripted ops.
    while (next_op < script.size() && script[next_op].round <= r) {
      const WsScriptOp& op = script[next_op];
      ++next_op;
      if (crashes.crash_round(op.process) <= r) continue;  // process dead
      WsOpRecord rec;
      rec.process = op.process;
      rec.start = r * 4 + 1;
      if (op.is_add) {
        if (peek(op.process).add_blocked())
          continue;  // previous add still in flight: skip
        rec.kind = WsOpRecord::Kind::kAdd;
        rec.value = op.value;
        start_add(op.process, op.value);
        out.records.push_back(rec);
        in_flight[op.process] = {out.records.size() - 1, r};
        ++out.adds;
      } else {
        rec.kind = WsOpRecord::Kind::kGet;
        rec.result = peek(op.process).get();
        rec.end = rec.start;  // instantaneous
        out.records.push_back(rec);
      }
    }
    return false;
  });
  out.rounds_executed = net.round();

  // Adds still blocked at the end (only possible for crashed processes —
  // Theorem 3's termination says correct processes never block forever).
  // Their records keep end = horizon, which the checker treats as
  // not-completed relative to all gets.
  for (const auto& [p, rec] : in_flight) {
    out.records[rec.first].end = max_rounds * 4 + 3;
    if (!crashes.ever_crashes(p)) out.all_adds_completed = false;
  }
  return out;
}

}  // namespace

MsWeakSetRunResult run_ms_weak_set(const EnvParams& env,
                                   const CrashPlan& crashes,
                                   std::vector<WsScriptOp> script,
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
    // Algorithm 4 has no initial values: every process starts identical,
    // so the system is ONE class until operations or asymmetries split it.
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
    MsWeakSetRunResult out = run_ws_script(
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
  MsWeakSetRunResult out = run_ws_script(
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

MsWeakSetRunResult run_ms_weak_set(const EnvParams& env,
                                   const CrashPlan& crashes,
                                   std::vector<WsScriptOp> script,
                                   Round extra_rounds, bool validate_env) {
  WsRunOptions opt;
  opt.extra_rounds = extra_rounds;
  opt.validate_env = validate_env;
  return run_ms_weak_set(env, crashes, std::move(script), opt);
}

}  // namespace anon

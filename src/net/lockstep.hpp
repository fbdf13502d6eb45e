// Lock-step round simulator: the serial reference engine.
//
// All alive processes advance rounds together; the adversary acts through
// the `DelayModel` (per-link, per-round delays; 0 = timely) and the
// `CrashPlan` (a crashing process's final broadcast reaches only a subset).
//
// One engine round r:
//   1. deliver every message batch due in round r (into the receivers'
//      round-indexed inboxes; timely messages have msg_round == r),
//   2. evaluate the stop condition,
//   3. every alive process executes end-of-round #(r+1): compute(r) runs
//      and its round-(r+1) message is broadcast.  A process whose crash
//      round is r+1 broadcasts to its final audience only and is dead
//      afterwards.
//
// Reliable broadcast: if `relay_partial_broadcast` is set (default), the
// non-audience of a crashed sender still receives the final message, late —
// modelling the relay performed by a uniform reliable broadcast layer.
// Disabling it yields best-effort broadcast for crashing senders; the
// paper's safety properties must (and do — see tests) hold either way.
//
// One thread walks all n processes and one calendar holds one pending
// entry per (sender, receiver) link: small, obviously-faithful code.  This
// is the differential oracle for the cohort engine (net/cohort.hpp, the
// one parallel engine), and the engine for the surfaces that need a
// per-process trace (environment certification, adversarial schedules,
// the non-decision probes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/value.hpp"
#include "core/calendar.hpp"
#include "env/faults.hpp"
#include "env/validate.hpp"
#include "giraf/process.hpp"
#include "giraf/trace.hpp"
#include "net/schedule.hpp"

namespace anon {

// What a decided process does next (see DESIGN.md, "decide/halt").
enum class HaltPolicy {
  // Keep executing rounds, re-broadcasting the frozen final message
  // (standard reading; keeps ES/ESS satisfiable and laggards alive).
  kContinueForever,
  // Literal "decide; halt": stop sending and receiving.  Provided to
  // demonstrate laggard starvation; not recommended.
  kStopAfterDecide,
};

struct LockstepOptions {
  std::uint64_t seed = 1;
  Round max_rounds = 100000;
  bool relay_partial_broadcast = true;
  Round relay_extra_delay = 2;  // extra rounds for relayed final messages
  bool record_trace = true;     // end-of-round / crash events
  bool record_deliveries = true;  // delivery events (can be voluminous)
  HaltPolicy halt_policy = HaltPolicy::kContinueForever;
  // Worker-pool participants (0 = one per hardware thread) and shard count
  // (0 = one per participant) of the cohort engine, which reads them
  // through CohortOptions::from.  LockstepNet is serial and ignores both.
  std::size_t engine_threads = 1;
  std::size_t engine_shards = 0;
  // Optional fault plan (env/faults.hpp), aliased for the run's lifetime;
  // nullptr = the fault-free reliable network.  Fates are pure in (round,
  // sender, receiver), so every engine injects the same faults.
  const FaultPlan* faults = nullptr;
  // Optional environment certifier (env/validate.hpp), aliased for the
  // run's lifetime: fed every end-of-round and delivery as it happens,
  // whether or not the trace records them.
  EnvMonitor* monitor = nullptr;
};

struct RunResult {
  Round rounds = 0;    // engine rounds executed
  bool stopped = false;  // stop condition met (vs. max_rounds exhausted)
};

// Approximate wire size of a message, for state-growth experiments (E10)
// and every engine's `bytes` metric.  There is no generic fallback: an
// engine instantiated over a message type without a specialization fails
// to compile, so one type cannot get two sizes in two translation units.
template <typename M>
struct MessageSizeOf;

// ValueSet is the message of Algorithms 2 and 4 and of the weak-set
// register, so its size lives here, next to the engines, where every
// instantiation sees it.
template <>
struct MessageSizeOf<ValueSet> {
  static std::size_t size(const ValueSet& m) { return 16 + 8 * m.size(); }
};

template <GirafMessage M>
class LockstepNet {
 public:
  LockstepNet(std::vector<std::unique_ptr<Automaton<M>>> automatons,
              const DelayModel& delays, CrashPlan crashes,
              LockstepOptions opt = {})
      : delays_(delays), crashes_(std::move(crashes)), opt_(opt) {
    ANON_CHECK(!automatons.empty());
    n_ = automatons.size();
    procs_.reserve(n_);
    for (auto& a : automatons)
      procs_.push_back(std::make_unique<GirafProcess<M>>(std::move(a)));
    halted_.assign(n_, 0);
    decision_round_.assign(n_, kNoRound);
    crash_round_.assign(n_, kNeverCrashes);
    for (ProcId p = 0; p < n_; ++p) {
      crash_round_[p] = crashes_.crash_round(p);
      if (crash_round_[p] != kNeverCrashes)
        trace_.record_crash(p, crash_round_[p] + 1);
    }
  }

  // The engine aliases `delays` for its whole lifetime (models are shared,
  // immutable and typically outlive whole sweeps); binding a temporary
  // would dangle on the first delay probe.  Deleted overload rejects the
  // temporary at compile time — construct the model in an outer scope.
  LockstepNet(std::vector<std::unique_ptr<Automaton<M>>> automatons,
              const DelayModel&& delays, CrashPlan crashes,
              LockstepOptions opt = {}) = delete;

  std::size_t n() const { return n_; }
  Round round() const { return round_; }
  const Trace& trace() const { return trace_; }
  const EnvMonitor* monitor() const { return opt_.monitor; }
  const GirafProcess<M>& process(ProcId p) const { return *procs_[p]; }
  GirafProcess<M>& process(ProcId p) { return *procs_[p]; }

  std::optional<Value> decision(ProcId p) const { return procs_[p]->decision(); }

  bool is_correct(ProcId p) const { return !crashes_.ever_crashes(p); }

  bool all_correct_decided() const {
    for (ProcId p = 0; p < n_; ++p)
      if (is_correct(p) && !decision(p).has_value()) return false;
    return true;
  }

  // First engine round at which process p was decided (kNoRound if never).
  Round decision_round(ProcId p) const { return decision_round_[p]; }

  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t sends() const { return sends_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  // Messages dropped / duplicated by the fault plan.  `sends` counts every
  // attempted send (drops included), so sends == deliveries-bound traffic
  // plus fault_drops on a quiescent network; duplicates are injected by
  // the network, not the sender, and do not inflate `sends`.
  std::uint64_t fault_drops() const { return fault_drops_; }
  std::uint64_t fault_dups() const { return fault_dups_; }

  // Largest far-early overflow parking any inbox ever reached.  Lock-step
  // delivery never runs ahead of the window, so this should stay 0 — a
  // nonzero value flags an engine/schedule bug (the window itself hard-caps
  // growth at InboxWindow::kOverflowParkLimit).
  std::size_t inbox_overflow_high_water() const {
    std::size_t hw = 0;
    for (const auto& p : procs_)
      hw = std::max(hw, p->inboxes().overflow_high_water());
    return hw;
  }

  // Far-early batches the inbox windows shed at the park limit instead of
  // parking (graceful degradation under heavy reorder/churn — a counted
  // drop, never an abort).
  std::size_t inbox_overflow_dropped() const {
    std::size_t dropped = 0;
    for (const auto& p : procs_) dropped += p->inboxes().overflow_dropped();
    return dropped;
  }

  // Runs until stop(net) is true (checked after deliveries, before the next
  // end-of-round wave) or until max_rounds engine rounds have executed.
  template <typename StopFn>
  RunResult run(StopFn stop) {
    if (round_ == 0) bootstrap();
    while (round_ < opt_.max_rounds) {
      deliver_due(round_);
      if (stop(*this)) return {round_, true};
      advance_round();   // runs compute(round_ - 1 … ) for every process
      note_decisions();  // decisions made by the computes just executed
    }
    return {round_, false};
  }

  RunResult run_until_all_correct_decided() {
    return run([](const LockstepNet& net) { return net.all_correct_decided(); });
  }

  RunResult run_rounds(Round rounds) {
    const Round target = round_ + rounds;
    return run([target](const LockstepNet& net) { return net.round() >= target; });
  }

 private:
  // A sender's round-k batch is interned once per round (shared immutable
  // payload, deduplicated ACROSS senders by content digest); each
  // receiver's calendar entry is pointer-sized and receiver-side inbox
  // dedup is a pointer/digest compare, not a set-of-sets comparison.
  struct Pending {
    ProcId receiver;
    ProcId sender;
    Round msg_round;
    SharedBatch<M> payload;
  };

  bool receives_at(ProcId q, Round r) const {
    return r < crash_round_[q] && !halted_[q];
  }

  void bootstrap() {
    decision_round_.assign(n_, kNoRound);
    interner_.round_reset();
    for (ProcId p = 0; p < n_; ++p) step_eor(p, /*k=*/1);
    round_ = 1;
  }

  void advance_round() {
    const Round next = round_ + 1;
    interner_.round_reset();  // payload sharing is per (content, round)
    for (ProcId p = 0; p < n_; ++p) {
      if (next > crash_round_[p]) continue;  // crashed earlier
      if (halted_[p]) continue;              // literal halt
      step_eor(p, next);
    }
    round_ = next;
  }

  void deliver_due(Round r) {
    calendar_.advance_to(r);
    calendar_.take_due_into(due_scratch_);
    for (const Pending& d : due_scratch_) {
      if (!receives_at(d.receiver, r)) continue;  // dead or halted
      procs_[d.receiver]->receive(d.payload, d.msg_round);
      deliveries_ += d.payload->size();
      if (opt_.monitor != nullptr)
        opt_.monitor->delivery(d.sender, d.msg_round, d.receiver,
                               procs_[d.receiver]->round());
      if (opt_.record_trace && opt_.record_deliveries)
        trace_.record_delivery(d.sender, d.msg_round, d.receiver,
                               procs_[d.receiver]->round(), r);
    }
    due_scratch_.clear();  // drop the payload refs until the next round
  }

  void note_decisions() {
    // Called right after advance_round(): the computes that just ran were
    // compute(round_ - 1), so that is the deciding round.
    for (ProcId p = 0; p < n_; ++p)
      if (decision_round_[p] == kNoRound && procs_[p]->decision().has_value())
        decision_round_[p] = round_ - 1;
  }

  void step_eor(ProcId p, Round k) {
    auto out = procs_[p]->end_of_round();
    ANON_CHECK(out.round == k);
    if (opt_.record_trace) trace_.record_end_of_round(p, k, k);
    if (opt_.monitor != nullptr) opt_.monitor->end_of_round(p, k);
    if (opt_.halt_policy == HaltPolicy::kStopAfterDecide &&
        procs_[p]->decision().has_value())
      halted_[p] = 1;

    std::size_t batch_bytes = 0;
    for (const M& m : out.batch) batch_bytes += MessageSizeOf<M>::size(m);
    const SharedBatch<M> payload = interner_.intern(out.batch);

    const bool crashing = crash_round_[p] == k;
    for (ProcId q = 0; q < n_; ++q) {
      if (q == p) continue;
      Round d = delays_.delay(k, p, q);
      if (crashing && !crashes_.in_final_audience(p, q, n_, opt_.seed)) {
        if (!opt_.relay_partial_broadcast) continue;  // lost forever
        d = std::max<Round>(d, 1) + opt_.relay_extra_delay;
      }
      // Both counters are per message on the link, so multi-message
      // batches keep the sends/bytes ratio honest (E10).
      sends_ += payload->size();
      bytes_sent_ += batch_bytes;
      if (opt_.faults != nullptr && opt_.faults->active()) {
        const LinkFate f = opt_.faults->fate(k, p, q);
        if (!f.deliver) {
          fault_drops_ += payload->size();
          continue;
        }
        d += f.extra_delay;
        calendar_.schedule(k + d, Pending{q, p, k, payload});
        if (f.duplicate) {
          // dup_delay >= 1: the copy lands in a later delivery round, so
          // it is observable (same-round copies dedup away in the set
          // view) and the per-round trace key stays unique.
          fault_dups_ += payload->size();
          calendar_.schedule(k + d + f.dup_delay, Pending{q, p, k, payload});
        }
        continue;
      }
      calendar_.schedule(k + d, Pending{q, p, k, payload});
    }
  }

  std::size_t n_ = 0;
  std::vector<std::unique_ptr<GirafProcess<M>>> procs_;
  const DelayModel& delays_;
  CrashPlan crashes_;
  LockstepOptions opt_;
  Trace trace_;
  Round round_ = 0;

  // Struct-of-arrays hot state: the per-round scans (who steps, who
  // receives, who decided) touch these flat arrays, not the process
  // objects.
  std::vector<Round> crash_round_;
  std::vector<std::uint8_t> halted_;
  std::vector<Round> decision_round_;

  RoundCalendar<Pending> calendar_;
  std::vector<Pending> due_scratch_;  // recycled take_due buffer
  BatchInterner<M> interner_;

  std::uint64_t deliveries_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t fault_dups_ = 0;
};

}  // namespace anon

// Lock-step round simulator.
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
// Two execution modes share this class (see DESIGN.md, "Sharded intra-run
// execution"):
//
//  * Serial reference (engine_threads == 1, engine_shards <= 1): one
//    thread walks all n processes and a single calendar holds one pending
//    entry per (sender, receiver) link.  This is the differential oracle —
//    small, obviously-faithful code.
//
//  * Sharded (engine_shards > 1, or engine_threads != 1): processes are
//    partitioned into S contiguous shards.  Each round runs two waves over
//    the shared WorkerPool with a barrier between them — the end-of-round
//    wave (compute + broadcast, per-shard interner/outboxes/trace buffers)
//    and the delivery wave (per-shard calendars) — plus a serial merge at
//    the barrier that canonicalizes freshly interned payloads by content
//    digest across shards.  In uniform-delay rounds a non-crashing
//    sender's broadcast is aggregated into a per-payload *group* delivered
//    by content once per receiver (the n² per-link entries of the serial
//    engine exist only as counter arithmetic), which is what makes
//    adversarial runs at n = 10^5 feasible at all.  Group building is
//    itself sharded: each shard pre-groups its own uniform senders during
//    the wave, the barrier only merges the few per-shard (payload,
//    member-range) summaries, and member lists are copied into the global
//    groups by a second sharded pass — no O(n) serial section remains on
//    the steady-state round path.  Barrier-local scratch lives in a
//    RoundArena (core/arena.hpp) and groups are pooled, so steady-state
//    rounds allocate nothing (tests/allocation_steady_state_test.cpp).
//    Reports, metrics and traces are byte-identical to the serial engine
//    at every shard/thread count; tests/sharded_net_test.cpp holds the two
//    modes to that bar.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/value.hpp"
#include "core/arena.hpp"
#include "core/calendar.hpp"
#include "core/partition.hpp"
#include "core/sweep.hpp"
#include "core/worker_pool.hpp"
#include "env/faults.hpp"
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
  // Worker-pool participants driving the per-round waves.  1 = the serial
  // reference engine (unless engine_shards forces sharded mode below);
  // 0 = one per hardware thread.  Results are byte-identical at any value.
  std::size_t engine_threads = 1;
  // Shard count for the sharded engine; 0 = one shard per participant.
  // Setting engine_shards > 1 with engine_threads == 1 runs the sharded
  // engine single-threaded — the bench baseline for measuring pure thread
  // scaling, and the only way to run shapes whose per-link calendar would
  // not fit in memory (n = 10^5 is ~10^10 link entries per round on the
  // serial engine) on one thread.
  std::size_t engine_shards = 0;
  // Optional fault plan (env/faults.hpp), aliased for the run's lifetime;
  // nullptr = the fault-free reliable network.  When active, the sharded
  // engine forces the per-link path (fault fates are per-link, so uniform
  // aggregation would be wrong) — fates are pure in (round, sender,
  // receiver), so reports stay byte-identical at every thread/shard count.
  const FaultPlan* faults = nullptr;
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
    init_shards();
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

  // Shards the engine actually runs (1 = the serial reference path).
  std::size_t engine_shards() const {
    return shards_.empty() ? 1 : shards_.size();
  }

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

  // ---- sharded-mode structures ----------------------------------------------

  // One exact per-link delivery (the sharded equivalent of Pending): used
  // for crashing senders, non-uniform rounds, and per-link trace mode.
  struct Exact {
    ProcId receiver;
    ProcId sender;
    Round msg_round;
    SharedBatch<M> payload;
  };

  // An end-of-round-wave output entry, parked in the sender shard's outbox
  // until the receiver shard merges it into its calendar (next barrier).
  struct OutEntry {
    Round due;
    Exact e;
  };

  // A uniform-delay payload group: every non-crashing sender of round
  // `msg_round` whose (canonical) batch is `payload`.  Delivery pushes the
  // payload once per alive receiver — receiver-side dedup makes the g
  // pointer-identical pushes of the serial engine and this single push
  // indistinguishable — while the transport counters still account every
  // (sender, receiver) link individually.
  struct Group {
    SharedBatch<M> payload;
    Round msg_round = 0;
    std::vector<ProcId> members;  // senders, globally ascending
  };

  // A shard's uniform senders of one (shard-local) payload this wave: the
  // shard-side half of group building.  Recycled by count, not clear(), so
  // member capacity survives rounds.
  struct PreGroup {
    SharedBatch<M> payload;       // shard-local (pre-canonicalization)
    std::vector<ProcId> members;  // this shard's senders, ascending
  };

  // Shard-local payload -> network-canonical payload, one entry per losing
  // object, sorted by raw pointer for binary-search reads.
  struct RemapEntry {
    const MessageBatch<M>* from = nullptr;
    SharedBatch<M> to;
  };

  struct Shard {
    ProcId begin = 0, end = 0;  // contiguous process range [begin, end)
    BatchInterner<M> interner;  // per-shard; canonicalized at the barrier
    RoundCalendar<Exact> calendar;           // deliveries to this shard
    std::vector<std::vector<OutEntry>> outbox;  // [receiver shard]
    std::vector<PreGroup> pregroups;  // this wave's uniform senders, grouped
    std::size_t pregroup_count = 0;   // live prefix of `pregroups`
    // Payload -> pregroup index, populated only past kGroupScanLimit
    // distinct payloads (the linear scan covers the common case for free).
    std::unordered_map<const MessageBatch<M>*, std::size_t> pregroup_index;
    // Rebuilt each round at the merge barrier; read-only (concurrently)
    // during the delivery wave.
    std::vector<RemapEntry> remap;
    std::vector<EndOfRoundEvent> eor_buf;    // spliced in shard order
    std::vector<DeliveryEvent> delivery_buf;  // sorted at the barrier
    std::vector<Exact> due_scratch;          // recycled take_due buffer
    std::uint64_t sends = 0, bytes = 0, deliveries = 0;
    std::uint64_t fdrops = 0, fdups = 0;  // folded at the merge barrier
  };

  // Above this many distinct payloads, pointer lookups (pregroups within a
  // shard, groups at the barrier) switch from linear scan to a hash index.
  // Steady-state rounds see a handful of distinct payloads and never touch
  // the maps (linear scan allocates nothing).
  static constexpr std::size_t kGroupScanLimit = 32;

  void init_shards() {
    std::size_t threads = opt_.engine_threads == 0
                              ? resolve_sweep_threads(0)
                              : opt_.engine_threads;
    std::size_t shards = opt_.engine_shards == 0 ? threads : opt_.engine_shards;
    shards = std::min(shards, n_);
    participants_ = std::max<std::size_t>(threads, 1);
    if (shards <= 1 && participants_ <= 1) return;  // serial reference path
    shards = std::max<std::size_t>(shards, 1);
    shards_.resize(shards);
    // Processes weigh equally here, so the shared balanced partition
    // (core/partition.hpp) reproduces the base/rem layout exactly — which
    // keeps shard_of() below a two-branch division instead of a search.
    shard_base_ = n_ / shards;
    shard_rem_ = n_ % shards;
    std::vector<ShardRange> ranges;
    balanced_ranges(n_, shards, &ranges);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_[s].begin = static_cast<ProcId>(ranges[s].first);
      shards_[s].end = static_cast<ProcId>(ranges[s].second);
      shards_[s].outbox.resize(shards);
    }
  }

  std::size_t shard_of(ProcId q) const {
    const ProcId wide = shard_rem_ * (shard_base_ + 1);
    if (q < wide) return q / (shard_base_ + 1);
    return shard_rem_ + (q - wide) / shard_base_;
  }

  bool receives_at(ProcId q, Round r) const {
    return r < crash_round_[q] && !halted_[q];
  }

  // ---- shared driver --------------------------------------------------------

  void bootstrap() {
    decision_round_.assign(n_, kNoRound);
    if (!shards_.empty()) {
      eor_wave(/*next=*/1);
      round_ = 1;
      return;
    }
    interner_.round_reset();
    for (ProcId p = 0; p < n_; ++p) step_eor(p, /*k=*/1);
    round_ = 1;
  }

  void advance_round() {
    const Round next = round_ + 1;
    if (!shards_.empty()) {
      eor_wave(next);
      round_ = next;
      return;
    }
    interner_.round_reset();  // payload sharing is per (content, round)
    for (ProcId p = 0; p < n_; ++p) {
      if (next > crash_round_[p]) continue;  // crashed earlier
      if (halted_[p]) continue;              // literal halt
      step_eor(p, next);
    }
    round_ = next;
  }

  void deliver_due(Round r) {
    if (!shards_.empty()) {
      deliver_wave(r);
      return;
    }
    calendar_.advance_to(r);
    calendar_.take_due_into(due_scratch_);
    for (const Pending& d : due_scratch_) {
      if (!receives_at(d.receiver, r)) continue;  // dead or halted
      procs_[d.receiver]->receive(d.payload, d.msg_round);
      deliveries_ += d.payload->size();
      if (opt_.record_trace && opt_.record_deliveries)
        trace_.record_delivery(d.sender, d.msg_round, d.receiver,
                               procs_[d.receiver]->round(), r);
    }
    due_scratch_.clear();  // drop the payload refs until the next round
  }

  void note_decisions() {
    if (!shards_.empty()) return;  // recorded inside the end-of-round wave
    // Called right after advance_round(): the computes that just ran were
    // compute(round_ - 1), so that is the deciding round.
    for (ProcId p = 0; p < n_; ++p)
      if (decision_round_[p] == kNoRound && procs_[p]->decision().has_value())
        decision_round_[p] = round_ - 1;
  }

  // ---- serial reference path ------------------------------------------------

  void step_eor(ProcId p, Round k) {
    auto out = procs_[p]->end_of_round();
    ANON_CHECK(out.round == k);
    if (opt_.record_trace) trace_.record_end_of_round(p, k, k);
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

  // ---- sharded path: end-of-round wave --------------------------------------

  void eor_wave(Round next) {
    // Fault fates vary per link, so an active plan forces the per-link
    // path — the uniform group aggregation assumes every link agrees.
    const std::optional<Round> ud =
        (opt_.faults != nullptr && opt_.faults->active())
            ? std::nullopt
            : delays_.uniform_delay(next);
    // Wave arguments are staged in members so the job lambda captures only
    // `this`: it stays within std::function's small-buffer optimization
    // and the dispatch itself allocates nothing.
    wave_round_ = next;
    wave_ud_ = ud;
    wave_plt_ = opt_.record_trace && opt_.record_deliveries;
    WorkerPool::shared().parallel_for(
        shards_.size(),
        [this](std::size_t s) {
          shard_eor(shards_[s], wave_round_, wave_ud_, wave_plt_);
        },
        participants_);
    merge_eor_barrier(next, ud);
  }

  void shard_eor(Shard& sh, Round next, std::optional<Round> ud,
                 bool per_link_trace) {
    sh.interner.round_reset();
    sh.pregroup_count = 0;
    for (ProcId p = sh.begin; p < sh.end; ++p) {
      if (next > crash_round_[p] || halted_[p]) continue;
      shard_step_eor(sh, p, next, ud, per_link_trace);
    }
    // The serial engine's note_decisions() scan, moved into the wave.  The
    // bootstrap wave (next == 1) must NOT record: the serial engine first
    // scans after advance_round() to round 2, stamping bootstrap-decided
    // processes with round 1 — which is exactly what the next == 2 scan
    // over the full shard range (not just the stepped processes) does.
    if (next >= 2) {
      for (ProcId p = sh.begin; p < sh.end; ++p)
        if (decision_round_[p] == kNoRound && procs_[p]->decision().has_value())
          decision_round_[p] = next - 1;
    }
  }

  void shard_step_eor(Shard& sh, ProcId p, Round k, std::optional<Round> ud,
                      bool per_link_trace) {
    auto out = procs_[p]->end_of_round();
    ANON_CHECK(out.round == k);
    if (opt_.record_trace) sh.eor_buf.push_back({p, k, k});
    if (opt_.halt_policy == HaltPolicy::kStopAfterDecide &&
        procs_[p]->decision().has_value())
      halted_[p] = 1;

    std::size_t batch_bytes = 0;
    for (const M& m : out.batch) batch_bytes += MessageSizeOf<M>::size(m);
    const SharedBatch<M> payload = sh.interner.intern(out.batch);
    const bool crashing = crash_round_[p] == k;

    if (ud.has_value() && !crashing && !per_link_trace) {
      // Uniform fast path: every link has delay *ud, so the n-1 per-link
      // calendar entries collapse to counter arithmetic plus one pregroup
      // membership (merged across shards at the barrier).  Per-link trace
      // mode opts out — it needs the individual link events.
      sh.sends += payload->size() * (n_ - 1);
      sh.bytes += static_cast<std::uint64_t>(batch_bytes) * (n_ - 1);
      sh.pregroups[find_or_add_pregroup(sh, payload)].members.push_back(p);
      return;
    }

    // Per-link fallback: exactly the serial loop, into per-shard outboxes.
    for (ProcId q = 0; q < n_; ++q) {
      if (q == p) continue;
      Round d = delays_.delay(k, p, q);
      if (crashing && !crashes_.in_final_audience(p, q, n_, opt_.seed)) {
        if (!opt_.relay_partial_broadcast) continue;  // lost forever
        d = std::max<Round>(d, 1) + opt_.relay_extra_delay;
      }
      sh.sends += payload->size();
      sh.bytes += batch_bytes;
      if (opt_.faults != nullptr && opt_.faults->active()) {
        const LinkFate f = opt_.faults->fate(k, p, q);
        if (!f.deliver) {
          sh.fdrops += payload->size();
          continue;
        }
        d += f.extra_delay;
        sh.outbox[shard_of(q)].push_back({k + d, Exact{q, p, k, payload}});
        if (f.duplicate) {
          sh.fdups += payload->size();
          sh.outbox[shard_of(q)].push_back(
              {k + d + f.dup_delay, Exact{q, p, k, payload}});
        }
        continue;
      }
      sh.outbox[shard_of(q)].push_back({k + d, Exact{q, p, k, payload}});
    }
  }

  // A shard's pregroup lookup during the wave: linear scan through the few
  // live pregroups, hash index past kGroupScanLimit.  Steady state: scan
  // hit, zero allocations (pregroups recycle by count, keeping capacity).
  std::size_t find_or_add_pregroup(Shard& sh, const SharedBatch<M>& payload) {
    if (sh.pregroup_count <= kGroupScanLimit) {
      for (std::size_t i = 0; i < sh.pregroup_count; ++i)
        if (sh.pregroups[i].payload.get() == payload.get()) return i;
    } else if (auto it = sh.pregroup_index.find(payload.get());
               it != sh.pregroup_index.end()) {
      return it->second;
    }
    const std::size_t idx = sh.pregroup_count;
    if (idx == sh.pregroups.size()) sh.pregroups.emplace_back();
    PreGroup& pg = sh.pregroups[idx];
    pg.payload = payload;
    pg.members.clear();
    ++sh.pregroup_count;
    if (sh.pregroup_count == kGroupScanLimit + 1) {
      sh.pregroup_index.clear();
      for (std::size_t i = 0; i < sh.pregroup_count; ++i)
        sh.pregroup_index.emplace(sh.pregroups[i].payload.get(), i);
    } else if (sh.pregroup_count > kGroupScanLimit + 1) {
      sh.pregroup_index.emplace(payload.get(), idx);
    }
    return idx;
  }

  // Barrier-side group lookup, same hybrid shape over this wave's groups.
  std::size_t find_or_add_group(SharedBatch<M> canon, Round next) {
    if (wave_groups_.size() <= kGroupScanLimit) {
      for (std::size_t g = 0; g < wave_groups_.size(); ++g)
        if (wave_groups_[g]->payload.get() == canon.get()) return g;
    } else if (auto it = group_index_.find(canon.get());
               it != group_index_.end()) {
      return it->second;
    }
    std::shared_ptr<Group> grp;
    if (!group_pool_.empty()) {
      grp = std::move(group_pool_.back());
      group_pool_.pop_back();
    } else {
      grp = std::make_shared<Group>();
    }
    grp->payload = std::move(canon);
    grp->msg_round = next;
    grp->members.clear();
    wave_groups_.push_back(std::move(grp));
    group_totals_.push_back(0);
    if (wave_groups_.size() == kGroupScanLimit + 1) {
      group_index_.clear();
      for (std::size_t g = 0; g < wave_groups_.size(); ++g)
        group_index_.emplace(wave_groups_[g]->payload.get(), g);
    } else if (wave_groups_.size() > kGroupScanLimit + 1) {
      group_index_.emplace(wave_groups_.back()->payload.get(),
                           wave_groups_.size() - 1);
    }
    return wave_groups_.size() - 1;
  }

  static void remap_payload(const Shard& owner, SharedBatch<M>& payload) {
    if (owner.remap.empty()) return;
    auto it = std::lower_bound(
        owner.remap.begin(), owner.remap.end(), payload.get(),
        [](const RemapEntry& e, const MessageBatch<M>* key) {
          return e.from < key;
        });
    if (it != owner.remap.end() && it->from == payload.get())
      payload = it->to;
  }

  // The serial slice between the waves: splice trace buffers and counters
  // (shard order = process order), canonicalize freshly interned payloads
  // across shards, and merge the shards' pregroups into per-payload
  // groups.  The only O(n) work left — copying member lists into the
  // global groups — runs as a second sharded pass; everything serial here
  // is O(shards × distinct payloads).  Scratch lives in the round arena,
  // reclaimed wholesale by the reset at the next barrier.
  void merge_eor_barrier(Round next, std::optional<Round> ud) {
    for (Shard& sh : shards_) {
      for (const EndOfRoundEvent& e : sh.eor_buf)
        trace_.record_end_of_round(e.process, e.round, e.time);
      sh.eor_buf.clear();
      sends_ += sh.sends;
      bytes_sent_ += sh.bytes;
      fault_drops_ += sh.fdrops;
      fault_dups_ += sh.fdups;
      sh.sends = sh.bytes = sh.fdrops = sh.fdups = 0;
    }
    arena_.reset();

    // Canonicalization, first discovery wins: the first shard (in shard
    // order) to intern a given content provides the network-wide object;
    // later shards record a remap from their local object.  Purely an
    // identity decision — every observable (metrics, inbox views, traces)
    // is content-based — but it preserves the serial engine's payload-
    // sharing invariant: one object per content network-wide, so receiver
    // dedup stays a pointer compare.  Sorting flat (digest, discovery-seq)
    // entries replaces the old per-digest hash buckets: same winner, no
    // node allocations.
    struct BarrierCanon {
      std::uint64_t digest;
      std::uint32_t seq;    // discovery order: shard order, in-shard order
      std::uint32_t shard;  // owner of `batch` (its remap gets the entry)
      SharedBatch<M> batch;
    };
    ArenaVector<BarrierCanon> canon{ArenaAlloc<BarrierCanon>(&arena_)};
    std::uint32_t seq = 0;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      shards_[s].remap.clear();
      for (const SharedBatch<M>& b : shards_[s].interner.fresh())
        canon.push_back({b->digest, seq++, s, b});
    }
    if (canon.size() > 1) {
      std::sort(canon.begin(), canon.end(),
                [](const BarrierCanon& a, const BarrierCanon& b) {
                  if (a.digest != b.digest) return a.digest < b.digest;
                  return a.seq < b.seq;
                });
      for (std::size_t i = 0; i < canon.size();) {
        std::size_t j = i + 1;
        while (j < canon.size() && canon[j].digest == canon[i].digest) ++j;
        for (std::size_t a = i; j - i >= 2 && a < j; ++a) {
          if (canon[a].batch == nullptr) continue;  // remapped already
          for (std::size_t b = a + 1; b < j; ++b) {
            if (canon[b].batch == nullptr) continue;
            if (canon[a].batch->msgs == canon[b].batch->msgs) {
              shards_[canon[b].shard].remap.push_back(
                  {canon[b].batch.get(), canon[a].batch});
              canon[b].batch = nullptr;
            }
          }
        }
        i = j;
      }
      for (Shard& sh : shards_)
        std::sort(sh.remap.begin(), sh.remap.end(),
                  [](const RemapEntry& a, const RemapEntry& b) {
                    return a.from < b.from;
                  });
    }

    // Merge the shards' pregroups by canonical payload.  Shard order then
    // in-shard order keeps every group's `members` globally ascending; the
    // serial half only assigns (group, offset) slots, and the member lists
    // themselves are copied shard-parallel below.
    if (!ud.has_value()) return;
    wave_groups_.clear();
    group_totals_.clear();
    struct BuildRef {
      std::uint32_t shard, pregroup, group;
      std::size_t offset;  // into the group's member list
    };
    ArenaVector<BuildRef> refs{ArenaAlloc<BuildRef>(&arena_)};
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      for (std::uint32_t i = 0; i < sh.pregroup_count; ++i) {
        SharedBatch<M> canonical = sh.pregroups[i].payload;
        remap_payload(sh, canonical);
        const std::size_t g = find_or_add_group(std::move(canonical), next);
        refs.push_back({s, i, static_cast<std::uint32_t>(g),
                        group_totals_[g]});
        group_totals_[g] += sh.pregroups[i].members.size();
      }
    }
    for (std::size_t g = 0; g < wave_groups_.size(); ++g)
      wave_groups_[g]->members.resize(group_totals_[g]);
    if (!refs.empty()) {
      const ArenaVector<BuildRef>* refp = &refs;
      WorkerPool::shared().parallel_for(
          shards_.size(),
          [this, refp](std::size_t s) {
            for (const BuildRef& br : *refp) {
              if (br.shard != s) continue;
              PreGroup& pg = shards_[s].pregroups[br.pregroup];
              std::copy(pg.members.begin(), pg.members.end(),
                        wave_groups_[br.group]->members.begin() + br.offset);
              pg.payload.reset();
              pg.members.clear();
            }
          },
          participants_);
    }
    for (std::shared_ptr<Group>& g : wave_groups_)
      group_cal_.schedule(next + *ud, std::move(g));
    wave_groups_.clear();
    if (!group_index_.empty()) group_index_.clear();
  }

  // ---- sharded path: delivery wave ------------------------------------------

  void deliver_wave(Round r) {
    group_cal_.advance_to(r);
    group_cal_.take_due_into(due_groups_);
    wave_round_ = r;
    wave_plt_ = opt_.record_trace && opt_.record_deliveries;
    WorkerPool::shared().parallel_for(
        shards_.size(),
        [this](std::size_t t) { shard_deliver(t, wave_round_, wave_plt_); },
        participants_);
    for (Shard& sh : shards_) {
      deliveries_ += sh.deliveries;
      sh.deliveries = 0;
    }
    if (wave_plt_) splice_delivery_events();
    // Retire this round's groups into the pool (sole-owner refs only):
    // steady-state rounds rebuild the same few groups, so group
    // construction stops allocating after warm-up.
    for (std::shared_ptr<const Group>& g : due_groups_) {
      if (g.use_count() != 1) continue;
      auto mg = std::const_pointer_cast<Group>(g);
      mg->payload.reset();
      mg->members.clear();
      group_pool_.push_back(std::move(mg));
    }
    due_groups_.clear();
  }

  void shard_deliver(std::size_t t, Round r, bool per_link_trace) {
    Shard& sh = shards_[t];
    // 1. Merge the last wave's outbox entries bound for this shard into
    //    this shard's calendar, remapping payloads to their canonical
    //    object.  Iterating sender shards in order reproduces the serial
    //    calendar's FIFO insertion order (round asc, sender asc, receiver
    //    asc) exactly, entry for entry.
    for (Shard& from : shards_) {
      std::vector<OutEntry>& box = from.outbox[t];
      for (OutEntry& oe : box) {
        remap_payload(from, oe.e.payload);
        sh.calendar.schedule(oe.due, std::move(oe.e));
      }
      box.clear();
    }
    // 2. Exact per-link deliveries due this round.
    sh.calendar.advance_to(r);
    sh.calendar.take_due_into(sh.due_scratch);
    for (Exact& e : sh.due_scratch) {
      if (!receives_at(e.receiver, r)) continue;
      procs_[e.receiver]->receive(e.payload, e.msg_round);
      sh.deliveries += e.payload->size();
      if (per_link_trace)
        sh.delivery_buf.push_back({e.sender, e.msg_round, e.receiver,
                                   procs_[e.receiver]->round(), r});
    }
    sh.due_scratch.clear();  // drop the payload refs until the next round
    // 3. Uniform payload groups (fast mode only; a group of g senders is
    //    one content push per alive receiver — the serial engine's g
    //    pointer-identical pushes dedup to the same view — plus exact link
    //    accounting: g messages per non-member, g-1 per member).
    for (const std::shared_ptr<const Group>& g : due_groups_) {
      const std::uint64_t sz = g->payload->size();
      const std::uint64_t gsize = g->members.size();
      if (gsize == 1) {
        // A lone member must not receive its own broadcast back: past the
        // inbox window's clamp horizon that content would no longer be in
        // its view, so the self-push would be observable.
        const ProcId lone = g->members[0];
        for (ProcId q = sh.begin; q < sh.end; ++q) {
          if (q == lone || !receives_at(q, r)) continue;
          procs_[q]->receive(g->payload, g->msg_round);
          sh.deliveries += sz;
        }
        continue;
      }
      for (ProcId q = sh.begin; q < sh.end; ++q) {
        if (!receives_at(q, r)) continue;
        procs_[q]->receive(g->payload, g->msg_round);
        sh.deliveries += sz * gsize;
      }
      // Members received from the other g-1 senders, not all g.
      auto it = std::lower_bound(g->members.begin(), g->members.end(),
                                 sh.begin);
      for (; it != g->members.end() && *it < sh.end; ++it)
        if (receives_at(*it, r)) sh.deliveries -= sz;
    }
  }

  // Per-link trace mode: reproduce the serial delivery-event order.  The
  // serial calendar records slot r in insertion order — msg_round asc,
  // then sender asc, then receiver asc — and (msg_round, sender, receiver)
  // is unique per round, so sorting the shards' buffers by that key yields
  // the serial trace byte for byte.
  void splice_delivery_events() {
    delivery_splice_.clear();
    for (Shard& sh : shards_) {
      delivery_splice_.insert(delivery_splice_.end(), sh.delivery_buf.begin(),
                              sh.delivery_buf.end());
      sh.delivery_buf.clear();
    }
    std::sort(delivery_splice_.begin(), delivery_splice_.end(),
              [](const DeliveryEvent& a, const DeliveryEvent& b) {
                if (a.msg_round != b.msg_round) return a.msg_round < b.msg_round;
                if (a.sender != b.sender) return a.sender < b.sender;
                return a.receiver < b.receiver;
              });
    for (const DeliveryEvent& e : delivery_splice_)
      trace_.record_delivery(e.sender, e.msg_round, e.receiver,
                             e.receiver_round, e.time);
  }

  std::size_t n_ = 0;
  std::vector<std::unique_ptr<GirafProcess<M>>> procs_;
  const DelayModel& delays_;
  CrashPlan crashes_;
  LockstepOptions opt_;
  Trace trace_;
  Round round_ = 0;

  // Struct-of-arrays hot state shared by both modes: the per-round scans
  // (who steps, who receives, who decided) touch these flat arrays, not
  // the process objects.  halted_ is uint8_t, not vector<bool> — shard
  // threads write disjoint indices, and bit-packing would make those
  // writes race.
  std::vector<Round> crash_round_;
  std::vector<std::uint8_t> halted_;
  std::vector<Round> decision_round_;

  // Serial reference path.
  RoundCalendar<Pending> calendar_;
  std::vector<Pending> due_scratch_;  // recycled take_due buffer (serial path)
  BatchInterner<M> interner_;

  // Sharded path (empty shards_ = serial mode).
  std::vector<Shard> shards_;
  std::size_t participants_ = 1;
  std::size_t shard_base_ = 0, shard_rem_ = 0;
  RoundCalendar<std::shared_ptr<const Group>> group_cal_;
  std::vector<std::shared_ptr<const Group>> due_groups_;
  std::vector<DeliveryEvent> delivery_splice_;
  // Wave arguments staged for the [this]-only job lambdas (read-only while
  // a wave runs), plus the barrier's group-building state: this wave's
  // groups and their member counts, a pool of retired Group objects, the
  // past-the-scan-limit hash fallback, and the barrier scratch arena.
  Round wave_round_ = 0;
  std::optional<Round> wave_ud_;
  bool wave_plt_ = false;
  std::vector<std::shared_ptr<Group>> wave_groups_;
  std::vector<std::size_t> group_totals_;
  std::vector<std::shared_ptr<Group>> group_pool_;
  std::unordered_map<const MessageBatch<M>*, std::size_t> group_index_;
  RoundArena arena_;

  std::uint64_t deliveries_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t fault_dups_ = 0;
};

}  // namespace anon

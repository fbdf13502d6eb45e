// Cohort-collapsed lock-step engine.
//
// The paper's processes are anonymous: two processes in the same state
// receive the same round-k broadcast batch (a *set* — duplicates collapse)
// and therefore take the same step.  Simulating each of the n processes
// separately is pure redundancy, so `CohortNet` simulates *equivalence
// classes* instead: one representative `GirafProcess` per class of
// identically-stated processes, plus the member list.  Per-round cost is
// O(C²) in the number of distinct states instead of O(n²) — a failure-free
// post-GST run collapses to a handful of cohorts regardless of n.
//
// Exactness.  Cohort execution is not an approximation; it reproduces the
// expanded `LockstepNet` run observation-for-observation (decision values,
// decision rounds, sends/bytes/deliveries — see tests/cohort_net_test.cpp):
//
//  * State: the algorithms' computes are multiset-invariant.  WRITTEN is an
//    intersection, PROPOSED a union, Algorithm 3's line 8 a pointwise min
//    and its line-9 bumps idempotent per distinct history — m identical
//    messages act exactly like one.  That invariance is the formal content
//    of "anonymous algorithms cannot count", and it is what makes one
//    representative delivery per (sender class, receiver class) pair
//    state-exact.
//  * Metrics: transport counters DO see multiplicity.  A class of m
//    senders broadcasting one interned payload accounts m·(n−1) link sends,
//    and a delivered broadcast accounts A·m − |S ∩ A| per-link deliveries
//    (A = alive non-halted processes, S = the sender-class snapshot): the
//    receivers see a multiset of (payload, count) pairs, weighted exactly
//    as the expanded engine would count them entry by entry.
//
// Split / merge rules:
//
//  * Split (delivery asymmetry): in rounds where `DelayModel::uniform_delay`
//    opts out, per-link delays can hand class members different batch sets.
//    Deliveries are scheduled per link; at delivery time each cohort is
//    partitioned by the *set* of (payload, msg-round) pairs its members
//    received, and every class beyond the first gets a deep copy
//    (`GirafProcess::clone`) of the representative.  Worst case (fully
//    adversarial pre-GST timing) this degrades gracefully to n singleton
//    cohorts — the expanded simulation, at the expanded price.
//  * Split (crash): a member crashing at round k shares its class's final
//    compute, then takes no further steps: its decision state is
//    finalized and it leaves the member list.  Its partial final broadcast
//    reaches two receiver sets, its final audience at the round's delay
//    and (with the relay) everyone else later.  In a uniform round each
//    set is one calendar entry, so a crash costs two entries and, at
//    delivery, one audience membership test per (member, due audience
//    entry); the members' received sets then split classes like any
//    other asymmetry.  Per-link crash entries remain only in rounds that
//    are asymmetric anyway (no uniform delay, or an active fault plan).
//  * Merge: after each delivery phase, cohorts are bucketed by state digest
//    (`Automaton::state_digest` ⊕ round ⊕ inbox content digest) and
//    buckets are confirmed with exact `state_equals`/`same_content`
//    comparison — classes whose members became indistinguishable (e.g.
//    distinct proposals converging on the decided value) re-collapse.
//
// Sharded waves (see DESIGN.md, "Sharded cohort waves"): classes are
// partitioned into contiguous shards (`engine_shards`, default one per
// `engine_threads` participant).  Each round, the *compute wave* (one
// representative end-of-round + per-shard intern per class), the alive
// count, the *delivery fan-out* (each class applies the round's
// broadcasts), the merge pass's digest loop, the decision stamps and the
// reindex loop run per shard; a barrier after the compute wave
// canonicalizes freshly interned payloads by content digest across shards
// — one object per content network-wide, so the split signatures'
// pointer-identity-is-content-identity invariant survives sharding — and
// everything order-sensitive (calendar scheduling, transport counters,
// crash bookkeeping, split and merge structure) replays serially in class
// order.  Reports are byte-identical at every thread/shard count
// (tests/cohort_net_test.cpp).  One shard IS the serial engine: there is
// no second copy of any wave, and the expanded `LockstepNet` is the
// differential oracle.
//
// Per-round scratch (the delivery partition's atoms and signatures,
// digest/merge buckets, canonicalization tables, the due-entry buffer)
// lives in flat capacity-retaining member vectors, so the steady state
// allocates nothing (tests/allocation_steady_state_test.cpp) and a crash
// round allocates per class it creates, not per member.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/calendar.hpp"
#include "core/partition.hpp"
#include "core/sweep.hpp"
#include "core/worker_pool.hpp"
#include "giraf/process.hpp"
#include "net/lockstep.hpp"
#include "net/schedule.hpp"

namespace anon {

// Counters describing how well the run collapsed (tests, benches, ops).
struct CohortStats {
  std::size_t cohorts = 0;      // current number of equivalence classes
  std::size_t max_cohorts = 0;  // peak over the run
  std::uint64_t splits = 0;     // new classes from delivery asymmetries
  std::uint64_t merges = 0;     // classes re-collapsed after converging
  std::uint64_t clones = 0;     // representative deep copies made

  std::string to_string() const;
};

struct CohortOptions {
  std::uint64_t seed = 1;
  Round max_rounds = 100000;
  bool relay_partial_broadcast = true;
  Round relay_extra_delay = 2;
  HaltPolicy halt_policy = HaltPolicy::kContinueForever;
  // Optional fault plan (env/faults.hpp), aliased for the run's lifetime.
  // An active plan forces per-link scheduling every round (fates vary by
  // link), so fault asymmetries split cohorts through the existing
  // signature-partition machinery — degradation is principled, not
  // approximate.
  const FaultPlan* faults = nullptr;
  // Worker-pool participants driving the per-round waves (0 = one per
  // hardware thread) and the cohort-shard count (0 = one per participant).
  // Reports are byte-identical at any value — see the class comment.
  std::size_t engine_threads = 1;
  std::size_t engine_shards = 0;

  // The lock-step option set, minus the trace knobs and the monitor: the
  // cohort engine records no per-process trace (a trace is exactly the
  // per-index expansion this engine exists to avoid) and feeds no monitor.
  static CohortOptions from(const LockstepOptions& o) {
    CohortOptions c;
    c.seed = o.seed;
    c.max_rounds = o.max_rounds;
    c.relay_partial_broadcast = o.relay_partial_broadcast;
    c.relay_extra_delay = o.relay_extra_delay;
    c.halt_policy = o.halt_policy;
    c.faults = o.faults;
    c.engine_threads = o.engine_threads;
    c.engine_shards = o.engine_shards;
    return c;
  }
};

template <GirafMessage M>
class CohortNet {
 public:
  // One initial equivalence class: processes that start in the same state
  // (same algorithm, same initial value).  Member sets must partition
  // [0, n).  The grouping is the caller's promise — the engine checks
  // coverage, not state equality of hypothetical expanded automatons.
  struct InitGroup {
    std::unique_ptr<Automaton<M>> automaton;
    std::vector<ProcId> members;
  };

  // NOTE: the engine aliases `delays` for its whole lifetime — the model
  // is shared, immutable and typically outlives whole sweeps, so the net
  // does not take ownership.  The rvalue overload below rejects binding a
  // temporary (which would dangle on the first delay probe) at compile
  // time; construct the model in an outer scope instead.
  CohortNet(std::vector<InitGroup> groups, const DelayModel& delays,
            CrashPlan crashes, CohortOptions opt = {})
      : delays_(delays), crashes_(std::move(crashes)), opt_(opt) {
    ANON_CHECK(!groups.empty());
    for (const InitGroup& g : groups) n_ += g.members.size();
    ANON_CHECK(n_ > 0);
    participants_ = std::max<std::size_t>(
        opt_.engine_threads == 0 ? resolve_sweep_threads(0)
                                 : opt_.engine_threads,
        1);
    shard_count_ = std::max<std::size_t>(
        opt_.engine_shards == 0 ? participants_ : opt_.engine_shards, 1);
    interners_.resize(shard_count_);
    cohort_of_.assign(n_, kNoCohort);
    decision_round_.assign(n_, kNoRound);
    // Crash events, in firing order (ties broken by process id for
    // deterministic death bookkeeping), and the per-process flag every
    // correct-member count reads.
    ever_crashes_.assign(n_, 0);
    crashes_.for_each_crash([this](ProcId p, Round round) {
      if (p >= n_) return;
      crash_events_.emplace_back(round, p);
      ever_crashes_[p] = 1;
    });
    std::sort(crash_events_.begin(), crash_events_.end());
    cohorts_.reserve(groups.size());
    for (InitGroup& g : groups) {
      ANON_CHECK(!g.members.empty());
      auto c = std::make_unique<Cohort>();
      c->rep = std::make_unique<GirafProcess<M>>(std::move(g.automaton));
      c->members = std::move(g.members);
      std::sort(c->members.begin(), c->members.end());
      for (ProcId p : c->members) {
        ANON_CHECK_MSG(p < n_ && cohort_of_[p] == kNoCohort,
                       "InitGroup members must partition [0, n)");
        cohort_of_[p] = 0;  // provisional; the reindex assigns real indices
      }
      c->correct_members = correct_count(c->members);
      cohorts_.push_back(std::move(c));
    }
    purge_sort_reindex();
    stats_.cohorts = stats_.max_cohorts = cohorts_.size();
    // Metric fast path: with no crashes and no halt policy nobody ever
    // leaves the alive∩non-halted set, so broadcast deliveries are a
    // closed-form count and entries need no sender snapshots.
    needs_snapshots_ = crashes_.crash_count() > 0 ||
                       opt_.halt_policy == HaltPolicy::kStopAfterDecide;
  }

  CohortNet(std::vector<InitGroup> groups, const DelayModel&& delays,
            CrashPlan crashes, CohortOptions opt = {}) = delete;

  std::size_t n() const { return n_; }
  Round round() const { return round_; }
  const CohortStats& stats() const { return stats_; }
  std::size_t cohort_count() const { return cohorts_.size(); }

  // Shards the engine partitions classes into.
  std::size_t engine_shards() const { return shard_count_; }

  bool is_correct(ProcId p) const {
    ANON_CHECK(p < n_);
    return ever_crashes_[p] == 0;
  }

  std::optional<Value> decision(ProcId p) const {
    ANON_CHECK(p < n_);
    if (cohort_of_[p] == kDead) return dead_decision_.at(p);
    return cohorts_[cohort_of_[p]]->rep->decision();
  }

  Round decision_round(ProcId p) const { return decision_round_[p]; }

  bool all_correct_decided() const {
    for (const auto& c : cohorts_)
      if (c->correct_members > 0 && !c->rep->decision().has_value())
        return false;
    return true;
  }

  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t sends() const { return sends_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  // Fault-plan metrics, matching LockstepNet's accounting exactly: drops
  // and duplicates per message on the link; `sends` counts attempts.
  std::uint64_t fault_drops() const { return fault_drops_; }
  std::uint64_t fault_dups() const { return fault_dups_; }

  std::size_t inbox_overflow_high_water() const {
    std::size_t hw = 0;
    for (const auto& c : cohorts_)
      hw = std::max(hw, c->rep->inboxes().overflow_high_water());
    return hw;
  }

  std::size_t inbox_overflow_dropped() const {
    std::size_t dropped = 0;
    for (const auto& c : cohorts_)
      dropped += c->rep->inboxes().overflow_dropped();
    return dropped;
  }

  // The representative of p's current equivalence class (introspection).
  const GirafProcess<M>& representative(ProcId p) const {
    ANON_CHECK(p < n_ && cohort_of_[p] != kDead);
    return *cohorts_[cohort_of_[p]]->rep;
  }

  // Observable automaton state of p, dead or alive: the class
  // representative while p lives, its death-time clone afterwards.  A
  // per-index engine keeps a crashed process's automaton around frozen at
  // its final compute; the dying member's final compute was its class's
  // (finalize_death), so the clone taken there reads byte-identically.
  const Automaton<M>& automaton_view(ProcId p) const {
    ANON_CHECK(p < n_);
    if (cohort_of_[p] == kDead) {
      const auto& frozen = dead_state_.at(p);
      ANON_CHECK(frozen != nullptr);
      return *frozen;
    }
    return cohorts_[cohort_of_[p]]->rep->automaton();
  }

  // Applies an in-place state mutation to ONE member's automaton (the
  // weak-set harnesses inject start_add this way).  If p shares a class
  // with other members it is split out first — after the mutation it is no
  // longer state-equivalent to them; the next merge pass re-collapses it
  // if the mutation turns out to be state-neutral.  Safe between rounds
  // and inside a run's stop() callback: calendar entries address processes
  // (unicast) or resolve against the class list at delivery (broadcast),
  // so membership restructuring never strands a pending message.
  template <typename Fn>
  void mutate_member(ProcId p, Fn&& fn) {
    ANON_CHECK(p < n_ && cohort_of_[p] != kDead);
    Cohort& c = *cohorts_[cohort_of_[p]];
    ANON_CHECK_MSG(!c.halted, "mutate_member on a halted class");
    if (c.members.size() == 1) {
      fn(c.rep->automaton());
      return;
    }
    ++stats_.splits;
    auto split = std::make_unique<Cohort>();
    split->rep = c.rep->clone();
    ++stats_.clones;
    split->members = {p};
    split->correct_members = is_correct(p) ? 1u : 0u;
    split->decided_noted = c.decided_noted;
    c.members.erase(std::find(c.members.begin(), c.members.end(), p));
    c.correct_members -= split->correct_members;
    fn(split->rep->automaton());
    cohorts_.push_back(std::move(split));
    purge_sort_reindex();
  }

  // Engine loop — identical phase order to LockstepNet::run, with an extra
  // (invisible to `stop`) merge pass after deliveries.
  template <typename StopFn>
  RunResult run(StopFn stop) {
    if (round_ == 0) bootstrap();
    while (round_ < opt_.max_rounds) {
      deliver_due(round_);
      merge_converged();
      if (stop(*this)) return {round_, true};
      advance_round();
      note_decisions();
    }
    return {round_, false};
  }

  RunResult run_until_all_correct_decided() {
    return run([](const CohortNet& net) { return net.all_correct_decided(); });
  }

  RunResult run_rounds(Round rounds) {
    const Round target = round_ + rounds;
    return run([target](const CohortNet& net) { return net.round() >= target; });
  }

 private:
  static constexpr std::uint32_t kNoCohort =
      std::numeric_limits<std::uint32_t>::max() - 1;
  static constexpr std::uint32_t kDead =
      std::numeric_limits<std::uint32_t>::max();

  struct Cohort {
    std::unique_ptr<GirafProcess<M>> rep;
    std::vector<ProcId> members;  // sorted ascending, all alive
    std::size_t correct_members = 0;
    bool halted = false;
    bool decided_noted = false;  // members' decision_round_ recorded
  };

  // One calendar entry.  A broadcast entry stands for `copies` identical
  // per-link sends to every other process.  A unicast entry is one link
  // (per-link delays and faults).  An audience or relay entry is one side
  // of a crashed sender's final broadcast in a uniform round: the
  // receivers in its final audience, or all the others.
  enum class Kind : std::uint8_t { kBroadcast, kUnicast, kAudience, kRelay };
  struct Pending {
    SharedBatch<M> payload;
    Round msg_round = 0;
    std::uint32_t copies = 1;
    Kind kind = Kind::kUnicast;
    ProcId peer = 0;  // unicast: the receiver; audience/relay: the sender
    // Sender-class snapshot for the delivery-count fallback; null when the
    // closed-form count applies (no crashes, no halt policy).
    std::shared_ptr<const std::vector<ProcId>> senders;
  };

  // Delivery-partition scratch (deliver_links).  An atom is one distinct
  // (msg_round, payload) pair among the round's due non-broadcast entries.
  struct UnicastRef {
    ProcId receiver = 0;
    std::uint32_t atom = 0;
  };
  struct AudienceRef {
    FinalAudience audience;
    bool inside = true;  // kAudience: its members; kRelay: the rest
    std::uint32_t atom = 0;
    std::uint64_t size = 0;  // payload messages, per matched receiver
  };
  struct SigGroup {
    std::uint32_t first = 0;  // index of its first member in the class
    std::uint32_t size = 0;
    std::uint64_t hash = 0;
  };

  // The compute wave's per-class output, staged for cross-shard payload
  // canonicalization and the serial schedule pass.
  struct WaveOut {
    SharedBatch<M> payload;
    std::size_t bytes = 0;
    bool stepped = false;  // false = class was halted before this wave
  };

  struct CanonEntry {
    std::uint64_t digest = 0;
    std::uint32_t seq = 0;  // discovery order (shard order, in-shard order)
    SharedBatch<M> batch;
  };

  struct RemapEntry {
    const MessageBatch<M>* from = nullptr;
    SharedBatch<M> to;
  };

  void bootstrap() {
    decision_round_.assign(n_, kNoRound);
    wave(1);
    round_ = 1;
  }

  void advance_round() {
    const Round next = round_ + 1;
    wave(next);
    round_ = next;
  }

  // Shard layout over the current class list: contiguous ranges covering
  // [0, count), at most shard_count_ of them, weight-balanced by member
  // count (core/partition.hpp).  Collapsed runs are a few huge classes
  // plus singleton stragglers; an equal-width cut parks all the O(n)
  // member fan-out on one worker.  Any contiguous cover is result-safe —
  // order-sensitive work replays serially in class order at the barriers.
  // One shard needs no weights: its range is the whole list.
  void rebuild_shard_ranges(std::size_t count) {
    if (shard_count_ == 1) {
      shard_ranges_.assign(1, {0, count});
      return;
    }
    balanced_ranges_weighted(
        count, std::min(shard_count_, std::max<std::size_t>(count, 1)),
        [this](std::size_t ci) {
          return static_cast<std::uint64_t>(cohorts_[ci]->members.size());
        },
        &shard_ranges_);
  }

  // Runs body(begin, end, shard) for every shard range.  Bodies write only
  // state owned by their range (and their shard's interner), so results
  // are independent of which thread ran which shard.  One participant (or
  // one range) loops inline and never touches the worker pool:
  // WorkerPool::shared() starts its threads on first use, and once a
  // process has a second thread libstdc++ makes every shared_ptr refcount
  // — each SharedBatch copy included — an atomic operation.
  template <typename Body>
  void for_each_shard(const Body& body) {
    if (participants_ == 1 || shard_ranges_.size() == 1) {
      for (std::size_t s = 0; s < shard_ranges_.size(); ++s)
        body(shard_ranges_[s].first, shard_ranges_[s].second, s);
      return;
    }
    // Captures two pointers: std::function keeps them in its small
    // buffer, so the dispatch allocates nothing.
    WorkerPool::shared().parallel_for(
        shard_ranges_.size(),
        [this, &body](std::size_t s) {
          body(shard_ranges_[s].first, shard_ranges_[s].second, s);
        },
        participants_);
  }

  // End-of-round wave k: one representative compute per class (sharded),
  // one broadcast per class (uniform rounds) or per link (asymmetric
  // rounds), and death bookkeeping for members whose crash round is k.
  void wave(Round k) {
    // Members crashing at k, grouped by class.
    std::map<std::uint32_t, std::vector<ProcId>> crashing;
    while (next_crash_ < crash_events_.size() &&
           crash_events_[next_crash_].first == k) {
      const ProcId p = crash_events_[next_crash_].second;
      ++next_crash_;
      ANON_CHECK(cohort_of_[p] != kDead && cohort_of_[p] != kNoCohort);
      crashing[cohort_of_[p]].push_back(p);
    }

    // An active fault plan makes every round link-asymmetric; forcing the
    // per-link branch routes faults through the split machinery.
    const std::optional<Round> ud =
        (opt_.faults != nullptr && opt_.faults->active())
            ? std::nullopt
            : delays_.uniform_delay(k);

    // Compute wave: end-of-round + intern, sharded over classes.  Mutates
    // only per-class state and the shard's own interner; everything
    // order-sensitive replays serially below.  One interner never holds
    // two objects with the same content, so one shard needs no barrier.
    const std::size_t count = cohorts_.size();
    wave_out_.resize(count);
    wave_round_ = k;
    rebuild_shard_ranges(count);
    for_each_shard([this](std::size_t begin, std::size_t end, std::size_t s) {
      interners_[s].round_reset();
      compute_range(begin, end, s);
    });
    if (shard_ranges_.size() > 1) canonicalize_wave_payloads();

    // Schedule wave: serial, in class order — one fold over counters,
    // calendar entries and crash bookkeeping at every shard count.
    bool structural = false;
    for (std::uint32_t ci = 0; ci < count; ++ci) {
      Cohort& c = *cohorts_[ci];
      auto itc = crashing.find(ci);
      const std::vector<ProcId>* dying =
          itc == crashing.end() ? nullptr : &itc->second;
      if (!wave_out_[ci].stepped) {
        // A halted process never executes an end-of-round — not even its
        // crash-round one (no final broadcast); its crash only removes it
        // from the alive set.
        if (dying != nullptr) {
          for (ProcId p : *dying) finalize_death(c, p, k);
          remove_dead_members(c);
          structural = true;
        }
        continue;
      }
      schedule_eor(ci, k, ud, dying);
      if (dying != nullptr) structural = true;
    }
    if (structural) purge_sort_reindex();
  }

  void compute_range(std::size_t begin, std::size_t end, std::size_t s) {
    for (std::size_t ci = begin; ci < end; ++ci) {
      Cohort& c = *cohorts_[ci];
      WaveOut& w = wave_out_[ci];
      if (c.halted) {
        w.stepped = false;
        w.payload.reset();
        continue;
      }
      auto out = c.rep->end_of_round();
      ANON_CHECK(out.round == wave_round_);
      if (opt_.halt_policy == HaltPolicy::kStopAfterDecide &&
          c.rep->decision().has_value())
        c.halted = true;  // effective next wave; this broadcast still goes
      std::size_t batch_bytes = 0;
      for (const M& m : out.batch) batch_bytes += MessageSizeOf<M>::size(m);
      w.payload = interners_[s].intern(out.batch);
      w.bytes = batch_bytes;
      w.stepped = true;
    }
  }

  // Cross-shard payload canonicalization, first discovery wins: content
  // interned by several shards this round collapses to one object
  // network-wide — the invariant that makes the split signatures' pointer
  // comparisons content comparisons.  The *choice* of winner is
  // unobservable (every observable is content-based); determinism only
  // needs it to be a pure function of content and discovery order, which
  // sorting by (digest, seq) over shard-ordered discovery gives.  All
  // scratch is capacity-retaining members: zero steady-state allocations.
  void canonicalize_wave_payloads() {
    canon_scratch_.clear();
    std::uint32_t seq = 0;
    for (std::size_t s = 0; s < shard_ranges_.size(); ++s)
      for (const SharedBatch<M>& b : interners_[s].fresh())
        canon_scratch_.push_back({b->digest, seq++, b});
    if (canon_scratch_.size() <= 1) return;
    std::sort(canon_scratch_.begin(), canon_scratch_.end(),
              [](const CanonEntry& a, const CanonEntry& b) {
                if (a.digest != b.digest) return a.digest < b.digest;
                return a.seq < b.seq;
              });
    remap_scratch_.clear();
    for (std::size_t i = 0; i < canon_scratch_.size();) {
      std::size_t j = i + 1;
      while (j < canon_scratch_.size() &&
             canon_scratch_[j].digest == canon_scratch_[i].digest)
        ++j;
      // Within a digest run, the first entry of each distinct content is
      // canonical; later content-equal ones are remapped to it.
      for (std::size_t a = i; j - i >= 2 && a < j; ++a) {
        if (canon_scratch_[a].batch == nullptr) continue;  // remapped already
        for (std::size_t b = a + 1; b < j; ++b) {
          if (canon_scratch_[b].batch == nullptr) continue;
          if (canon_scratch_[a].batch->msgs == canon_scratch_[b].batch->msgs) {
            remap_scratch_.push_back(
                {canon_scratch_[b].batch.get(), canon_scratch_[a].batch});
            canon_scratch_[b].batch = nullptr;
          }
        }
      }
      i = j;
    }
    if (remap_scratch_.empty()) return;
    std::sort(remap_scratch_.begin(), remap_scratch_.end(),
              [](const RemapEntry& a, const RemapEntry& b) {
                return a.from < b.from;
              });
    for (WaveOut& w : wave_out_) {
      if (!w.stepped) continue;
      auto it = std::lower_bound(
          remap_scratch_.begin(), remap_scratch_.end(), w.payload.get(),
          [](const RemapEntry& e, const MessageBatch<M>* key) {
            return e.from < key;
          });
      if (it != remap_scratch_.end() && it->from == w.payload.get())
        w.payload = it->to;
    }
  }

  // The serial half of the end-of-round wave for one class: transport
  // counters, calendar scheduling and crash bookkeeping, reading the
  // staged (canonicalized) payload.
  void schedule_eor(std::uint32_t ci, Round k, const std::optional<Round>& ud,
                    const std::vector<ProcId>* dying) {
    Cohort& c = *cohorts_[ci];
    const SharedBatch<M>& payload = wave_out_[ci].payload;
    const std::size_t batch_bytes = wave_out_[ci].bytes;
    const std::uint64_t msg_count = payload->size();

    const std::size_t dying_count = dying ? dying->size() : 0;
    const std::size_t survivors = c.members.size() - dying_count;
    auto is_dying = [dying](ProcId p) {
      return dying != nullptr &&
             std::find(dying->begin(), dying->end(), p) != dying->end();
    };

    if (survivors > 0) {
      if (ud.has_value()) {
        // One interned broadcast for the whole class: `survivors` senders,
        // each reaching the other n-1 processes with the same delay.
        sends_ += static_cast<std::uint64_t>(survivors) * (n_ - 1) * msg_count;
        bytes_sent_ +=
            static_cast<std::uint64_t>(survivors) * (n_ - 1) * batch_bytes;
        Pending e;
        e.payload = payload;
        e.msg_round = k;
        e.copies = static_cast<std::uint32_t>(survivors);
        e.kind = Kind::kBroadcast;
        if (needs_snapshots_) {
          if (dying_count == 0) {
            e.senders = std::make_shared<const std::vector<ProcId>>(c.members);
          } else {
            std::vector<ProcId> alive;
            alive.reserve(survivors);
            for (ProcId p : c.members)
              if (!is_dying(p)) alive.push_back(p);
            e.senders =
                std::make_shared<const std::vector<ProcId>>(std::move(alive));
          }
        }
        calendar_.schedule(k + *ud, std::move(e));
      } else {
        // Asymmetric round: per-link scheduling (the expanded engine's
        // cost, paid only while the adversary actually differentiates).
        for (ProcId p : c.members) {
          if (is_dying(p)) continue;
          for (ProcId q = 0; q < n_; ++q)
            if (q != p)
              schedule_link(k, p, q, delays_.delay(k, p, q), payload,
                            msg_count, batch_bytes);
        }
      }
    }

    // Crashing members: the final broadcast reaches only the chosen
    // audience (the rest, if relayed, late).
    if (dying != nullptr) {
      for (ProcId p : *dying) {
        const FinalAudience audience = crashes_.final_audience(p, opt_.seed);
        if (ud.has_value()) {
          schedule_final_sets(k, p, *ud, audience, payload, msg_count,
                              batch_bytes);
        } else {
          for (ProcId q = 0; q < n_; ++q) {
            if (q == p) continue;
            Round d = delays_.delay(k, p, q);
            if (!audience.contains(q)) {
              if (!opt_.relay_partial_broadcast) continue;  // lost forever
              d = std::max<Round>(d, 1) + opt_.relay_extra_delay;
            }
            schedule_link(k, p, q, d, payload, msg_count, batch_bytes);
          }
        }
        finalize_death(c, p, k);
      }
      remove_dead_members(c);
    }
  }

  // One link: p's round-k payload to q, `d` rounds out, through the fault
  // plan's fate for that link — the expanded engine's calendar entry.
  void schedule_link(Round k, ProcId p, ProcId q, Round d,
                     const SharedBatch<M>& payload, std::uint64_t msg_count,
                     std::size_t batch_bytes) {
    sends_ += msg_count;
    bytes_sent_ += batch_bytes;
    Pending e;
    e.payload = payload;
    e.msg_round = k;
    e.peer = q;
    if (opt_.faults != nullptr && opt_.faults->active()) {
      const LinkFate f = opt_.faults->fate(k, p, q);
      if (!f.deliver) {
        fault_drops_ += msg_count;
        return;
      }
      d += f.extra_delay;
      if (f.duplicate) {
        fault_dups_ += msg_count;
        calendar_.schedule(k + d + f.dup_delay, Pending(e));
      }
    }
    calendar_.schedule(k + d, std::move(e));
  }

  // A dying member's final broadcast in a uniform round.  Every audience
  // link has delay ud and every relayed link max(ud, 1) + the relay's
  // extra delay, so the broadcast is two receiver sets: one entry each,
  // matched against the members at delivery (deliver_links).  The
  // counters are the per-link loop's: n − 1 links with the relay, the
  // audience's links without it.
  void schedule_final_sets(Round k, ProcId p, Round ud,
                           const FinalAudience& audience,
                           const SharedBatch<M>& payload,
                           std::uint64_t msg_count, std::size_t batch_bytes) {
    std::uint64_t links = n_ - 1;
    if (!opt_.relay_partial_broadcast) {
      links = 0;
      for (ProcId q = 0; q < n_; ++q)
        if (q != p && audience.contains(q)) ++links;
    }
    sends_ += links * msg_count;
    bytes_sent_ += links * batch_bytes;
    Pending e;
    e.payload = payload;
    e.msg_round = k;
    e.kind = Kind::kAudience;
    e.peer = p;
    if (opt_.relay_partial_broadcast) {
      Pending relay = e;
      relay.kind = Kind::kRelay;
      calendar_.schedule(k + std::max<Round>(ud, 1) + opt_.relay_extra_delay,
                         std::move(relay));
    }
    calendar_.schedule(k + ud, std::move(e));
  }

  // Records a dying member's observable state; the class's final compute
  // of round k was its compute, so the representative speaks for it.
  void finalize_death(Cohort& c, ProcId p, Round k) {
    if (c.rep->decision().has_value() && decision_round_[p] == kNoRound)
      decision_round_[p] = k - 1;
    dead_decision_[p] = c.rep->decision();
    dead_state_[p] = c.rep->automaton().clone_state();
    cohort_of_[p] = kDead;
  }

  // Drops members already finalized as dead (cohort_of_ == kDead).
  void remove_dead_members(Cohort& c) {
    auto dead = [&](ProcId p) { return cohort_of_[p] == kDead; };
    c.members.erase(std::remove_if(c.members.begin(), c.members.end(), dead),
                    c.members.end());
  }

  void deliver_due(Round r) {
    calendar_.advance_to(r);
    calendar_.take_due_into(due_scratch_);
    if (due_scratch_.empty()) return;

    // A = alive ∩ non-halted processes, for multiplicity-weighted counts:
    // per-shard sums, folded in shard order.
    rebuild_shard_ranges(cohorts_.size());
    reduce_scratch_.resize(shard_ranges_.size());
    for_each_shard([this](std::size_t begin, std::size_t end, std::size_t s) {
      std::uint64_t sum = 0;
      for (std::size_t ci = begin; ci < end; ++ci)
        if (!cohorts_[ci]->halted) sum += cohorts_[ci]->members.size();
      reduce_scratch_[s] = sum;
    });
    std::uint64_t alive_nonhalted = 0;
    for (const std::uint64_t sum : reduce_scratch_) alive_nonhalted += sum;

    // The round's broadcasts, collected once in calendar order: the
    // fan-out below walks only these.
    bcast_scratch_.clear();
    bool any_link = false;
    for (const Pending& e : due_scratch_) {
      if (e.kind != Kind::kBroadcast) {
        any_link = true;
        continue;
      }
      bcast_scratch_.push_back(&e);
      // Metrics: Σ over alive non-halted receivers q of |S \ {q}|.
      std::uint64_t in_set = e.copies;
      if (needs_snapshots_) {
        in_set = 0;
        for (ProcId p : *e.senders)
          if (cohort_of_[p] != kDead && !cohorts_[cohort_of_[p]]->halted)
            ++in_set;
      }
      deliveries_ +=
          e.payload->size() * (alive_nonhalted * e.copies - in_set);
    }
    // State fan-out, loop-exchanged and sharded over classes: each class
    // applies the round's broadcasts in calendar order.  The sender class
    // receives its own payload too — for members that ARE the sender this
    // merely re-adds their own round message (a set no-op), exactly as
    // peers' identical broadcasts would.  The exchange is unobservable:
    // per-receiver insertion order is preserved and views sort by content.
    if (!bcast_scratch_.empty())
      for_each_shard([this](std::size_t begin, std::size_t end, std::size_t) {
        receive_broadcasts_range(begin, end);
      });
    if (any_link) deliver_links();
    due_scratch_.clear();
  }

  void receive_broadcasts_range(std::size_t begin, std::size_t end) {
    for (std::size_t ci = begin; ci < end; ++ci) {
      Cohort& c = *cohorts_[ci];
      if (c.halted) continue;
      for (const Pending* e : bcast_scratch_)
        c.rep->receive(e->payload, e->msg_round);
    }
  }

  // The delivery partition: every due entry that is not a class broadcast
  // (per-link unicasts, crash audience and relay sets), in one pass.
  // Each distinct (msg_round, payload) pair is an atom; a member's
  // signature is the sorted list of atoms it receives, and each class
  // splits by signature — the exact condition under which members stay
  // equivalent.  Payloads are interned per (content, engine round) and
  // canonicalized across shards, so pointer equality is content equality.
  void deliver_links() {
    // Atoms: the distinct (msg_round, payload) keys, sorted — the order a
    // signature is delivered in.  A sender's links land in runs sharing
    // one key, so only run heads are sorted and searched.
    auto key_less = [](const Pending* x, const Pending* y) {
      if (x->msg_round != y->msg_round) return x->msg_round < y->msg_round;
      return x->payload.get() < y->payload.get();
    };
    auto same_key = [](const Pending* x, const Pending* y) {
      return x->msg_round == y->msg_round && x->payload == y->payload;
    };
    atoms_.clear();
    for (const Pending& e : due_scratch_)
      if (e.kind != Kind::kBroadcast &&
          (atoms_.empty() || !same_key(atoms_.back(), &e)))
        atoms_.push_back(&e);
    std::sort(atoms_.begin(), atoms_.end(), key_less);
    atoms_.erase(std::unique(atoms_.begin(), atoms_.end(), same_key),
                 atoms_.end());

    // Audience sets, resolved once per entry; unicasts to alive non-halted
    // receivers (the rest drop silently), bucketed by receiver below.
    audience_scratch_.clear();
    unicast_scratch_.clear();
    touched_.assign(cohorts_.size(), 0);
    const Pending* run = nullptr;
    std::uint32_t atom = 0;
    for (const Pending& e : due_scratch_) {
      if (e.kind == Kind::kBroadcast) continue;
      if (run == nullptr || !same_key(run, &e)) {
        run = &e;
        atom = static_cast<std::uint32_t>(
            std::lower_bound(atoms_.begin(), atoms_.end(), run, key_less) -
            atoms_.begin());
      }
      if (e.kind != Kind::kUnicast) {
        audience_scratch_.push_back({crashes_.final_audience(e.peer, opt_.seed),
                                     e.kind == Kind::kAudience, atom,
                                     e.payload->size()});
        continue;
      }
      const std::uint32_t ci = cohort_of_[e.peer];
      if (ci == kDead || cohorts_[ci]->halted) continue;
      deliveries_ += e.payload->size();
      touched_[ci] = 1;
      unicast_scratch_.push_back({e.peer, atom});
    }
    // Counting sort by receiver: receiver p's atoms are
    // unicast_atoms_[unicast_begin_[p], unicast_begin_[p + 1]).
    if (!unicast_scratch_.empty()) {
      unicast_begin_.assign(n_ + 1, 0);
      for (const UnicastRef& r : unicast_scratch_)
        ++unicast_begin_[r.receiver + 1];
      for (std::size_t p = 0; p < n_; ++p)
        unicast_begin_[p + 1] += unicast_begin_[p];
      unicast_atoms_.resize(unicast_scratch_.size());
      for (const UnicastRef& r : unicast_scratch_)
        unicast_atoms_[unicast_begin_[r.receiver]++] = r.atom;
      // The fill advanced each start to the next receiver's: shift back.
      for (std::size_t p = n_; p > 0; --p)
        unicast_begin_[p] = unicast_begin_[p - 1];
      unicast_begin_[0] = 0;
    }

    bool structural = false;
    const std::size_t existing = cohorts_.size();
    for (std::uint32_t ci = 0; ci < existing; ++ci) {
      Cohort& c = *cohorts_[ci];
      if (c.halted || (!touched_[ci] && audience_scratch_.empty())) continue;
      if (!build_signatures(c, touched_[ci])) continue;  // nothing reached it
      group_signatures(c.members.size());
      if (sig_groups_.size() == 1) {
        deliver_sig(c, 0);
        continue;
      }

      // Split: the group holding the class's first member keeps the
      // representative; the others get clones, taken before any delivery.
      structural = true;
      stats_.splits += sig_groups_.size() - 1;
      const std::size_t base = cohorts_.size();
      for (std::size_t g = 1; g < sig_groups_.size(); ++g) {
        auto split = std::make_unique<Cohort>();
        split->rep = c.rep->clone();
        ++stats_.clones;
        split->members.reserve(sig_groups_[g].size);
        // halted stays false: halted classes never reach the split path.
        split->decided_noted = c.decided_noted;
        cohorts_.push_back(std::move(split));
      }
      std::size_t kept = 0;
      for (std::size_t i = 0; i < c.members.size(); ++i) {
        const ProcId p = c.members[i];
        const std::uint32_t g = sig_group_of_[i];
        if (g == 0)
          c.members[kept++] = p;
        else
          cohorts_[base + g - 1]->members.push_back(p);
      }
      c.members.resize(kept);
      for (std::size_t g = 1; g < sig_groups_.size(); ++g) {
        Cohort& split = *cohorts_[base + g - 1];
        split.correct_members = correct_count(split.members);
        deliver_sig(split, sig_groups_[g].first);
      }
      c.correct_members = correct_count(c.members);
      deliver_sig(c, sig_groups_[0].first);
    }
    if (structural) purge_sort_reindex();
  }

  // Fills sig_atoms_/sig_begin_ with each member's sorted atom list: the
  // audience sets it falls in (counting a delivery per match) plus, if
  // the class has any, its unicasts.  False when every list is empty.
  bool build_signatures(const Cohort& c, bool unicasts) {
    sig_atoms_.clear();
    sig_begin_.clear();
    bool any = false;
    for (ProcId p : c.members) {
      const std::size_t begin = sig_atoms_.size();
      sig_begin_.push_back(begin);
      for (const AudienceRef& a : audience_scratch_) {
        if (a.audience.contains(p) != a.inside) continue;
        sig_atoms_.push_back(a.atom);
        deliveries_ += a.size;
      }
      if (unicasts)
        sig_atoms_.insert(sig_atoms_.end(),
                          unicast_atoms_.begin() + unicast_begin_[p],
                          unicast_atoms_.begin() + unicast_begin_[p + 1]);
      if (sig_atoms_.size() == begin) continue;
      any = true;
      std::sort(sig_atoms_.begin() + begin, sig_atoms_.end());
      sig_atoms_.erase(
          std::unique(sig_atoms_.begin() + begin, sig_atoms_.end()),
          sig_atoms_.end());
    }
    sig_begin_.push_back(sig_atoms_.size());
    return any;
  }

  // Groups the class's members by equal signature through an
  // open-addressed table: sig_groups_ in order of first member (group 0
  // holds the class's first member), sig_group_of_ per member.
  void group_signatures(std::size_t count) {
    auto sig = [this](std::size_t i) {
      return std::pair(sig_atoms_.begin() + sig_begin_[i],
                       sig_atoms_.begin() + sig_begin_[i + 1]);
    };
    int bits = 1;
    while ((std::size_t{1} << bits) < 2 * count) ++bits;
    const std::size_t mask = (std::size_t{1} << bits) - 1;
    constexpr std::uint32_t kFree = std::numeric_limits<std::uint32_t>::max();
    sig_table_.assign(mask + 1, kFree);
    sig_groups_.clear();
    sig_group_of_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto [begin, end] = sig(i);
      std::uint64_t h = 0x2545f4914f6cdd1dULL;
      for (auto it = begin; it != end; ++it) h = detail::mix_digest(h, *it);
      std::size_t slot = (h * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
      std::uint32_t g = sig_table_[slot];
      while (g != kFree) {
        const auto [gb, ge] = sig(sig_groups_[g].first);
        if (sig_groups_[g].hash == h && std::equal(begin, end, gb, ge)) break;
        slot = (slot + 1) & mask;
        g = sig_table_[slot];
      }
      if (g == kFree) {
        g = static_cast<std::uint32_t>(sig_groups_.size());
        sig_table_[slot] = g;
        sig_groups_.push_back({static_cast<std::uint32_t>(i), 0, h});
      }
      ++sig_groups_[g].size;
      sig_group_of_[i] = g;
    }
  }

  // Applies member i's signature to class c.
  void deliver_sig(Cohort& c, std::size_t i) {
    for (std::size_t a = sig_begin_[i]; a < sig_begin_[i + 1]; ++a) {
      const Pending& e = *atoms_[sig_atoms_[a]];
      c.rep->receive(e.payload, e.msg_round);
    }
  }

  std::size_t correct_count(const std::vector<ProcId>& members) const {
    std::size_t count = 0;
    for (ProcId p : members) count += ever_crashes_[p] == 0;
    return count;
  }

  // Merge pass: digest every class (sharded), group equal digests by
  // sorting flat (digest, index) pairs — the buckets are runs in a
  // capacity-retaining scratch vector, not a node-allocating hash map —
  // confirm exact equality, absorb.  Ascending index order within a run
  // makes the lowest surviving index win at every shard count.
  void merge_converged() {
    const std::size_t count = cohorts_.size();
    if (count <= 1) return;
    merge_digests_.resize(count);
    rebuild_shard_ranges(count);
    for_each_shard([this](std::size_t begin, std::size_t end, std::size_t) {
      digest_range(begin, end);
    });
    merge_scratch_.clear();
    for (std::uint32_t i = 0; i < count; ++i)
      merge_scratch_.push_back({merge_digests_[i], i});
    std::sort(merge_scratch_.begin(), merge_scratch_.end());

    bool structural = false;
    for (std::size_t i = 0; i < count;) {
      std::size_t j = i + 1;
      while (j < count && merge_scratch_[j].first == merge_scratch_[i].first)
        ++j;
      for (std::size_t a = i; j - i >= 2 && a < j; ++a) {
        Cohort& winner = *cohorts_[merge_scratch_[a].second];
        if (winner.members.empty()) continue;  // absorbed earlier this pass
        for (std::size_t b = a + 1; b < j; ++b) {
          Cohort& loser = *cohorts_[merge_scratch_[b].second];
          if (loser.members.empty()) continue;
          if (winner.halted != loser.halted ||
              !winner.rep->same_state(*loser.rep))
            continue;
          // Absorb: merge the sorted member lists; decided bookkeeping is
          // identical by state equality (equal decision ⇒ both already
          // noted or both undecided).
          std::vector<ProcId> merged;
          merged.reserve(winner.members.size() + loser.members.size());
          std::merge(winner.members.begin(), winner.members.end(),
                     loser.members.begin(), loser.members.end(),
                     std::back_inserter(merged));
          winner.members = std::move(merged);
          winner.correct_members += loser.correct_members;
          loser.members.clear();
          ++stats_.merges;
          structural = true;
        }
      }
      i = j;
    }
    if (structural) purge_sort_reindex();
  }

  void digest_range(std::size_t begin, std::size_t end) {
    for (std::size_t ci = begin; ci < end; ++ci)
      merge_digests_[ci] = detail::mix_digest(
          cohorts_[ci]->rep->state_digest(), cohorts_[ci]->halted ? 1 : 0);
  }

  void note_decisions() {
    rebuild_shard_ranges(cohorts_.size());
    for_each_shard([this](std::size_t begin, std::size_t end, std::size_t) {
      note_decisions_range(begin, end);
    });
  }

  // Stamps decision rounds for a class range.  Classes own disjoint member
  // sets, so shard writes to decision_round_ never collide.
  void note_decisions_range(std::size_t begin, std::size_t end) {
    for (std::size_t ci = begin; ci < end; ++ci) {
      Cohort& c = *cohorts_[ci];
      if (c.decided_noted || !c.rep->decision().has_value()) continue;
      for (ProcId p : c.members)
        if (decision_round_[p] == kNoRound) decision_round_[p] = round_ - 1;
      c.decided_noted = true;
    }
  }

  // Drops emptied classes, restores the smallest-member ordering and
  // rewrites the process→class index (sharded — the one O(n) pass left on
  // structural rounds).  Only runs on structural changes (splits, merges,
  // deaths) — never on the steady-state fast path.
  void purge_sort_reindex() {
    cohorts_.erase(std::remove_if(cohorts_.begin(), cohorts_.end(),
                                  [](const std::unique_ptr<Cohort>& c) {
                                    return c->members.empty();
                                  }),
                   cohorts_.end());
    std::sort(cohorts_.begin(), cohorts_.end(),
              [](const std::unique_ptr<Cohort>& a,
                 const std::unique_ptr<Cohort>& b) {
                return a->members.front() < b->members.front();
              });
    rebuild_shard_ranges(cohorts_.size());
    for_each_shard([this](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t ci = begin; ci < end; ++ci)
        for (ProcId p : cohorts_[ci]->members)
          cohort_of_[p] = static_cast<std::uint32_t>(ci);
    });
    stats_.cohorts = cohorts_.size();
    stats_.max_cohorts = std::max(stats_.max_cohorts, cohorts_.size());
  }

  std::size_t n_ = 0;
  const DelayModel& delays_;
  CrashPlan crashes_;
  CohortOptions opt_;
  Round round_ = 0;
  std::vector<std::unique_ptr<Cohort>> cohorts_;  // sorted by members.front()
  std::vector<std::uint32_t> cohort_of_;          // per process; kDead = gone
  std::vector<Round> decision_round_;
  std::vector<std::uint8_t> ever_crashes_;  // per process
  std::map<ProcId, std::optional<Value>> dead_decision_;
  // Frozen death-time automaton clones, for automaton_view (one per
  // crashed process, cloned once in finalize_death).
  std::map<ProcId, std::unique_ptr<Automaton<M>>> dead_state_;
  std::vector<std::pair<Round, ProcId>> crash_events_;
  std::size_t next_crash_ = 0;
  RoundCalendar<Pending> calendar_;
  bool needs_snapshots_ = false;
  CohortStats stats_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t fault_dups_ = 0;

  // Shard machinery and per-round scratch, all capacity-retaining across
  // rounds.
  std::size_t shard_count_ = 1;
  std::size_t participants_ = 1;
  std::vector<std::pair<std::size_t, std::size_t>> shard_ranges_;
  std::vector<BatchInterner<M>> interners_;  // one per shard
  Round wave_round_ = 0;  // staged for the this-only-capture wave lambdas
  std::vector<WaveOut> wave_out_;  // per class, current wave
  std::vector<CanonEntry> canon_scratch_;
  std::vector<RemapEntry> remap_scratch_;
  std::vector<std::uint64_t> merge_digests_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> merge_scratch_;
  std::vector<std::uint64_t> reduce_scratch_;
  std::vector<Pending> due_scratch_;  // recycled take_due buffer
  std::vector<const Pending*> bcast_scratch_;  // due broadcasts, in order
  std::vector<const Pending*> atoms_;  // one representative entry per atom
  std::vector<std::uint8_t> touched_;  // per class: any unicast due
  std::vector<UnicastRef> unicast_scratch_;
  std::vector<std::size_t> unicast_begin_;  // per receiver, plus the end
  std::vector<std::uint32_t> unicast_atoms_;
  std::vector<AudienceRef> audience_scratch_;
  std::vector<std::uint32_t> sig_atoms_;  // signatures, back to back
  std::vector<std::size_t> sig_begin_;    // per member, plus the end
  std::vector<std::uint32_t> sig_table_;  // open-addressed group table
  std::vector<SigGroup> sig_groups_;
  std::vector<std::uint32_t> sig_group_of_;  // per member
};

// The standard cohort construction for consensus workloads: processes
// proposing the same value start in identical automaton state, so they
// form one initial equivalence class.  `make(v)` builds the class
// representative for proposal v.
template <GirafMessage M, typename MakeAutomaton>
std::vector<typename CohortNet<M>::InitGroup> groups_by_initial_value(
    const std::vector<Value>& initial, MakeAutomaton make) {
  std::map<Value, std::vector<ProcId>> by_value;
  for (ProcId p = 0; p < initial.size(); ++p) by_value[initial[p]].push_back(p);
  std::vector<typename CohortNet<M>::InitGroup> groups;
  groups.reserve(by_value.size());
  for (auto& [v, members] : by_value)
    groups.push_back({make(v), std::move(members)});
  return groups;
}

}  // namespace anon

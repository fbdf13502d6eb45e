// Algorithm 5 — emulating the MS environment from a weak-set (Theorem 4).
//
// Round progression is driven by weak-set operations instead of timers:
//   on initialization: DELIVERED := ∅; trigger end-of-round;
//   on send(m_i, k_i):  addS(⟨m_i, k_i⟩);                     (blocking)
//                       for all ⟨m,k⟩ ∈ getS \ DELIVERED: deliver;
//                       trigger end-of-round.
//
// Why this satisfies MS: for every round k, let s be the FIRST process to
// complete its round-k add.  Any process that ends round k did so after its
// own round-k add completed (≥ s's completion), and its getS — which
// happens before that end-of-round — therefore returns s's element: s has a
// timely link in round k.  The proof is executable here: the emitted trace
// is certified by check_environment (tests, E5).
//
// The weak-set is an in-memory linearizable set with adversarially-timed
// operations (per-process latency ranges — slow processes produce genuine
// round skew, something the lock-step engine cannot express).  Elements
// are ⟨message-batch, round⟩ pairs; identical elements merge (anonymity).
// Sender provenance is tracked by the SIMULATOR only (for the validator);
// the processes never see it.
//
// --- Representation (this is the emulation stack's hot path) ------------
//
// An element ⟨round, batch⟩ is INTERNED on first add: a digest-bucketed
// table maps its content to a dense id, the canonical message payload is
// built once as a `SharedBatch<M>` and every later add of equal content
// resolves to the same id (one content comparison per digest-bucket
// candidate).  The weak-set's visible part is an append-only LOG of ids;
// each process's DELIVERED set is a WATERMARK cursor into that log —
// everything before the cursor has been delivered, and a delivery step
// consumes exactly the suffix of genuinely-new ids (every step drains the
// whole suffix, so no out-of-order overflow set is needed).  Delivery
// hands the receiver the shared interned payload (a pointer append into
// its inbox window), not a fresh vector.
//
// The seed implementation — `std::set<Element>` with deep vector compares,
// a per-process `std::set<Element>` DELIVERED, and a full rescan of the
// visible set per step — is preserved as the test-only oracle
// `MsEmulationRef` (tests/ms_emulation_ref.hpp).
// tests/emulation_regression_test.cpp proves the
// two emit byte-identical traces; within one step the new suffix is
// delivered in the reference's element order (round, then canonical
// message order), which is what makes the trace equality exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "emul/emul_faults.hpp"
#include "giraf/process.hpp"
#include "giraf/trace.hpp"

namespace anon {

struct MsEmulationOptions {
  std::uint64_t seed = 1;
  // Per-op add latency is drawn uniformly from [min, max] ticks; a
  // per-process multiplier (skew) lets some processes crawl.
  std::uint64_t min_add_latency = 1;
  std::uint64_t max_add_latency = 6;
  std::vector<std::uint64_t> skew;  // per-process multiplier (default 1)
  std::uint64_t max_ticks = 1000000;
  // Weak-set-operation fault plan (emul_faults.hpp); inactive by default.
  // The test-only reference engine (MsEmulationRef) does not take one — it
  // stays the untouched oracle.
  EmulFaultModel faults;
};

template <GirafMessage M>
class MsEmulation {
 public:
  MsEmulation(std::vector<std::unique_ptr<Automaton<M>>> automatons,
              MsEmulationOptions opt)
      : opt_(opt), rng_(opt.seed) {
    ANON_CHECK(!automatons.empty());
    n_ = automatons.size();
    if (opt_.skew.empty()) opt_.skew.assign(n_, 1);
    ANON_CHECK(opt_.skew.size() == n_);
    for (auto& a : automatons)
      procs_.push_back(std::make_unique<GirafProcess<M>>(std::move(a)));
    states_.resize(n_);
    // Line 3: trigger the first end-of-round, then start the round-1 add.
    for (ProcId p = 0; p < n_; ++p) trigger_eor_and_add(p);
  }

  // Runs until every process has completed `rounds` rounds.
  // Returns false if max_ticks elapsed first.
  bool run_until_round(Round rounds) {
    for (; tick_ < opt_.max_ticks; ++tick_) {
      bool all_done = true;
      for (ProcId p = 0; p < n_; ++p)
        if (procs_[p]->round() < rounds + 1) all_done = false;
      if (all_done) return true;
      // Two phases per tick: first make the elements of ALL adds completing
      // now visible, then run the gets/end-of-rounds.  (Same-tick
      // completers must see each other's elements, otherwise no process
      // would have a timely link in that round — a tie would break MS.)
      completing_.clear();
      for (ProcId p = 0; p < n_; ++p) {
        PerProcess& st = states_[p];
        if (st.add_complete_tick != 0 && st.add_complete_tick <= tick_)
          completing_.push_back(p);
      }
      make_visible(tick_);
      for (ProcId p : completing_) log_append(states_[p].in_flight);
      for (ProcId p : completing_) finish_round_step(p);
    }
    return false;
  }

  std::size_t n() const { return n_; }
  const Trace& trace() const { return trace_; }
  const GirafProcess<M>& process(ProcId p) const { return *procs_[p]; }
  Round round(ProcId p) const { return procs_[p]->round(); }

  // Content of the emulating weak-set (visible part), for tests.
  std::size_t weak_set_size() const { return visible_log_.size(); }

  // Distinct elements ever added (visible or still pending), for tests:
  // identical adds intern to one element.
  std::size_t interned_elements() const { return elems_.size(); }

 private:
  using ElemId = std::uint32_t;

  struct ElemData {
    Round round = 0;
    SharedBatch<M> batch;        // canonical sorted-unique payload
    std::vector<ProcId> adders;  // sorted; simulator-side provenance
    bool in_log = false;
  };

  struct PerProcess {
    std::uint64_t add_complete_tick = 0;  // 0 = no add in flight
    ElemId in_flight = 0;
    std::size_t watermark = 0;  // DELIVERED ≡ visible_log_[0..watermark)
  };

  struct PendingVis {
    std::uint64_t time;
    ElemId id;
  };
  struct PendingLater {  // min-heap on time
    bool operator()(const PendingVis& a, const PendingVis& b) const {
      return a.time > b.time;
    }
  };

  struct RoundBatchKey {
    Round round;
    const MessageBatch<M>* batch;  // canonical: one pointer per content
    friend bool operator==(const RoundBatchKey&, const RoundBatchKey&) =
        default;
  };
  struct RoundBatchHash {
    std::size_t operator()(const RoundBatchKey& k) const {
      return static_cast<std::size_t>(detail::mix_digest(
          k.round, reinterpret_cast<std::uintptr_t>(k.batch)));
    }
  };

  // Interns ⟨round, batch-content⟩ to a dense id.  The payload dedup is
  // the shared BatchInterner (one content comparison per digest-bucket
  // candidate, reusing the view's cached per-message digests); never
  // round_reset here — emulation elements live forever, so the canonical
  // pointer doubles as the content key of the id map.
  ElemId intern(Round round, const InboxView<M>& view) {
    SharedBatch<M> batch = interner_.intern(view);
    auto [it, fresh] = ids_.try_emplace({round, batch.get()}, ElemId{0});
    if (fresh) {
      it->second = static_cast<ElemId>(elems_.size());
      elems_.push_back(ElemData{round, std::move(batch), {}, false});
    }
    return it->second;
  }

  void log_append(ElemId id) {
    if (elems_[id].in_log) return;
    elems_[id].in_log = true;
    visible_log_.push_back(id);
  }

  void trigger_eor_and_add(ProcId p) {
    auto out = procs_[p]->end_of_round();
    trace_.record_end_of_round(p, out.round, tick_);
    PerProcess& st = states_[p];
    st.in_flight = intern(out.round, out.batch);
    std::uint64_t lat =
        opt_.min_add_latency +
        rng_.below(opt_.max_add_latency - opt_.min_add_latency + 1);
    EmulAddFate fate;
    if (opt_.faults.active()) {
      fate = opt_.faults.add_fate(p, out.round);
      lat += fate.extra_latency;
    }
    const std::uint64_t span = lat * opt_.skew[p];
    st.add_complete_tick =
        opt_.faults.completion_tick(p, tick_ + 1 + span);
    // The element may become visible to concurrent gets any time between
    // now and completion (weak-set: concurrent adds are maybe-visible).
    // Always drawn, even when a fault suppresses the publication: the RNG
    // stream must not depend on fault fates (see emul_faults.hpp).
    const std::uint64_t vis = tick_ + 1 + rng_.below(span + 1);
    if (!fate.suppress_early_visibility) {
      pending_.push_back({vis, st.in_flight});
      std::push_heap(pending_.begin(), pending_.end(), PendingLater{});
    }
    // A process adds each element at most once (its round strictly
    // increases), so a sorted insert never sees a duplicate.
    std::vector<ProcId>& adders = elems_[st.in_flight].adders;
    adders.insert(std::lower_bound(adders.begin(), adders.end(), p), p);
  }

  void finish_round_step(ProcId p) {
    PerProcess& st = states_[p];
    st.add_complete_tick = 0;
    // getS \ DELIVERED → deliver: exactly the log suffix past the
    // watermark, presented in element order (round, canonical messages) so
    // the trace matches the reference's sorted-set iteration.
    if (st.watermark < visible_log_.size()) {
      fresh_.assign(visible_log_.begin() +
                        static_cast<std::ptrdiff_t>(st.watermark),
                    visible_log_.end());
      st.watermark = visible_log_.size();
      std::sort(fresh_.begin(), fresh_.end(), [this](ElemId a, ElemId b) {
        const ElemData& ea = elems_[a];
        const ElemData& eb = elems_[b];
        if (ea.round != eb.round) return ea.round < eb.round;
        return std::lexicographical_compare(
            ea.batch->msgs.begin(), ea.batch->msgs.end(),
            eb.batch->msgs.begin(), eb.batch->msgs.end());
      });
      for (ElemId id : fresh_) {
        const ElemData& e = elems_[id];
        procs_[p]->receive(e.batch, e.round);  // shared payload, no copy
        for (ProcId adder : e.adders) {
          if (adder == p) continue;
          trace_.record_delivery(adder, e.round, p, procs_[p]->round(), tick_);
        }
      }
    }
    // trigger end-of-round; then the next round's add begins.
    trigger_eor_and_add(p);
  }

  void make_visible(std::uint64_t now) {
    while (!pending_.empty() && pending_.front().time <= now) {
      std::pop_heap(pending_.begin(), pending_.end(), PendingLater{});
      log_append(pending_.back().id);
      pending_.pop_back();
    }
  }

  std::size_t n_;
  MsEmulationOptions opt_;
  Rng rng_;
  std::vector<std::unique_ptr<GirafProcess<M>>> procs_;
  std::vector<PerProcess> states_;
  std::vector<ElemData> elems_;  // id-indexed element store
  BatchInterner<M> interner_;    // content → canonical shared payload
  std::unordered_map<RoundBatchKey, ElemId, RoundBatchHash> ids_;
  std::vector<ElemId> visible_log_;  // append-only visible part
  std::vector<PendingVis> pending_;  // min-heap on visibility time
  std::vector<ProcId> completing_;   // per-tick scratch
  std::vector<ElemId> fresh_;        // per-step scratch (new suffix)
  Trace trace_;
  std::uint64_t tick_ = 1;
};

}  // namespace anon

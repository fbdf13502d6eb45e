// Reference (seed) implementation of the Algorithm 5 emulation, kept
// verbatim: deep-comparing `std::set<Element>` weak-set state and full
// rescans of the visible set on every delivery step.
//
// `MsEmulation` (ms_emulation.hpp) replaced this with interned element
// ids and watermark delivery; this copy exists so the refactor stays
// *checkable*: emulation_regression_test.cpp asserts the two engines
// emit byte-identical traces for identical options.  It is a test-only
// oracle, not part of the library.  Semantics documentation lives with the
// optimized engine.  Do not optimize this file.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "emul/ms_emulation.hpp"
#include "giraf/process.hpp"
#include "giraf/trace.hpp"

namespace anon {

template <GirafMessage M>
class MsEmulationRef {
 public:
  using Element = std::pair<Round, std::vector<M>>;

  MsEmulationRef(std::vector<std::unique_ptr<Automaton<M>>> automatons,
                 MsEmulationOptions opt)
      : opt_(opt), rng_(opt.seed) {
    ANON_CHECK(!automatons.empty());
    n_ = automatons.size();
    if (opt_.skew.empty()) opt_.skew.assign(n_, 1);
    ANON_CHECK(opt_.skew.size() == n_);
    for (auto& a : automatons)
      procs_.push_back(std::make_unique<GirafProcess<M>>(std::move(a)));
    states_.resize(n_);
    for (ProcId p = 0; p < n_; ++p) trigger_eor_and_add(p);
  }

  bool run_until_round(Round rounds) {
    for (; tick_ < opt_.max_ticks; ++tick_) {
      bool all_done = true;
      for (ProcId p = 0; p < n_; ++p)
        if (procs_[p]->round() < rounds + 1) all_done = false;
      if (all_done) return true;
      std::vector<ProcId> completing;
      for (ProcId p = 0; p < n_; ++p) {
        PerProcess& st = states_[p];
        if (st.add_complete_tick != 0 && st.add_complete_tick <= tick_)
          completing.push_back(p);
      }
      make_visible(tick_);
      for (ProcId p : completing) visible_.insert(states_[p].in_flight);
      for (ProcId p : completing) finish_round_step(p);
    }
    return false;
  }

  std::size_t n() const { return n_; }
  const Trace& trace() const { return trace_; }
  const GirafProcess<M>& process(ProcId p) const { return *procs_[p]; }
  Round round(ProcId p) const { return procs_[p]->round(); }
  std::size_t weak_set_size() const { return visible_.size(); }

 private:
  struct PerProcess {
    std::uint64_t add_complete_tick = 0;  // 0 = no add in flight
    Element in_flight;
    std::set<Element> delivered;  // DELIVERED
  };

  void trigger_eor_and_add(ProcId p) {
    auto out = procs_[p]->end_of_round();
    trace_.record_end_of_round(p, out.round, tick_);
    PerProcess& st = states_[p];
    st.in_flight = Element{out.round, out.batch.copy_messages()};
    const std::uint64_t lat =
        opt_.min_add_latency +
        rng_.below(opt_.max_add_latency - opt_.min_add_latency + 1);
    st.add_complete_tick = tick_ + 1 + lat * opt_.skew[p];
    const std::uint64_t vis = tick_ + 1 + rng_.below(lat * opt_.skew[p] + 1);
    pending_visible_.insert({vis, st.in_flight});
    adders_[st.in_flight].insert(p);
  }

  void finish_round_step(ProcId p) {
    PerProcess& st = states_[p];
    st.add_complete_tick = 0;
    for (const Element& e : visible_) {
      if (st.delivered.count(e) > 0) continue;
      st.delivered.insert(e);
      procs_[p]->receive(e.second, e.first);
      for (ProcId adder : adders_[e]) {
        if (adder == p) continue;
        trace_.record_delivery(adder, e.first, p, procs_[p]->round(), tick_);
      }
    }
    trigger_eor_and_add(p);
  }

  void make_visible(std::uint64_t now) {
    for (auto it = pending_visible_.begin(); it != pending_visible_.end();) {
      if (it->first <= now) {
        visible_.insert(it->second);
        it = pending_visible_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::size_t n_;
  MsEmulationOptions opt_;
  Rng rng_;
  std::vector<std::unique_ptr<GirafProcess<M>>> procs_;
  std::vector<PerProcess> states_;
  std::set<Element> visible_;
  std::multimap<std::uint64_t, Element> pending_visible_;
  std::map<Element, std::set<ProcId>> adders_;
  Trace trace_;
  std::uint64_t tick_ = 1;
};

}  // namespace anon

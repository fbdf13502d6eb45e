// Delivery timing and crash plans for the simulated broadcast network.
//
// The paper assumes a reliable broadcast primitive with adversarial timing.
// We factor the adversary into two orthogonal pieces:
//
//   * `DelayModel` — for every (round k, sender, receiver) link, how many
//     rounds the round-k message takes to arrive.  0 means *timely*: the
//     receiver gets it while still in round k, in time for its compute(k).
//     Environments (MS/ES/ESS, src/env) are concrete DelayModels that
//     guarantee the paper's round-based properties by construction.
//
//   * `CrashPlan` — which processes crash and when.  A process with crash
//     round c executes its c-th end-of-round (so compute(c−1) runs) but its
//     round-c broadcast reaches only a chosen subset, and it takes no
//     further steps.  This models a crash *during* a broadcast, the hard
//     case for fault tolerance.
//
// Delay models are usually stateless functions of (seed, k, sender,
// receiver) so that multi-thousand-round runs need no per-round storage.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "giraf/types.hpp"

namespace anon {

inline constexpr Round kNeverCrashes = std::numeric_limits<Round>::max();

// Stateless deterministic mixing of (seed, a, b, c) into a uint64; the
// building block for memory-free randomized delay models.
std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                       std::uint64_t c);

// Uniform draw in [0, bound) from a hash (bound > 0).
std::uint64_t hash_below(std::uint64_t h, std::uint64_t bound);

class DelayModel {
 public:
  virtual ~DelayModel() = default;

  // Rounds of delay for sender's round-k message on the link to receiver.
  // Must be finite (reliable broadcast).  0 = timely.
  virtual Round delay(Round k, ProcId sender, ProcId receiver) const = 0;

  // If EVERY link (sender ≠ receiver) of round k has the same delay, that
  // delay; nullopt when delays may vary by link.  This is a promise about
  // delay(k, ·, ·), not a preference: the cohort engine (net/cohort.hpp)
  // uses it to broadcast per equivalence class in O(1) instead of probing
  // all n² links, so a wrong override silently breaks the cohort/expanded
  // equivalence.  The conservative default opts out.
  virtual std::optional<Round> uniform_delay(Round k) const {
    (void)k;
    return std::nullopt;
  }

  // The process this model guarantees as the round-k source, if any
  // (informational; used by tests and metrics, never by algorithms).
  virtual std::optional<ProcId> planned_source(Round k) const {
    (void)k;
    return std::nullopt;
  }
};

// Everything timely: the fully synchronous baseline model.
class SynchronousDelays final : public DelayModel {
 public:
  Round delay(Round, ProcId, ProcId) const override { return 0; }
  std::optional<Round> uniform_delay(Round) const override { return Round{0}; }
};

struct CrashSpec {
  Round crash_round = kNeverCrashes;
  // Receivers of the final (round-`crash_round`) broadcast.  If unset, a
  // pseudo-random subset of `final_fraction` of the processes is chosen.
  std::optional<std::vector<ProcId>> final_recipients;
  double final_fraction = 0.5;
};

// One sender's final-broadcast audience, resolved once: the explicit
// recipient list or the hash draw's parameters.  A receiver test then
// costs the draw alone, with no plan lookup.  It aliases the plan's
// recipient list, so the plan must outlive it unchanged.
class FinalAudience {
 public:
  bool contains(ProcId receiver) const;

 private:
  friend class CrashPlan;
  bool everyone_ = true;  // the sender never crashes
  const std::vector<ProcId>* recipients_ = nullptr;
  std::uint64_t salted_seed_ = 0;
  ProcId sender_ = 0;
  Round crash_round_ = 0;
  double fraction_ = 0;
};

class CrashPlan {
 public:
  CrashPlan() = default;

  void set(ProcId p, CrashSpec spec) { specs_[p] = spec; }

  // Convenience: p crashes at `round` with a hash-chosen half audience.
  void crash_at(ProcId p, Round round) { specs_[p] = CrashSpec{round, {}, 0.5}; }

  Round crash_round(ProcId p) const {
    auto it = specs_.find(p);
    return it == specs_.end() ? kNeverCrashes : it->second.crash_round;
  }

  bool ever_crashes(ProcId p) const { return crash_round(p) != kNeverCrashes; }

  // Alive to execute its k-th end-of-round?  (The crash-round EOR itself
  // still executes — with a partial broadcast.)
  bool executes_eor(ProcId p, Round k) const { return k <= crash_round(p); }

  // Alive to *receive* during round k?  A process crashed at round c stops
  // taking receive steps after its c-th end-of-round, i.e. during round c.
  bool receives_in_round(ProcId p, Round k) const { return k < crash_round(p); }

  // Does `receiver` belong to the final-broadcast audience of `sender`
  // (only meaningful when k == crash_round(sender))?
  bool in_final_audience(ProcId sender, ProcId receiver, std::size_t n,
                         std::uint64_t seed) const;

  // The same predicate with the sender fixed: one lookup here, then
  // `contains(receiver)` draws exactly what in_final_audience would.
  FinalAudience final_audience(ProcId sender, std::uint64_t seed) const;

  // Processes that never crash, out of n.
  std::vector<ProcId> correct(std::size_t n) const;

  // Calls fn(p, crash_round) for every process that crashes, ascending by p.
  template <typename Fn>
  void for_each_crash(Fn fn) const {
    for (const auto& [p, spec] : specs_)
      if (spec.crash_round != kNeverCrashes) fn(p, spec.crash_round);
  }

  std::size_t crash_count() const { return specs_.size(); }

 private:
  std::map<ProcId, CrashSpec> specs_;
};

}  // namespace anon

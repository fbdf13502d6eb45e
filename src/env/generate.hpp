// Schedule generators: DelayModels that satisfy MS / ES / ESS by
// construction (the validators in env/validate.hpp independently certify
// the produced traces — belt and braces).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/value.hpp"
#include "env/environment.hpp"
#include "net/schedule.hpp"

namespace anon {

// A DelayModel realizing the requested environment against a given crash
// plan.  Stateless per query (hash-based), so arbitrarily long runs use no
// per-round memory.
//
// Source selection per round: among processes that survive past round k
// (crash_round > k); for ESS after stabilization, a fixed correct process.
// A link from the round source is always timely; after GST in ES all links
// are timely; everything else draws (timely with timely_prob, else delay in
// [1, max_delay]).
//
// Cost: the model keeps only the crashing processes, as (id, crash round)
// ascending by id, so it holds O(#crashes) memory at any n.  A
// planned_source or delay query walks that list, O(#crashes) with no
// allocation; the per-link engines call both once per link.
class EnvDelayModel final : public DelayModel {
 public:
  EnvDelayModel(EnvParams params, const CrashPlan& crashes);

  Round delay(Round k, ProcId sender, ProcId receiver) const override;
  std::optional<ProcId> planned_source(Round k) const override;

  // Rounds whose delay() provably ignores (sender, receiver) — ES after
  // GST, and the degenerate all-timely parameterizations.  Lets the cohort
  // engine skip the per-link probes entirely (net/cohort.hpp).
  std::optional<Round> uniform_delay(Round k) const override;

  const EnvParams& params() const { return params_; }

  // The fixed eventual source (ESS only).
  ProcId stable_source() const;

 private:
  struct Crash {
    ProcId id;
    Round round;
  };

  bool all_timely_at(Round k) const;
  ProcId draw_survivor(Round k, std::uint64_t h) const;

  EnvParams params_;
  std::vector<Crash> crashes_;  // ascending by id; ids below params_.n
  ProcId stable_source_ = 0;
};

// An adversarial MS model: the source moves every round and all non-source
// links are maximally late.  NOTE (documented in EXPERIMENTS.md, E8): in
// lock-step executions even this schedule lets Algorithm 2 converge — the
// per-round source relays one value to everybody and the max-adoption rule
// collapses bivalence.  The true FLP adversary needs unbounded round skew;
// see StagedRevealModel for the constructive unbounded-delay family.
class HostileMsModel final : public DelayModel {
 public:
  HostileMsModel(std::size_t n, std::uint64_t seed, Round lateness = 2);
  Round delay(Round k, ProcId sender, ProcId receiver) const override;
  std::optional<ProcId> planned_source(Round k) const override;

 private:
  std::size_t n_;
  std::uint64_t seed_;
  Round lateness_;
};

// The bivalent two-camp adversary (E8): a *constructive*, stationary
// MS-admissible schedule on which Algorithm 2 never decides — the
// executable witness for "consensus is impossible in MS" (FLP corollary
// via Theorem 4).
//
// Construction (n ≥ 3): camp A = {p0} proposes a (small); camp B =
// {p1, …} proposes b (large).  Sources alternate across camps:
//   * odd rounds:  p0 is the timely source; nothing else is delivered —
//     so p0's fresh proposal {a} reaches everyone, while camp B's fresh
//     {b} proposals reach nobody.
//   * even rounds: p1 is the timely source; nothing else is delivered —
//     p1's union message {a, b} reaches everyone.
// Invariants (per cycle): camp B's WRITTEN at even rounds is {a, b}, so it
// re-adopts max = b and keeps proposing b; p0's WRITTEN is {a}, so it
// keeps a; every process's PROPOSED contains both a and b at even rounds,
// so the decision test (PROPOSED = {VAL}) fails everywhere, forever.  The
// run is bivalent for eternity, yet every round has a timely source — a
// legal MS run.  (See EXPERIMENTS.md/E8; naive "hostile" schedules with
// a single information flow actually let Algorithm 2 converge.)
class BivalentMsModel final : public DelayModel {
 public:
  explicit BivalentMsModel(std::size_t n);
  Round delay(Round k, ProcId sender, ProcId receiver) const override;
  std::optional<ProcId> planned_source(Round k) const override;
  // Initial values realizing the two camps (p0 small, others large).
  static std::vector<Value> initial_values(std::size_t n);

 private:
  std::size_t n_;
};

// The E1.b adversary: the bivalent two-camp MS schedule rules until GST,
// full synchrony afterwards.  Under it Algorithm 2 cannot decide before
// GST, so the decision round tracks GST plus a small constant — the
// paper's termination shape with the ES promise made tight.
class BivalentUntilGstModel final : public DelayModel {
 public:
  BivalentUntilGstModel(std::size_t n, Round gst);
  Round delay(Round k, ProcId sender, ProcId receiver) const override;
  std::optional<ProcId> planned_source(Round k) const override;

 private:
  BivalentMsModel camps_;
  Round gst_;
};

}  // namespace anon

// Algorithm 2 — consensus in the ES (eventual synchrony) environment.
//
// Message: the process's current PROPOSED set of values.  Rounds alternate:
//   * odd-round messages are fresh proposal singletons {VAL} (reset at the
//     previous even compute),
//   * even-round messages are the *unions* of everything seen in the odd
//     round (no reset at odd computes) — these unions are what make the
//     decision test safe: deciding requires that nobody saw a foreign value.
//
// A value is *written* when it appears in every message of a round — in
// particular in the round source's message, hence (by the source's timely
// link) it is known to everybody (Lemma 1).
//
// Decision (even round k): PROPOSED = WRITTENOLD = {VAL}.
//
// Listing-ambiguity note (see DESIGN.md): `WRITTENOLD := WRITTEN` executes
// every round — Lemma 2's proof steps from WRITTENOLD^k to WRITTEN^{k−1} —
// while the `PROPOSED := {VAL}` reset is even-round-only (resetting every
// round would replace union messages with singletons and break agreement;
// tests/algo_variants_test.cpp exhibits the failure).
//
// decide/halt: after deciding, the automaton keeps returning the frozen
// {VAL} message so the environment stays satisfiable (HaltPolicy).
#pragma once

#include <optional>

#include "common/value.hpp"
#include "giraf/automaton.hpp"
#include "net/lockstep.hpp"

namespace anon {

// Its wire size, MessageSizeOf<ValueSet>, is defined in net/lockstep.hpp.
using EsMessage = ValueSet;

class EsConsensus final : public Automaton<EsMessage> {
 public:
  explicit EsConsensus(Value initial);

  EsMessage initialize() override;
  EsMessage compute(Round k, const Inboxes<EsMessage>& inboxes) override;
  std::optional<Value> decision() const override { return decision_; }

  // Cohort hooks: digest/equality over the full mutable state (VAL, the
  // three sets, the decision).  `initial_` is deliberately excluded — it is
  // only read by initialize(), so processes that proposed differently but
  // converged are genuinely equivalent from here on.  Variant knobs DO
  // steer compute() and are compared.
  std::uint64_t state_digest() const override;
  bool state_equals(const Automaton<EsMessage>& other) const override;
  std::unique_ptr<Automaton<EsMessage>> clone_state() const override {
    return std::make_unique<EsConsensus>(*this);
  }

  // Introspection for tests/metrics.
  const Value& val() const { return val_; }
  const ValueSet& proposed() const { return proposed_; }
  const ValueSet& written() const { return written_; }
  const ValueSet& written_old() const { return written_old_; }

  // --- Variant knobs for the ablation tests (default = paper semantics) ---
  struct Variants {
    bool written_old_every_round = true;  // false: only at even rounds
    bool reset_proposed_every_round = false;  // true: broken variant
  };
  EsConsensus(Value initial, Variants variants);

 private:
  Value initial_;
  Variants variants_;

  Value val_;
  ValueSet proposed_;
  ValueSet written_;
  ValueSet written_old_;
  std::optional<Value> decision_;
};

}  // namespace anon

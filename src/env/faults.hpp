// Seeded, deterministic fault plans injected into the delivery path of
// both simulation engines (net/lockstep.hpp, net/cohort.hpp).
//
// The paper's model is crash-only: broadcasts are reliable and n is fixed.
// A production network is not — links lose, duplicate, and reorder
// messages, senders can be omission-faulty (alive but with dead outbound
// links), and processes leave and rejoin.  `FaultPlan` layers those faults
// on top of a DelayModel *without touching protocol code*: every fault is
// a pure function of (fault seed, round, sender, receiver), so the
// expanded and cohort engines compute identical fates and reports stay
// byte-identical at every thread/shard count.
//
// Fault taxonomy (all per-link, decided at the sender's end-of-round):
//
//   loss       the round-k message on link (s → r) is silently dropped
//   duplicate  the message is delivered twice, the copy `dup_extra_delay`
//              rounds later (inbox views are sets, so a same-round copy
//              would be invisible; the delay makes duplication observable)
//   reorder    the message takes up to `max_extra_delay` extra rounds,
//              on top of whatever the DelayModel already said
//   omission   every outbound link of a listed sender is dead, forever
//   churn      during [leave, rejoin) a process's links are down in both
//              directions; the process itself keeps executing rounds, so
//              its first post-rejoin broadcast is its re-announcement
//
// Safety contract: with `exempt_source` set (the default), links FROM the
// round's planned source (DelayModel::planned_source) are exempt from every
// fault.  Every correct process then still receives the source's round-k
// batch, which is exactly the property Algorithm 2's agreement proof
// needs — so safety holds under arbitrary fault intensity and only
// termination degrades.  Clearing `exempt_source` deliberately breaks that
// contract to map where the guarantees fail (the E14 survival map).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "giraf/types.hpp"
#include "net/schedule.hpp"

namespace anon {

// Process `process` is disconnected (links down both ways) during
// [leave, rejoin).  rejoin == 0 means it never comes back.
struct ChurnSpec {
  ProcId process = 0;
  Round leave = 0;
  Round rejoin = 0;

  friend bool operator==(const ChurnSpec&, const ChurnSpec&) = default;
};

// The declarative fault surface carried by ScenarioSpec / ConsensusConfig.
// Value semantics on purpose: configs are copied into sweep grids, so the
// plan object proper (FaultPlan) is rebuilt per run from these parameters.
struct FaultParams {
  // 0 = derive the fault stream from the run seed (fault_stream_seed);
  // nonzero pins the stream independently of the run seed.
  std::uint64_t seed = 0;

  double loss_prob = 0;     // per-link drop probability
  double dup_prob = 0;      // per-link duplication probability
  Round dup_extra_delay = 1;  // >= 1: copy arrives this many rounds later
  double reorder_prob = 0;  // per-link extra-delay probability
  Round max_extra_delay = 4;  // reorder adds 1..max_extra_delay rounds

  std::vector<ProcId> omission_senders;  // dead outbound links, forever
  std::vector<ChurnSpec> churn;          // leave/rejoin windows

  // Exempt links from the planned per-round source from all faults (keeps
  // the env contract honest; see the safety contract above).
  bool exempt_source = true;

  bool active() const {
    return loss_prob > 0 || dup_prob > 0 || reorder_prob > 0 ||
           !omission_senders.empty() || !churn.empty();
  }

  friend bool operator==(const FaultParams&, const FaultParams&) = default;
};

// The per-link verdict: deliver at all, how much extra delay, and whether
// a delayed duplicate copy is also scheduled.
struct LinkFate {
  bool deliver = true;
  Round extra_delay = 0;
  bool duplicate = false;
  Round dup_delay = 1;  // rounds AFTER the primary copy's delivery round
};

// Deterministic Bernoulli draw from a 64-bit hash (53-bit mantissa
// uniform).  Shared with svc/jitter.hpp's JitterPolicy so the simulated
// and live backends read the same loss knob identically.
bool hash_chance(std::uint64_t h, double prob);

// The fault stream seed for a run: the plan's own seed when pinned,
// otherwise a salted derivation from the run seed (so the fault stream is
// decorrelated from the delay/crash streams that consume the raw seed).
std::uint64_t fault_stream_seed(std::uint64_t run_seed,
                                std::uint64_t plan_seed);

// A compiled fault plan for one run.  Stateless after construction;
// `fate` is pure in (round, sender, receiver), so any engine — expanded,
// or cohort at any shard count — computes identical verdicts in any order.
class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(const FaultParams& params, std::uint64_t run_seed, std::size_t n,
            const DelayModel* delays);

  bool active() const { return active_; }

  // The fate of sender's round-k message on the link to receiver.
  // Exemption (planned source), omission, and churn are folded in here so
  // engines need exactly one call per link.
  LinkFate fate(Round k, ProcId sender, ProcId receiver) const;

  // Is p inside one of its churn windows during round k?
  bool down(ProcId p, Round k) const;

  bool omission_faulty(ProcId p) const {
    return p < omission_.size() && omission_[p];
  }

  std::uint64_t seed() const { return seed_; }

 private:
  bool exempt(Round k, ProcId sender) const;

  FaultParams params_;
  std::uint64_t seed_ = 0;
  const DelayModel* delays_ = nullptr;
  std::vector<bool> omission_;  // indexed by ProcId, sized n
  bool active_ = false;
};

}  // namespace anon

// Fault safety on both engines: agreement and validity under any seeded
// fault plan while the planned source stays exempt, the no-progress
// watchdog's graceful `undecided` outcome, and the compile-time guard
// that keeps either engine from aliasing a temporary DelayModel.
#include "net/lockstep.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "algo/es_consensus.hpp"
#include "algo/runner.hpp"
#include "common/rng.hpp"
#include "net/cohort.hpp"

namespace anon {
namespace {

// ---------------------------------------------------------------------------
// Compile-time lifetime guard: both engines alias their DelayModel for the
// whole run, so binding a temporary must be rejected at compile time, not
// discovered by ASan at the first probe.

static_assert(
    !std::is_constructible_v<LockstepNet<EsMessage>,
                             std::vector<std::unique_ptr<Automaton<EsMessage>>>,
                             SynchronousDelays, CrashPlan, LockstepOptions>,
    "LockstepNet must reject a temporary DelayModel");
static_assert(
    std::is_constructible_v<LockstepNet<EsMessage>,
                            std::vector<std::unique_ptr<Automaton<EsMessage>>>,
                            const SynchronousDelays&, CrashPlan,
                            LockstepOptions>,
    "LockstepNet must accept an lvalue DelayModel");
static_assert(
    !std::is_constructible_v<CohortNet<EsMessage>,
                             std::vector<CohortNet<EsMessage>::InitGroup>,
                             SynchronousDelays, CrashPlan, CohortOptions>,
    "CohortNet must reject a temporary DelayModel");
static_assert(
    std::is_constructible_v<CohortNet<EsMessage>,
                            std::vector<CohortNet<EsMessage>::InitGroup>,
                            const SynchronousDelays&, CrashPlan, CohortOptions>,
    "CohortNet must accept an lvalue DelayModel");

// ---------------------------------------------------------------------------

TEST(FaultSafety, AgreementAndValidityHoldUnderAnySeededFaultPlan) {
  // The safety contract: with the planned source exempt (the default),
  // agreement and validity must hold under ANY fault intensity, on both
  // backends — only termination may degrade (bounded here by a watchdog,
  // never by an abort).
  for (std::uint64_t i = 0; i < 20; ++i) {
    Rng rng(0xab5afe + i * 613);
    ConsensusConfig cfg;
    const ConsensusAlgo algo =
        (i % 2 == 0) ? ConsensusAlgo::kEs : ConsensusAlgo::kEss;
    cfg.env.kind = (i % 2 == 0) ? EnvKind::kES : EnvKind::kESS;
    cfg.env.n = 3 + static_cast<std::size_t>(rng.below(10));
    cfg.env.seed = rng.below(1u << 30);
    cfg.env.stabilization = static_cast<Round>(rng.below(5));
    cfg.initial = random_values(cfg.env.n, cfg.env.seed + 3, 100, 104);
    cfg.net.seed = cfg.env.seed;
    cfg.net.max_rounds = 1500;
    cfg.watchdog_rounds = 300;
    cfg.validate_env = false;  // the cohort backend records no trace
    cfg.backend = (i % 3 == 0) ? ConsensusBackend::kCohort
                               : ConsensusBackend::kExpanded;
    cfg.faults.loss_prob = 0.5 * rng.real();  // up to heavy loss
    cfg.faults.dup_prob = 0.4 * rng.real();
    cfg.faults.reorder_prob = 0.4 * rng.real();
    cfg.faults.max_extra_delay = 1 + static_cast<Round>(rng.below(5));
    if (i % 4 == 2)
      cfg.faults.omission_senders = {
          static_cast<ProcId>(rng.below(cfg.env.n))};
    if (i % 5 == 3)
      cfg.faults.churn.push_back(
          {static_cast<ProcId>(rng.below(cfg.env.n)),
           1 + static_cast<Round>(rng.below(6)), 0});
    const ConsensusReport rep = run_consensus(algo, cfg);
    EXPECT_TRUE(rep.agreement) << "i=" << i << " " << rep.to_string();
    EXPECT_TRUE(rep.validity) << "i=" << i << " " << rep.to_string();
  }
}

TEST(FaultWatchdog, TotalLossSplitsIntoSoloDecisions) {
  // exempt_source = false and loss_prob = 1: nobody ever hears anyone
  // else.  Under anonymity total isolation is indistinguishable from
  // n = 1, so every process decides *its own* value within a few rounds —
  // the run terminates, but agreement is gone.  (This is why a starving
  // run cannot be built from isolation alone: see the stalled-run test.)
  for (const ConsensusBackend backend :
       {ConsensusBackend::kExpanded, ConsensusBackend::kCohort}) {
    ConsensusConfig cfg;
    cfg.env.kind = EnvKind::kES;
    cfg.env.n = 4;
    cfg.env.seed = 9;
    cfg.initial = distinct_values(cfg.env.n);
    cfg.net.seed = 9;
    cfg.net.max_rounds = 5000;
    cfg.backend = backend;
    cfg.validate_env = false;
    cfg.faults.loss_prob = 1.0;
    cfg.faults.exempt_source = false;
    const ConsensusReport rep = run_consensus(ConsensusAlgo::kEs, cfg);
    EXPECT_TRUE(rep.all_correct_decided) << to_string(backend);
    EXPECT_FALSE(rep.agreement) << to_string(backend);  // distinct solos
    EXPECT_TRUE(rep.validity) << to_string(backend);
    EXPECT_FALSE(rep.undecided) << to_string(backend);
    EXPECT_LT(rep.last_decision_round, 10u) << to_string(backend);
    EXPECT_GT(rep.fault_drops, 0u) << to_string(backend);
  }
}

// The directed stalled run: at this (seed, fault mix) the free run's last
// straggler needs until round 378 to decide (loss + stale duplicates keep
// resurrecting conflicting values into its PROPOSED), with a > 40-round
// gap after the previous decision at round 46.  Pinned by probing; both
// engines compute identical fates, so the numbers below are exact.
ConsensusConfig stalled_run_config() {
  ConsensusConfig cfg;
  cfg.env.kind = EnvKind::kES;
  cfg.env.n = 8;
  cfg.env.seed = 11;
  cfg.env.stabilization = 6;
  cfg.initial = distinct_values(cfg.env.n);
  cfg.net.seed = 11;
  cfg.net.max_rounds = 6000;
  cfg.validate_env = false;
  cfg.faults.loss_prob = 0.3;
  cfg.faults.dup_prob = 0.3;
  cfg.faults.dup_extra_delay = 3;
  cfg.faults.reorder_prob = 0.4;
  cfg.faults.max_extra_delay = 4;
  cfg.faults.omission_senders = {0};
  cfg.faults.churn.push_back({1, 3, 30});
  cfg.faults.exempt_source = false;
  return cfg;
}

TEST(FaultWatchdog, StalledRunEndsUndecidedInsteadOfSpinning) {
  // The watchdog is a patience bound: no new decision for 40 rounds ends
  // the run with a graceful `undecided` on both backends, hundreds of
  // rounds before the straggler would have decided (or max_rounds hit).
  for (const ConsensusBackend backend :
       {ConsensusBackend::kExpanded, ConsensusBackend::kCohort}) {
    ConsensusConfig cfg = stalled_run_config();
    cfg.watchdog_rounds = 40;
    cfg.backend = backend;
    const ConsensusReport rep = run_consensus(ConsensusAlgo::kEs, cfg);
    EXPECT_TRUE(rep.undecided) << to_string(backend);
    EXPECT_FALSE(rep.all_correct_decided) << to_string(backend);
    EXPECT_FALSE(rep.hit_round_limit) << to_string(backend);
    EXPECT_LT(rep.rounds_executed, 120u) << to_string(backend);
    EXPECT_TRUE(rep.validity) << to_string(backend);
    EXPECT_GT(rep.fault_drops, 0u) << to_string(backend);
    EXPECT_GT(rep.fault_dups, 0u) << to_string(backend);
  }
}

TEST(FaultWatchdog, OffByDefaultStillRunsToTheRoundLimit) {
  // watchdog_rounds = 0 keeps the old contract: the same stalled run
  // exhausts a small max_rounds and reports hit_round_limit, not
  // undecided — and given room, it eventually decides everywhere.
  ConsensusConfig cfg = stalled_run_config();
  cfg.net.max_rounds = 120;
  const ConsensusReport rep = run_consensus(ConsensusAlgo::kEs, cfg);
  EXPECT_FALSE(rep.undecided);
  EXPECT_TRUE(rep.hit_round_limit);
  EXPECT_FALSE(rep.all_correct_decided);

  ConsensusConfig free_cfg = stalled_run_config();
  const ConsensusReport free_rep = run_consensus(ConsensusAlgo::kEs, free_cfg);
  EXPECT_TRUE(free_rep.all_correct_decided);
  EXPECT_EQ(free_rep.last_decision_round, 378u);
  EXPECT_FALSE(free_rep.undecided);
}

}  // namespace
}  // namespace anon

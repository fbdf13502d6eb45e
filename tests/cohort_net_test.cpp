// CohortNet (PR 3 tentpole): cohort-collapsed execution must be
// OBSERVATION-EQUIVALENT to the expanded LockstepNet — identical decision
// values, decision rounds and per-round aggregate transport metrics — for
// randomized (seed, environment, crash-plan) configurations, while
// actually collapsing (few cohorts) when the run is symmetric and
// degrading to singletons when the adversary differentiates everyone.
#include "net/cohort.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/es_consensus.hpp"
#include "algo/ess_consensus.hpp"
#include "algo/runner.hpp"
#include "common/rng.hpp"
#include "env/generate.hpp"
#include "net/lockstep.hpp"
#include "sim/experiment.hpp"

namespace anon {
namespace {

// ---------------------------------------------------------------------------
// Harness: run the same configuration through both engines and compare
// every observation the engines share.

struct Observed {
  Round rounds = 0;
  bool stopped = false;
  std::vector<std::optional<Value>> decisions;
  std::vector<Round> decision_rounds;
  std::uint64_t sends = 0, bytes = 0, deliveries = 0;
  std::uint64_t fault_drops = 0, fault_dups = 0;
};

template <typename Net>
Observed observe(Net& net, RunResult run) {
  Observed o;
  o.rounds = run.rounds;
  o.stopped = run.stopped;
  for (ProcId p = 0; p < net.n(); ++p) {
    o.decisions.push_back(net.decision(p));
    o.decision_rounds.push_back(net.decision_round(p));
  }
  o.sends = net.sends();
  o.bytes = net.bytes_sent();
  o.deliveries = net.deliveries();
  o.fault_drops = net.fault_drops();
  o.fault_dups = net.fault_dups();
  return o;
}

void expect_equal(const Observed& a, const Observed& b,
                  const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.stopped, b.stopped) << what;
  EXPECT_EQ(a.sends, b.sends) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.deliveries, b.deliveries) << what;
  EXPECT_EQ(a.fault_drops, b.fault_drops) << what;
  EXPECT_EQ(a.fault_dups, b.fault_dups) << what;
  ASSERT_EQ(a.decisions.size(), b.decisions.size()) << what;
  for (std::size_t p = 0; p < a.decisions.size(); ++p) {
    EXPECT_EQ(a.decisions[p], b.decisions[p]) << what << " p=" << p;
    EXPECT_EQ(a.decision_rounds[p], b.decision_rounds[p]) << what << " p=" << p;
  }
}

struct Scenario {
  ConsensusAlgo algo = ConsensusAlgo::kEs;
  EnvParams env;
  CrashPlan crashes;
  std::vector<Value> initial;
  FaultParams faults;  // compiled into a FaultPlan by the harness
  LockstepOptions net;
};

std::vector<std::unique_ptr<Automaton<EsMessage>>> es_autos(
    const std::vector<Value>& initial) {
  std::vector<std::unique_ptr<Automaton<EsMessage>>> autos;
  for (const Value& v : initial) autos.push_back(std::make_unique<EsConsensus>(v));
  return autos;
}

std::vector<CohortNet<EsMessage>::InitGroup> es_groups(
    const std::vector<Value>& initial) {
  return groups_by_initial_value<EsMessage>(
      initial, [](const Value& v) { return std::make_unique<EsConsensus>(v); });
}

std::vector<CohortNet<EssMessage>::InitGroup> ess_groups(
    const std::vector<Value>& initial, HistoryArena* arena) {
  return groups_by_initial_value<EssMessage>(
      initial, [arena](const Value& v) {
        return std::make_unique<EssConsensus>(v, arena);
      });
}

// Runs the scenario on both engines (to decision or round limit) and
// checks observation equivalence.  Returns the cohort stats for shape
// assertions.
CohortStats check_equivalent(const Scenario& sc, const std::string& what) {
  const EnvDelayModel delays(sc.env, sc.crashes);
  const FaultPlan plan(sc.faults, sc.net.seed, sc.env.n, &delays);
  LockstepOptions net = sc.net;
  if (plan.active()) net.faults = &plan;
  Observed expanded, cohort;
  CohortStats stats;
  if (sc.algo == ConsensusAlgo::kEs) {
    LockstepNet<EsMessage> e(es_autos(sc.initial), delays, sc.crashes, net);
    expanded = observe(e, e.run_until_all_correct_decided());
    CohortNet<EsMessage> c(es_groups(sc.initial), delays, sc.crashes,
                           CohortOptions::from(net));
    cohort = observe(c, c.run_until_all_correct_decided());
    stats = c.stats();
  } else {
    HistoryArena arena_e;
    std::vector<std::unique_ptr<Automaton<EssMessage>>> autos;
    for (const Value& v : sc.initial)
      autos.push_back(std::make_unique<EssConsensus>(v, &arena_e));
    LockstepNet<EssMessage> e(std::move(autos), delays, sc.crashes, net);
    expanded = observe(e, e.run_until_all_correct_decided());
    HistoryArena arena_c;
    CohortNet<EssMessage> c(ess_groups(sc.initial, &arena_c), delays,
                            sc.crashes, CohortOptions::from(net));
    cohort = observe(c, c.run_until_all_correct_decided());
    stats = c.stats();
  }
  expect_equal(expanded, cohort, what);
  return stats;
}

// ---------------------------------------------------------------------------

TEST(CohortEquivalence, RandomizedConfigsAgreeWithExpandedExecution) {
  // ≥ 50 randomized (seed, env, crash-plan) configurations across both
  // algorithms, ES and ESS environments, clustered and distinct initial
  // values, 0–3 crashes, n ≤ 32; a quarter also inject a fault plan.
  std::size_t checked = 0, faulted = 0;
  for (std::uint64_t cfg = 0; cfg < 56; ++cfg) {
    Rng rng(0xc0ff33 + cfg * 977);
    Scenario sc;
    sc.algo = (cfg % 2 == 0) ? ConsensusAlgo::kEs : ConsensusAlgo::kEss;
    sc.env.kind = (cfg % 4 < 2) ? EnvKind::kES : EnvKind::kESS;
    sc.env.n = 2 + static_cast<std::size_t>(rng.below(31));  // 2..32
    sc.env.seed = rng.below(1u << 30);
    sc.env.stabilization = static_cast<Round>(rng.below(7));
    sc.env.max_delay = 1 + static_cast<Round>(rng.below(3));
    sc.env.timely_prob = 0.1 + 0.3 * rng.real();
    const std::size_t f =
        std::min<std::size_t>(sc.env.n - 1, rng.below(4));  // 0..3 crashes
    if (f > 0)
      sc.crashes = random_crashes(
          sc.env.n, f, std::max<Round>(2, sc.env.stabilization + 2),
          sc.env.seed + 13);
    // Half the configs propose from a small value domain so same-value
    // clusters exist; the other half propose all-distinct values.
    sc.initial = (cfg % 3 == 0)
                     ? distinct_values(sc.env.n)
                     : random_values(sc.env.n, sc.env.seed + 7, 100, 103);
    sc.net.seed = sc.env.seed;
    sc.net.max_rounds = 4000;
    sc.net.record_trace = false;
    sc.net.relay_partial_broadcast = (cfg % 5 != 4);
    if (cfg % 4 == 3) {  // drawn last: the other draws stay as they were
      sc.faults.loss_prob = 0.15 * rng.real();
      sc.faults.dup_prob = 0.2 * rng.real();
      sc.faults.dup_extra_delay = 1 + static_cast<Round>(rng.below(3));
      sc.faults.reorder_prob = 0.2 * rng.real();
      sc.faults.max_extra_delay = 1 + static_cast<Round>(rng.below(3));
      if (cfg % 8 == 3)
        sc.faults.omission_senders = {
            static_cast<ProcId>(rng.below(sc.env.n))};
      ++faulted;
    }
    const CohortStats stats =
        check_equivalent(sc, "cfg " + std::to_string(cfg));
    EXPECT_LE(stats.max_cohorts, sc.env.n);
    ++checked;
  }
  EXPECT_GE(checked, 50u);
  EXPECT_GE(faulted, 12u);
}

TEST(CohortEquivalence, PerRoundMetricSeriesMatchesExpanded) {
  // Fixed-horizon stepping: the cumulative (sends, bytes, deliveries)
  // series must match round for round, not just at the end.
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    Scenario sc;
    sc.env.kind = EnvKind::kES;
    sc.env.n = 9;
    sc.env.seed = seed;
    sc.env.stabilization = 4;
    sc.crashes.crash_at(2, 3);
    sc.initial = random_values(sc.env.n, seed, 100, 102);
    sc.net.seed = seed;
    sc.net.record_trace = false;

    const EnvDelayModel delays(sc.env, sc.crashes);
    LockstepNet<EsMessage> e(es_autos(sc.initial), delays, sc.crashes, sc.net);
    CohortNet<EsMessage> c(es_groups(sc.initial), delays, sc.crashes,
                           CohortOptions::from(sc.net));
    const auto se = collect_round_series(e, 30);
    const auto sc2 = collect_round_series(c, 30);
    ASSERT_EQ(se.size(), sc2.size());
    for (std::size_t i = 0; i < se.size(); ++i)
      EXPECT_EQ(se[i], sc2[i]) << "seed " << seed << " step " << i << ": "
                               << se[i].to_string() << " vs "
                               << sc2[i].to_string();
  }
}

TEST(CohortSplit, CrashInsideACohortMidRoundSplitsAudienceFromRest) {
  // One big cohort (identical proposals); one member crashes mid-run in a
  // fully uniform environment.  The partial final broadcast reaches only
  // its audience (the rest sees it relayed, late), which must split the
  // receivers — and the run must still match expanded execution exactly.
  Scenario sc;
  sc.algo = ConsensusAlgo::kEs;
  sc.env.kind = EnvKind::kES;
  sc.env.n = 8;
  sc.env.seed = 5;
  sc.env.stabilization = 0;  // uniform from round 1: only the crash differs
  CrashSpec spec;
  spec.crash_round = 3;
  spec.final_recipients = std::vector<ProcId>{0, 1, 2};  // a proper subset
  sc.crashes.set(3, spec);
  sc.initial = identical_values(sc.env.n, 7);
  sc.net.seed = 5;
  sc.net.record_trace = false;
  const CohortStats stats = check_equivalent(sc, "crash mid-round");
  EXPECT_GE(stats.splits, 1u);       // audience vs non-audience
  EXPECT_GE(stats.max_cohorts, 2u);
  EXPECT_LT(stats.max_cohorts, 8u);  // but nowhere near full expansion
}

TEST(CohortMerge, DistinctInitialValuesConvergeAndRemerge) {
  // Two initial classes; a failure-free uniform run drives every process
  // to the same decided state — the classes must merge back into one.
  Scenario sc;
  sc.algo = ConsensusAlgo::kEs;
  sc.env.kind = EnvKind::kES;
  sc.env.n = 8;
  sc.env.seed = 9;
  sc.env.stabilization = 0;
  std::vector<Value> init;
  for (std::size_t i = 0; i < 8; ++i) init.push_back(Value(i < 4 ? 100 : 200));
  sc.initial = init;
  sc.net.seed = 9;
  sc.net.record_trace = false;

  const EnvDelayModel delays(sc.env, sc.crashes);
  CohortNet<EsMessage> c(es_groups(sc.initial), delays, sc.crashes,
                         CohortOptions::from(sc.net));
  EXPECT_EQ(c.cohort_count(), 2u);
  c.run_until_all_correct_decided();
  c.run_rounds(4);  // give the merge pass a post-decision round
  EXPECT_EQ(c.cohort_count(), 1u);
  EXPECT_GE(c.stats().merges, 1u);
  // And the merged run still matches expanded execution.
  check_equivalent(sc, "converging initial values");
}

// A triangular reveal: in round 1, receiver q gets the round-1 messages of
// exactly the senders p ≤ q timely (the rest two rounds late).  With
// distinct proposals every receiver reads a different prefix of the value
// space — n pairwise-distinct states in a single delivery phase.  From
// round 2 on everything is timely (and says so via uniform_delay).
class TriangularRevealModel final : public DelayModel {
 public:
  Round delay(Round k, ProcId sender, ProcId receiver) const override {
    if (k != 1) return 0;
    return sender <= receiver ? 0 : 2;
  }
  std::optional<Round> uniform_delay(Round k) const override {
    if (k >= 2) return Round{0};
    return std::nullopt;  // round 1 differentiates by receiver
  }
};

TEST(CohortSplit, PreGstAsymmetryForcesFullSplitToSingletons) {
  const std::size_t n = 6;
  const TriangularRevealModel delays;
  const std::vector<Value> initial = distinct_values(n);
  LockstepOptions opt;
  opt.max_rounds = 40;
  opt.record_trace = false;

  LockstepNet<EsMessage> e(es_autos(initial), delays, CrashPlan{}, opt);
  CohortNet<EsMessage> c(es_groups(initial), delays, CrashPlan{},
                         CohortOptions::from(opt));
  const auto re = e.run_rounds(14);
  const auto rc = c.run_rounds(14);
  Observed oe = observe(e, re), oc = observe(c, rc);
  expect_equal(oe, oc, "triangular reveal");
  // Round 1 tells every process apart: n singleton classes at the peak...
  EXPECT_EQ(c.stats().max_cohorts, n);
  // ...and the symmetric rounds afterwards re-converge them.
  EXPECT_GE(c.stats().merges, 1u);
  EXPECT_LT(c.cohort_count(), n);
}

TEST(CohortBackend, RunnerSwitchProducesTheExpandedReport) {
  for (ConsensusAlgo algo : {ConsensusAlgo::kEs, ConsensusAlgo::kEss}) {
    ConsensusConfig cfg;
    cfg.env.kind = EnvKind::kES;
    cfg.env.n = 12;
    cfg.env.seed = 77;
    cfg.env.stabilization = 3;
    cfg.initial = random_values(cfg.env.n, 3, 100, 102);
    cfg.net.seed = 77;
    cfg.net.record_trace = false;
    cfg.validate_env = false;
    cfg.crashes = random_crashes(cfg.env.n, 2, 4, 123);

    const ConsensusReport expanded = run_consensus(algo, cfg);
    cfg.backend = ConsensusBackend::kCohort;
    const ConsensusReport cohort = run_consensus(algo, cfg);
    EXPECT_EQ(expanded.to_string(), cohort.to_string()) << to_string(algo);
    EXPECT_GT(cohort.cohorts_max, 0u);
    EXPECT_EQ(expanded.cohorts_max, 0u);
  }
}

TEST(CohortBackend, SweepDispatchesPerConfigBackend) {
  std::vector<ConsensusConfig> grid;
  for (std::uint64_t seed : {1u, 2u}) {
    ConsensusConfig cfg;
    cfg.env.kind = EnvKind::kES;
    cfg.env.n = 8;
    cfg.env.seed = seed;
    cfg.initial = identical_values(8, 5);
    cfg.net.record_trace = false;
    cfg.validate_env = false;
    grid.push_back(cfg);
    cfg.backend = ConsensusBackend::kCohort;
    grid.push_back(cfg);
  }
  const auto reports = run_consensus_sweep(ConsensusAlgo::kEs, grid);
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].to_string(), reports[1].to_string());
  EXPECT_EQ(reports[2].to_string(), reports[3].to_string());
  EXPECT_EQ(reports[1].cohorts_max, 1u);  // identical proposals: one class
}

TEST(CohortNet, RejectsNonClonableAutomatonsOnlyWhenSplitting) {
  // An automaton without clone support works as long as no split is ever
  // needed (uniform run)...
  class Opaque final : public Automaton<EsMessage> {
   public:
    EsMessage initialize() override { return EsMessage{Value(1)}; }
    EsMessage compute(Round, const Inboxes<EsMessage>&) override {
      return EsMessage{Value(1)};
    }
  };
  const SynchronousDelays delays;
  std::vector<CohortNet<EsMessage>::InitGroup> groups;
  std::vector<ProcId> members = {0, 1, 2};
  groups.push_back({std::make_unique<Opaque>(), std::move(members)});
  CohortOptions opt;
  opt.max_rounds = 10;
  CohortNet<EsMessage> net(std::move(groups), delays, CrashPlan{}, opt);
  EXPECT_NO_THROW(net.run_rounds(5));
  EXPECT_EQ(net.cohort_count(), 1u);

  // ...but a split (receiver-staggered delays) demands clone_state.
  const TriangularRevealModel stagger;
  std::vector<CohortNet<EsMessage>::InitGroup> groups2;
  std::vector<ProcId> members2 = {0, 1, 2};
  groups2.push_back({std::make_unique<Opaque>(), std::move(members2)});
  CohortNet<EsMessage> net2(std::move(groups2), stagger, CrashPlan{}, opt);
  EXPECT_THROW(net2.run_rounds(5), CheckFailure);
}

// ---------------------------------------------------------------------------
// Sharded cohort execution (PR 8 tentpole): the sharded cohort engine must
// be BYTE-IDENTICAL to the serial cohort engine — decisions, decision
// rounds, transport and fault counters, and the structural collapse stats
// (splits, merges, clones, peak class count) — at every thread/shard
// count, under randomized environments, crash plans and fault plans.

struct CohortRun {
  Observed obs;
  CohortStats stats;
  std::size_t shards = 0;
};

CohortRun run_cohort(const Scenario& sc, const DelayModel& delays,
                     const FaultPlan* plan, std::size_t threads,
                     std::size_t shards) {
  LockstepOptions opt = sc.net;
  opt.engine_threads = threads;
  opt.engine_shards = shards;
  CohortOptions copt = CohortOptions::from(opt);
  if (plan != nullptr && plan->active()) copt.faults = plan;
  CohortRun r;
  if (sc.algo == ConsensusAlgo::kEs) {
    CohortNet<EsMessage> c(es_groups(sc.initial), delays, sc.crashes, copt);
    r.obs = observe(c, c.run_until_all_correct_decided());
    r.stats = c.stats();
    r.shards = c.engine_shards();
  } else {
    HistoryArena arena;
    CohortNet<EssMessage> c(ess_groups(sc.initial, &arena), delays,
                            sc.crashes, copt);
    r.obs = observe(c, c.run_until_all_correct_decided());
    r.stats = c.stats();
    r.shards = c.engine_shards();
  }
  return r;
}

// Serial reference vs engine_threads ∈ {2, 8} and the decoupled
// single-threaded 8-shard engine.  Returns the serial stats for shape
// assertions.
CohortStats check_cohort_thread_invariance(const Scenario& sc0,
                                           const std::string& what) {
  Scenario sc = sc0;
  const EnvDelayModel delays(sc.env, sc.crashes);
  const FaultPlan plan(sc.faults, sc.net.seed, sc.env.n, &delays);
  const CohortRun serial = run_cohort(sc, delays, &plan, 1, 0);
  EXPECT_EQ(serial.shards, 1u) << what << ": engine_threads=1 must be serial";
  struct Mode {
    std::size_t threads, shards;
  };
  for (const Mode m : {Mode{2, 0}, Mode{8, 0}, Mode{1, 8}}) {
    const CohortRun sharded =
        run_cohort(sc, delays, &plan, m.threads, m.shards);
    const std::string label = what + " threads=" + std::to_string(m.threads) +
                              " shards=" + std::to_string(m.shards);
    EXPECT_GT(sharded.shards, 1u) << label;
    expect_equal(serial.obs, sharded.obs, label);
    EXPECT_EQ(serial.stats.cohorts, sharded.stats.cohorts) << label;
    EXPECT_EQ(serial.stats.max_cohorts, sharded.stats.max_cohorts) << label;
    EXPECT_EQ(serial.stats.splits, sharded.stats.splits) << label;
    EXPECT_EQ(serial.stats.merges, sharded.stats.merges) << label;
    EXPECT_EQ(serial.stats.clones, sharded.stats.clones) << label;
  }
  return serial.stats;
}

TEST(ShardedCohortEquivalence, RandomizedConfigsMatchSerialAtEveryThreadCount) {
  // Randomized (seed, env kind, crash plan, fault plan) configurations
  // across both algorithms; every one must be identical at engine_threads
  // ∈ {1, 2, 8} and at engine_shards = 8 on one thread.
  std::size_t checked = 0, faulted = 0;
  for (std::uint64_t cfg = 0; cfg < 20; ++cfg) {
    Rng rng(0xc04027 + cfg * 131);
    Scenario sc;
    sc.algo = (cfg % 2 == 0) ? ConsensusAlgo::kEs : ConsensusAlgo::kEss;
    sc.env.kind = (cfg % 4 < 2) ? EnvKind::kES : EnvKind::kESS;
    sc.env.n = 3 + static_cast<std::size_t>(rng.below(30));  // 3..32
    sc.env.seed = rng.below(1u << 30);
    sc.env.stabilization = static_cast<Round>(rng.below(6));
    sc.env.max_delay = 1 + static_cast<Round>(rng.below(3));
    sc.env.timely_prob = 0.1 + 0.3 * rng.real();
    const std::size_t f =
        std::min<std::size_t>(sc.env.n - 1, rng.below(4));  // 0..3 crashes
    if (f > 0)
      sc.crashes = random_crashes(
          sc.env.n, f, std::max<Round>(2, sc.env.stabilization + 2),
          sc.env.seed + 13);
    sc.initial = (cfg % 3 == 0)
                     ? distinct_values(sc.env.n)
                     : random_values(sc.env.n, sc.env.seed + 7, 100, 103);
    sc.net.seed = sc.env.seed;
    sc.net.max_rounds = 800;
    sc.net.record_trace = false;
    sc.net.relay_partial_broadcast = (cfg % 5 != 4);
    if (cfg % 4 == 3) {  // a quarter of the configs also inject faults
      sc.faults.loss_prob = 0.15 * rng.real();
      sc.faults.dup_prob = 0.2 * rng.real();
      sc.faults.dup_extra_delay = 1 + static_cast<Round>(rng.below(3));
      sc.faults.reorder_prob = 0.2 * rng.real();
      sc.faults.max_extra_delay = 1 + static_cast<Round>(rng.below(3));
      ++faulted;
    }
    check_cohort_thread_invariance(sc, "cfg " + std::to_string(cfg));
    ++checked;
  }
  EXPECT_GE(checked, 20u);
  EXPECT_GE(faulted, 4u);
}

TEST(ShardedCohortSplit, MidRoundCrashSplitsClassStraddlingShardBoundaries) {
  // Directed: all 12 processes propose the same value — ONE class — and a
  // member crashes mid-run with a partial final audience spanning both
  // low and high process ids.  The resulting split products land in
  // different shards on the next reindex (classes are sorted by smallest
  // member), so the wave/merge barriers see a class list that straddles
  // shard boundaries while splitting and re-merging.
  Scenario sc;
  sc.env.kind = EnvKind::kES;
  sc.env.n = 12;
  sc.env.seed = 5;
  sc.env.stabilization = 0;  // uniform from round 1: only the crash differs
  CrashSpec spec;
  spec.crash_round = 3;
  spec.final_recipients = std::vector<ProcId>{0, 1, 7, 8, 11};
  sc.crashes.set(3, spec);
  sc.initial = identical_values(sc.env.n, 7);
  sc.net.seed = 5;
  sc.net.record_trace = false;
  const CohortStats stats =
      check_cohort_thread_invariance(sc, "crash straddling shards");
  EXPECT_GE(stats.splits, 1u);
  EXPECT_GE(stats.max_cohorts, 2u);
}

TEST(ShardedCohortSplit, TriangularRevealFullSplitMatchesSerial) {
  // The hardest structural case for the sharded engine: round 1 splits
  // n distinct proposals into n singleton classes (every shard boundary
  // crossed, maximal cross-shard payload canonicalization), then the
  // uniform rounds re-merge them.
  const std::size_t n = 12;
  const TriangularRevealModel delays;
  const std::vector<Value> initial = distinct_values(n);
  LockstepOptions base;
  base.max_rounds = 60;
  base.record_trace = false;
  auto run = [&](std::size_t threads, std::size_t shards) {
    LockstepOptions o = base;
    o.engine_threads = threads;
    o.engine_shards = shards;
    CohortNet<EsMessage> c(es_groups(initial), delays, CrashPlan{},
                           CohortOptions::from(o));
    CohortRun r;
    r.obs = observe(c, c.run_rounds(20));
    r.stats = c.stats();
    r.shards = c.engine_shards();
    return r;
  };
  const CohortRun serial = run(1, 0);
  EXPECT_EQ(serial.stats.max_cohorts, n);
  EXPECT_GE(serial.stats.merges, 1u);
  struct Mode {
    std::size_t threads, shards;
  };
  for (const Mode m : {Mode{2, 0}, Mode{8, 0}, Mode{1, 8}}) {
    const CohortRun sharded = run(m.threads, m.shards);
    const std::string label = "triangular threads=" +
                              std::to_string(m.threads) +
                              " shards=" + std::to_string(m.shards);
    expect_equal(serial.obs, sharded.obs, label);
    EXPECT_EQ(serial.stats.max_cohorts, sharded.stats.max_cohorts) << label;
    EXPECT_EQ(serial.stats.splits, sharded.stats.splits) << label;
    EXPECT_EQ(serial.stats.merges, sharded.stats.merges) << label;
    EXPECT_EQ(serial.stats.clones, sharded.stats.clones) << label;
  }
}

// ---------------------------------------------------------------------------
// Crash audiences.  In a uniform round a dying member's final broadcast is
// two calendar entries, its final audience and the relayed rest, that the
// delivery partition matches against the members.  Each case steps both
// engines round by round, comparing the cumulative transport series and
// the final observation, runs the cohort engine again on 8 shards, and
// pins the cohort stats to the figures of the per-link crash schedule the
// audience entries replaced: the class partition did not change.

struct StatsPin {
  std::uint64_t splits, merges, clones;
  std::size_t max_cohorts;
};

// Steps both engines `rounds` rounds and checks the series, the final
// observation and the stats pin.
void check_crash_series(const std::vector<Value>& initial,
                        const DelayModel& delays, const CrashPlan& crashes,
                        const LockstepOptions& opt, Round rounds,
                        const StatsPin& pin, const std::string& what) {
  LockstepNet<EsMessage> e(es_autos(initial), delays, crashes, opt);
  const auto se = collect_round_series(e, rounds);
  const Observed oe = observe(e, {e.round(), false});
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    CohortOptions copt = CohortOptions::from(opt);
    copt.engine_shards = shards;
    CohortNet<EsMessage> c(es_groups(initial), delays, crashes, copt);
    const auto sc = collect_round_series(c, rounds);
    const std::string label = what + " shards=" + std::to_string(shards);
    ASSERT_EQ(se.size(), sc.size()) << label;
    for (std::size_t i = 0; i < se.size(); ++i)
      EXPECT_EQ(se[i], sc[i]) << label << " step " << i << ": "
                              << se[i].to_string() << " vs "
                              << sc[i].to_string();
    expect_equal(oe, observe(c, {c.round(), false}), label);
    EXPECT_EQ(c.stats().splits, pin.splits) << label;
    EXPECT_EQ(c.stats().merges, pin.merges) << label;
    EXPECT_EQ(c.stats().clones, pin.clones) << label;
    EXPECT_EQ(c.stats().max_cohorts, pin.max_cohorts) << label;
  }
}

LockstepOptions crash_series_options(std::uint64_t seed) {
  LockstepOptions opt;
  opt.seed = seed;
  opt.record_trace = false;
  return opt;
}

EnvParams es_env(std::size_t n, std::uint64_t seed, Round gst) {
  EnvParams env;
  env.kind = EnvKind::kES;
  env.n = n;
  env.seed = seed;
  env.stabilization = gst;
  return env;
}

// Proposals cycling through `period` values: classes of n / period members.
std::vector<Value> cycled_values(std::size_t n, std::size_t period) {
  std::vector<Value> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(Value(100 + static_cast<std::int64_t>(i % period)));
  return out;
}

TEST(CohortCrashAudience, OverSixtyFourAtomsInOneDeliveryRound) {
  // Processes 0–109 crash in round 3, the first round whose broadcast
  // carries each process's own proposal: round 3's delivery carries one
  // audience atom per distinct proposal among them and round 6's as many
  // relay atoms.  Distinct proposals (n = 160) give 110 atoms, delivered
  // first to singleton classes; 80 proposals cycled over n = 240 give 80
  // atoms and leave 50 classes with two survivors each, whose atom lists
  // split them.
  auto run = [](std::size_t n, const std::vector<Value>& initial,
                const StatsPin& pin, const std::string& what) {
    CrashPlan crashes;
    for (ProcId p = 0; p < 110; ++p) {
      CrashSpec spec;
      spec.crash_round = 3;
      spec.final_fraction = 0.2 + 0.1 * static_cast<double>(p % 7);
      crashes.set(p, spec);
    }
    const EnvDelayModel delays(es_env(n, 31, 0), crashes);
    check_crash_series(initial, delays, crashes, crash_series_options(31), 12,
                       pin, what);
  };
  run(160, distinct_values(160), {49, 98, 49, 160}, "distinct");
  run(240, cycled_values(240, 80), {179, 258, 179, 130}, "cycled");
}

// Every link of every round takes exactly one round.
class OneRoundDelays final : public DelayModel {
 public:
  Round delay(Round, ProcId, ProcId) const override { return 1; }
  std::optional<Round> uniform_delay(Round) const override { return Round{1}; }
};

TEST(CohortCrashAudience, AudienceAndRelayDueInTheSameRound) {
  // Uniform delay 1 and no extra relay delay: a crash's audience entry
  // and relay entry both land at k + 1, so every member receives the
  // final broadcast in one round from one side or the other.
  const std::size_t n = 24;
  CrashPlan crashes;
  crashes.crash_at(4, 2);
  crashes.crash_at(9, 2);
  crashes.crash_at(17, 3);
  const OneRoundDelays delays;
  LockstepOptions opt = crash_series_options(7);
  opt.relay_extra_delay = 0;
  check_crash_series(cycled_values(n, 3), delays, crashes, opt, 16,
                     {0, 0, 0, 3}, "delay 1, relay +0");
}

TEST(CohortCrashAudience, RelayOffWithAThirdAudience) {
  // Best-effort final broadcasts: only the audience (about a third of the
  // processes) ever hears the dying members, and sends count the
  // audience's links.
  const std::size_t n = 48;
  CrashPlan crashes;
  for (const auto& [p, round] : std::vector<std::pair<ProcId, Round>>{
           {2, 2}, {11, 2}, {30, 3}, {41, 5}}) {
    CrashSpec spec;
    spec.crash_round = round;
    spec.final_fraction = 0.34;
    crashes.set(p, spec);
  }
  const EnvDelayModel delays(es_env(n, 13, 0), crashes);
  LockstepOptions opt = crash_series_options(13);
  opt.relay_partial_broadcast = false;
  check_crash_series(cycled_values(n, 4), delays, crashes, opt, 16,
                     {12, 15, 12, 8}, "relay off, fraction 0.34");
}

TEST(CohortCrashAudience, ExplicitAudiencesSilentAndNamingTheDead) {
  // Process 3 crashes silently (an empty audience: with the relay, every
  // other process hears it late); process 6 crashes in the same round
  // naming receivers of which 3 is dead by delivery; process 9 later
  // names 3 and 6, both long dead, and two live receivers.
  const std::size_t n = 16;
  CrashPlan crashes;
  crashes.set(3, CrashSpec{2, std::vector<ProcId>{}, 0.5});
  crashes.set(6, CrashSpec{2, std::vector<ProcId>{1, 3, 12}, 0.5});
  crashes.set(9, CrashSpec{4, std::vector<ProcId>{3, 6, 0, 14}, 0.5});
  const EnvDelayModel delays(es_env(n, 21, 0), crashes);
  for (const bool relay : {true, false}) {
    LockstepOptions opt = crash_series_options(21);
    opt.relay_partial_broadcast = relay;
    check_crash_series(cycled_values(n, 2), delays, crashes, opt, 14,
                       relay ? StatsPin{4, 5, 4, 4} : StatsPin{3, 4, 3, 4},
                       relay ? "explicit, relay" : "explicit, no relay");
  }
}

TEST(CohortCrashAudience, HaltedClassesIgnoreAudienceEntries) {
  // Literal decide-then-halt: early partial crashes split the classes so
  // they decide in different rounds, and later audience entries meet a
  // mix of halted and running classes.
  const std::size_t n = 40;
  CrashPlan crashes;
  for (const auto& [p, round] : std::vector<std::pair<ProcId, Round>>{
           {5, 1}, {13, 1}, {22, 2}, {31, 3}, {8, 4}, {17, 5}, {26, 6}}) {
    CrashSpec spec;
    spec.crash_round = round;
    spec.final_fraction = 0.45;
    crashes.set(p, spec);
  }
  const EnvDelayModel delays(es_env(n, 5, 0), crashes);
  LockstepOptions opt = crash_series_options(5);
  opt.halt_policy = HaltPolicy::kStopAfterDecide;
  check_crash_series(cycled_values(n, 5), delays, crashes, opt, 18,
                     {43, 47, 43, 21}, "stop after decide");
}

TEST(CohortCrashAudience, CrashesStraddlingGst) {
  // GST 4: the crashes of rounds 2–4 are scheduled per link with delays
  // up to 3 rounds, those of rounds 5–7 as audience sets, so late per-link
  // entries and audience entries fall due in the same rounds.
  const std::size_t n = 36;
  CrashPlan crashes;
  for (const auto& [p, round] : std::vector<std::pair<ProcId, Round>>{
           {1, 2}, {12, 3}, {20, 4}, {27, 4}, {7, 5}, {33, 6}, {16, 7}}) {
    CrashSpec spec;
    spec.crash_round = round;
    spec.final_fraction = 0.5;
    crashes.set(p, spec);
  }
  EnvParams env = es_env(n, 17, 4);
  env.max_delay = 3;
  env.timely_prob = 0.3;
  const EnvDelayModel delays(env, crashes);
  check_crash_series(cycled_values(n, 3), delays, crashes,
                     crash_series_options(17), 20, {41, 43, 41, 13},
                     "straddling GST");
}

TEST(ShardedCohortBackend, RunnerReportsMatchAtEveryThreadCount) {
  // End-to-end through run_consensus with backend=cohort: the full report
  // string must be identical at every engine_threads value.
  for (const ConsensusAlgo algo : {ConsensusAlgo::kEs, ConsensusAlgo::kEss}) {
    ConsensusConfig cfg;
    cfg.env.kind = algo == ConsensusAlgo::kEs ? EnvKind::kES : EnvKind::kESS;
    cfg.env.n = 14;
    cfg.env.seed = 77;
    cfg.env.stabilization = 5;
    cfg.crashes = random_crashes(cfg.env.n, 2, 6, 123);
    cfg.initial = random_values(cfg.env.n, 77, 100, 102);
    cfg.net.seed = 77;
    cfg.net.record_trace = false;
    cfg.validate_env = false;
    cfg.backend = ConsensusBackend::kCohort;

    cfg.net.engine_threads = 1;
    const ConsensusReport serial = run_consensus(algo, cfg);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      cfg.net.engine_threads = threads;
      const ConsensusReport rep = run_consensus(algo, cfg);
      EXPECT_EQ(serial.to_string(), rep.to_string())
          << to_string(algo) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace anon

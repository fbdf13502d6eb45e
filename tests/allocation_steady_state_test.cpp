// Allocation-counter proof that the round engines stopped allocating in
// steady state (PR 8's arena + scratch-recycling work).
//
// Workload: ES consensus under synchronous delays with kContinueForever —
// after the decision round every process re-broadcasts its frozen {VAL}
// message, so round content repeats forever.  In that steady state a round
// must perform ZERO heap allocations on every engine:
//   * LockstepNet             (per-link calendar entries recycled),
//   * CohortNet, one thread   (interner generation reuse, own-cache hits,
//                              inline shard loop),
//   * CohortNet, four threads (per-shard interners, flat barrier scratch,
//                              pointer-only pool job captures).
// The measurement window is placed between BatchInterner compaction
// generations (every 64 round_resets) so the counter sees only the round
// path itself.
//
// A cohort crash round allocates per class it creates, not per member:
// its window allocates about the same at n = 512 and n = 8192.
//
// The LockstepNet cases also run under real environments, whose moving
// round source is drawn once per link (EnvDelayModel::delay and the fault
// plan's source exemption): MS and ESS before stabilization, each with two
// crashes, must stay at zero; with an exempt-source fault plan, random
// loss and reordering keep growing calendar-slot capacity for a while, so
// that window is only held below n allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "algo/es_consensus.hpp"
#include "core/calendar.hpp"
#include "emul/echo.hpp"
#include "emul/ms_emulation_cohort.hpp"
#include "env/faults.hpp"
#include "env/generate.hpp"
#include "net/cohort.hpp"
#include "net/lockstep.hpp"
#include "net/schedule.hpp"

// Binary-global allocation counter (this test binary only).  GCC's
// -Wmismatched-new-delete sees the malloc inside the counting operator new
// paired with inlined deletes and mis-fires; the pairing is intentional
// (delete frees with std::free below).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace anon {
namespace {

// 66 warm-up rounds cross the interners' gen-64 compaction and wrap every
// calendar ring slot the measured rounds will touch; 30 measured rounds
// stay clear of the next compaction at gen 128.
constexpr Round kWarmup = 66;
constexpr Round kMeasure = 30;
constexpr std::size_t kN = 32;

// Three proposal values (≤ the FlatSet inline capacity of 4): the messages
// themselves never heap-allocate, so the counter isolates the engines.
std::vector<Value> initial_values() {
  std::vector<Value> init;
  init.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i)
    init.push_back(Value(100 + static_cast<std::int64_t>(i % 3)));
  return init;
}

template <typename Net>
std::size_t measure_steady_rounds(Net& net) {
  net.run_rounds(kWarmup);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  net.run_rounds(kMeasure);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

std::size_t lockstep_window_allocations(const DelayModel& delays,
                                        const CrashPlan& crashes,
                                        const FaultPlan* faults = nullptr) {
  std::vector<std::unique_ptr<Automaton<EsMessage>>> autos;
  for (const Value& v : initial_values())
    autos.push_back(std::make_unique<EsConsensus>(v));
  LockstepOptions opt;
  opt.seed = 42;
  opt.record_trace = false;
  opt.record_deliveries = false;
  opt.halt_policy = HaltPolicy::kContinueForever;
  opt.faults = faults;
  LockstepNet<EsMessage> net(std::move(autos), delays, crashes, opt);
  const std::size_t allocs = measure_steady_rounds(net);
  EXPECT_TRUE(net.all_correct_decided()) << "run must converge in warm-up";
  return allocs;
}

// Two crashes inside the warm-up, so every measured source draw walks a
// non-empty crash list.
CrashPlan two_crashes() {
  CrashPlan crashes;
  crashes.crash_at(5, 3);
  crashes.crash_at(20, 9);
  return crashes;
}

// An environment whose round source moves in every measured round (ESS
// stabilizes long after the window).
EnvParams moving_source_env(EnvKind kind) {
  EnvParams env;
  env.kind = kind;
  env.n = kN;
  env.seed = 42;
  env.stabilization = 1000;
  return env;
}

std::size_t cohort_steady_allocations(std::size_t engine_threads) {
  CohortOptions opt;
  opt.seed = 42;
  opt.halt_policy = HaltPolicy::kContinueForever;
  opt.engine_threads = engine_threads;
  const SynchronousDelays delays;
  auto groups = groups_by_initial_value<EsMessage>(
      initial_values(),
      [](const Value& v) { return std::make_unique<EsConsensus>(v); });
  CohortNet<EsMessage> net(std::move(groups), delays, CrashPlan{}, opt);
  const std::size_t allocs = measure_steady_rounds(net);
  EXPECT_TRUE(net.all_correct_decided()) << "run must converge in warm-up";
  return allocs;
}

TEST(AllocationSteadyState, SerialLockstepRoundsAreAllocationFree) {
  const SynchronousDelays delays;
  EXPECT_EQ(lockstep_window_allocations(delays, CrashPlan{}), 0u)
      << "serial LockstepNet allocated on the steady-state round path";
}

TEST(AllocationSteadyState, LockstepRoundsUnderMsAreAllocationFree) {
  const CrashPlan crashes = two_crashes();
  const EnvDelayModel delays(moving_source_env(EnvKind::kMS), crashes);
  EXPECT_EQ(lockstep_window_allocations(delays, crashes), 0u)
      << "LockstepNet allocated per round under an MS source draw";
}

TEST(AllocationSteadyState, LockstepRoundsUnderEssBeforeStabilizationAreAllocationFree) {
  const CrashPlan crashes = two_crashes();
  const EnvDelayModel delays(moving_source_env(EnvKind::kESS), crashes);
  EXPECT_EQ(lockstep_window_allocations(delays, crashes), 0u)
      << "LockstepNet allocated per round under a pre-stabilization ESS "
         "source draw";
}

TEST(AllocationSteadyState, LockstepRoundsUnderExemptSourceFaultsStayBelowN) {
  const CrashPlan crashes = two_crashes();
  const EnvDelayModel delays(moving_source_env(EnvKind::kMS), crashes);
  FaultParams params;
  params.loss_prob = 0.15;
  params.dup_prob = 0.05;
  params.reorder_prob = 0.1;
  ASSERT_TRUE(params.exempt_source);
  const FaultPlan faults(params, 42, kN, &delays);
  EXPECT_LT(lockstep_window_allocations(delays, crashes, &faults), kN)
      << "the source exemption allocated per link";
}

TEST(AllocationSteadyState, SerialCohortRoundsAreAllocationFree) {
  EXPECT_EQ(cohort_steady_allocations(1), 0u)
      << "serial CohortNet allocated on the steady-state round path";
}

TEST(AllocationSteadyState, ShardedCohortRoundsAreAllocationFree) {
  EXPECT_EQ(cohort_steady_allocations(4), 0u)
      << "sharded CohortNet allocated on the steady-state round path";
}

// A lock-step loop fills a fresh ring slot every round and walks all 64
// slots.  The calendar hands each drained buffer to the next slot it
// fills, so after the first rounds no slot allocates: two buffers
// circulate instead of one pinned to every slot ever touched.
TEST(AllocationSteadyState, CalendarRecyclesBuffersAcrossRingSlots) {
  RoundCalendar<int> calendar;
  std::vector<int> due;
  const auto round = [&](std::uint64_t r) {
    calendar.advance_to(r);
    calendar.take_due_into(due);
    for (int i = 0; i < 1000; ++i) calendar.schedule(r + 1, i);
  };
  for (std::uint64_t r = 0; r < 4; ++r) round(r);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t r = 4; r < 200; ++r) round(r);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "calendar slots allocated their own buffers";
}

// A crash splits a class on the cohort engine, so its rounds cannot be
// allocation-free, but what they allocate must belong to the classes the
// crash creates and to the crashed processes' frozen states, not to the
// members.  The window spans a crash wave of two members and both of its
// delivery rounds (the audience's at once, the relay's three rounds
// later), after a warm-up wave of the same shape that grows the delivery
// scratch to the class size.
std::size_t cohort_crash_window_allocations(std::size_t n, CohortStats* stats) {
  CrashPlan crashes;
  for (const Round k : {Round{2}, Round{8}}) {
    crashes.crash_at(n / 4 + k, k);
    crashes.crash_at(3 * n / 4 + k, k);
  }
  CohortOptions opt;
  opt.seed = 42;
  const SynchronousDelays delays;
  auto groups = groups_by_initial_value<EsMessage>(
      std::vector<Value>(n, Value(7)),
      [](const Value& v) { return std::make_unique<EsConsensus>(v); });
  CohortNet<EsMessage> net(std::move(groups), delays, crashes, opt);
  net.run_rounds(7);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  net.run_rounds(5);
  const std::size_t allocs =
      g_allocations.load(std::memory_order_relaxed) - before;
  *stats = net.stats();
  return allocs;
}

TEST(AllocationSteadyState, CohortCrashRoundsAreClassBoundNotNBound) {
  CohortStats small_stats, large_stats;
  const std::size_t small = cohort_crash_window_allocations(512, &small_stats);
  const std::size_t large =
      cohort_crash_window_allocations(8192, &large_stats);
  // Same crashes, same class structure at both sizes: the precondition
  // for comparing the two windows.
  EXPECT_GT(small_stats.splits, 0u) << "the crashes must split the class";
  EXPECT_EQ(small_stats.splits, large_stats.splits);
  EXPECT_EQ(small_stats.merges, large_stats.merges);
  EXPECT_EQ(small_stats.max_cohorts, large_stats.max_cohorts);
  EXPECT_LE(large, small + small / 2 + 64)
      << "n=512 window: " << small << ", n=8192 window: " << large;
}

// The cohort-collapsed emulation cannot be allocation-free — every emulated
// round interns fresh elements and grows the visible log — but its round
// cost must track the CLASS count, not n.  With identical echo seeds the
// whole run is one class, so the per-window allocation count at n = 256
// must stay at the n = 32 level (the expanded engine walks all n processes
// and its Θ(r·n²) trace dwarfs this).
std::size_t emulation_cohort_window_allocations(std::size_t n,
                                                std::size_t engine_threads) {
  std::vector<MsEmulationCohort<ValueSet>::InitGroup> groups(1);
  groups[0].automaton = std::make_unique<EchoAutomaton>(7);
  for (ProcId p = 0; p < n; ++p) groups[0].members.push_back(p);
  MsEmulationCohortOptions copt;
  copt.base.seed = 42;
  copt.base.min_add_latency = 2;
  copt.base.max_add_latency = 2;  // deterministic: no latency-draw splits
  copt.engine_threads = engine_threads;
  MsEmulationCohort<ValueSet> emu(std::move(groups), copt);
  EXPECT_TRUE(emu.run_until_round(kWarmup));
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(emu.run_until_round(kWarmup + kMeasure));
  const std::size_t allocs =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(emu.class_count(), 1u) << "identical probes must stay one class";
  return allocs;
}

TEST(AllocationSteadyState, EmulationCohortRoundsAreClassBoundNotNBound) {
  const std::size_t small = emulation_cohort_window_allocations(32, 1);
  const std::size_t large = emulation_cohort_window_allocations(256, 1);
  // One class either way: the window's allocation count must not scale
  // with n (slack covers amortized vector doublings crossing the window).
  EXPECT_LE(large, small + small / 2 + 64)
      << "n=32 window: " << small << ", n=256 window: " << large;
  // And the absolute level stays modest: a handful per emulated round
  // (element interning + log growth), not hundreds.
  EXPECT_LE(small, static_cast<std::size_t>(kMeasure) * 32)
      << "n=32 window allocated " << small << " times";
}

TEST(AllocationSteadyState, ShardedEmulationCohortMatchesSerialAllocations) {
  const std::size_t serial = emulation_cohort_window_allocations(64, 1);
  const std::size_t sharded = emulation_cohort_window_allocations(64, 4);
  EXPECT_LE(sharded, serial + serial / 2 + 64)
      << "serial window: " << serial << ", sharded window: " << sharded;
}

}  // namespace
}  // namespace anon

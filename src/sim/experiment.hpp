// Experiment support: multi-seed aggregation, the standard seed list and
// per-round transport samples.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "giraf/types.hpp"

namespace anon {

struct SeriesStat {
  double mean = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  std::size_t count = 0;

  std::string to_string(int precision = 1) const;
};

SeriesStat aggregate(std::vector<double> samples);

// Runs sample(seed) for every seed — sharded across threads via the core
// sweep runner — and aggregates the series.  `sample` must be thread-safe
// (every simulation in this repo is: each run owns its net/arena/RNGs).
// The aggregate is identical for any thread count.
SeriesStat sweep_aggregate(const std::vector<std::uint64_t>& seeds,
                           const std::function<double(std::uint64_t)>& sample,
                           SweepOptions opt = {});

// The standard seed list used across experiments (kept small enough for
// quick runs, large enough to expose variance).
std::vector<std::uint64_t> experiment_seeds(std::size_t count = 10);

// One engine round's cumulative transport metrics.  Engine-agnostic: both
// LockstepNet and CohortNet expose this surface, and the cohort/expanded
// equivalence property (tests/cohort_net_test.cpp) is "the two engines
// produce identical RoundSample series", not just identical end states.
struct RoundSample {
  Round round = 0;
  std::uint64_t sends = 0;
  std::uint64_t bytes = 0;
  std::uint64_t deliveries = 0;

  friend bool operator==(const RoundSample& a, const RoundSample& b) {
    return a.round == b.round && a.sends == b.sends && a.bytes == b.bytes &&
           a.deliveries == b.deliveries;
  }
  std::string to_string() const;
};

// Steps `net` one engine round at a time for `rounds` rounds, sampling the
// cumulative counters after each step.
template <typename Net>
std::vector<RoundSample> collect_round_series(Net& net, Round rounds) {
  std::vector<RoundSample> out;
  out.reserve(rounds);
  for (Round i = 0; i < rounds; ++i) {
    net.run_rounds(1);
    out.push_back(
        {net.round(), net.sends(), net.bytes_sent(), net.deliveries()});
  }
  return out;
}

}  // namespace anon

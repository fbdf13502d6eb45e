// Contiguous balanced shard partitions, shared by the cohort engines.
//
// CohortNet and MsEmulationCohort partition their class list [0, count)
// into at most `shards` contiguous ranges and fan the ranges out over the
// worker pool.  The
// partition is an identity decision, never an observable one: every
// order-sensitive fold replays serially in index order at the barriers, so
// ANY contiguous cover of [0, count) yields byte-identical results.  That
// freedom is what lets the cohort engine weight-balance by class size —
// a collapsed run is a few huge classes plus singleton stragglers, and an
// equal-width partition parks the whole O(n) membership work on one worker
// (the ROADMAP's "wasted workers on skewed class sizes").
//
// The greedy rule: shard s takes items until it reaches
// ceil(remaining_weight / remaining_shards), always taking at least one
// item and always leaving one per later shard.  For uniform weights this
// reproduces the classic base/rem layout exactly (the first count % shards
// ranges are one item wider).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace anon {

using ShardRange = std::pair<std::size_t, std::size_t>;

// Weight-balanced contiguous partition: item i costs weight(i) (a
// non-negative integer).  Produces min(shards, max(count, 1)) ranges
// covering [0, count), each non-empty when count >= shards.  Fills the
// caller's vector in place (capacity-retaining — the engines call this
// every round on the steady-state path).
template <typename WeightFn>
void balanced_ranges_weighted(std::size_t count, std::size_t shards,
                              WeightFn&& weight, std::vector<ShardRange>* out) {
  shards = std::clamp<std::size_t>(shards, 1, std::max<std::size_t>(count, 1));
  out->resize(shards);
  std::uint64_t remaining = 0;
  for (std::size_t i = 0; i < count; ++i)
    remaining += static_cast<std::uint64_t>(weight(i));
  std::size_t at = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t left = shards - s;
    const std::uint64_t target = (remaining + left - 1) / left;
    const std::size_t begin = at;
    std::uint64_t w = 0;
    while (at < count) {
      if (at > begin) {
        // The final shard always drains the tail (a zero-weight suffix
        // would otherwise satisfy the target without being covered).
        if (w >= target && left > 1) break;
        if (count - at < left) break;  // leave one item per later shard
      }
      w += static_cast<std::uint64_t>(weight(at));
      ++at;
    }
    remaining -= w;
    (*out)[s] = {begin, at};
  }
}

// Uniform weights: exactly the base/rem layout (first count % shards
// ranges one wider), via the same greedy rule.
inline void balanced_ranges(std::size_t count, std::size_t shards,
                            std::vector<ShardRange>* out) {
  balanced_ranges_weighted(
      count, shards, [](std::size_t) { return std::uint64_t{1}; }, out);
}

}  // namespace anon

// Ingress fault policy for a live node: per-frame random jitter with
// optional loss (loss breaks the reliable-broadcast assumption — useful for
// demonstrating what the algorithms' safety tolerates even off-spec).
//
// The loss knob is the live face of the simulator's fault layer: the seed
// goes through the same fault_stream_seed derivation as FaultPlan and each
// verdict is the same hash_chance draw over a hash_mix fate hash
// (env/faults.hpp), keyed by (delivery sequence, subscriber) instead of
// (round, sender, receiver).  `loss = p` here and `loss_prob = p` in a
// FaultParams therefore mean the same coin, and a pinned seed reproduces
// the same drop pattern in either backend.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "env/faults.hpp"
#include "net/schedule.hpp"

namespace anon {

class JitterPolicy {
 public:
  JitterPolicy(std::uint64_t seed, std::chrono::milliseconds max_jitter,
               double loss = 0.0)
      : seed_(fault_stream_seed(seed, 0)), max_jitter_(max_jitter),
        loss_(loss) {}

  // Delay before `subscriber` sees the next frame; nullopt = drop.
  std::optional<std::chrono::milliseconds> delivery_delay(
      std::size_t subscriber) {
    const std::uint64_t h =
        hash_mix(seed_, static_cast<std::uint64_t>(seq_++),
                 static_cast<std::uint64_t>(subscriber), 0);
    if (loss_ > 0 && hash_chance(h, loss_)) return std::nullopt;
    return std::chrono::milliseconds(static_cast<std::int64_t>(hash_below(
        h * 0x9e3779b97f4a7c15ULL,
        static_cast<std::uint64_t>(max_jitter_.count()) + 1)));
  }

 private:
  std::uint64_t seed_;
  std::uint64_t seq_ = 0;
  std::chrono::milliseconds max_jitter_;
  double loss_;
};

}  // namespace anon

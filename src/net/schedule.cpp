#include "net/schedule.hpp"

namespace anon {

std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                       std::uint64_t c) {
  std::uint64_t x = seed;
  auto mix = [&x](std::uint64_t v) {
    x ^= v + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
  };
  mix(a);
  mix(b);
  mix(c);
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t hash_below(std::uint64_t h, std::uint64_t bound) {
  // Multiply-shift: maps h uniformly-enough into [0, bound) for simulation
  // purposes without division bias concerns at our tiny bounds.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * bound) >> 64);
}

bool FinalAudience::contains(ProcId receiver) const {
  if (everyone_) return true;
  if (recipients_ != nullptr) {
    for (ProcId r : *recipients_)
      if (r == receiver) return true;
    return false;
  }
  const std::uint64_t h =
      hash_mix(salted_seed_, sender_, receiver, crash_round_);
  return (static_cast<double>(h >> 11) * 0x1.0p-53) < fraction_;
}

FinalAudience CrashPlan::final_audience(ProcId sender,
                                        std::uint64_t seed) const {
  FinalAudience a;
  auto it = specs_.find(sender);
  if (it == specs_.end()) return a;
  const CrashSpec& spec = it->second;
  a.everyone_ = false;
  if (spec.final_recipients.has_value())
    a.recipients_ = &*spec.final_recipients;
  a.salted_seed_ = seed ^ 0xabcdef1234567890ULL;
  a.sender_ = sender;
  a.crash_round_ = spec.crash_round;
  a.fraction_ = spec.final_fraction;
  return a;
}

bool CrashPlan::in_final_audience(ProcId sender, ProcId receiver,
                                  std::size_t n, std::uint64_t seed) const {
  (void)n;
  return final_audience(sender, seed).contains(receiver);
}

std::vector<ProcId> CrashPlan::correct(std::size_t n) const {
  std::vector<ProcId> out;
  for (ProcId p = 0; p < n; ++p)
    if (!ever_crashes(p)) out.push_back(p);
  return out;
}

}  // namespace anon

#include "env/generate.hpp"

#include "common/check.hpp"

namespace anon {

const char* to_string(EnvKind k) {
  switch (k) {
    case EnvKind::kMS:
      return "MS";
    case EnvKind::kES:
      return "ES";
    case EnvKind::kESS:
      return "ESS";
  }
  return "?";
}

EnvDelayModel::EnvDelayModel(EnvParams params, const CrashPlan& crashes)
    : params_(params) {
  ANON_CHECK(params_.n >= 1);
  crashes.for_each_crash([this](ProcId p, Round round) {
    if (p < params_.n) crashes_.push_back({p, round});
  });
  ANON_CHECK_MSG(crashes_.size() < params_.n,
                 "environments require at least one correct process");
  // ESS: the eventual source is a hash-chosen correct process, i.e. one
  // that survives every finite round.
  stable_source_ = draw_survivor(kNeverCrashes - 1,
                                 hash_mix(params_.seed, 0x51ab1e, 0, 0));
}

ProcId EnvDelayModel::stable_source() const { return stable_source_; }

// The survivor of round k (crash_round > k) at index hash_below(h, #alive)
// in ascending id order.  Starting from that index, every crashed id at or
// below the candidate pushes it one id up; crashes_ is ascending, so one
// pass over it suffices.
ProcId EnvDelayModel::draw_survivor(Round k, std::uint64_t h) const {
  std::size_t alive = params_.n;
  for (const Crash& c : crashes_)
    if (c.round <= k) --alive;
  ProcId id = hash_below(h, alive);
  for (const Crash& c : crashes_) {
    if (c.round > k) continue;
    if (c.id > id) break;
    ++id;
  }
  return id;
}

std::optional<ProcId> EnvDelayModel::planned_source(Round k) const {
  if (params_.kind == EnvKind::kESS && k > params_.stabilization)
    return stable_source_;
  // Moving source: hash-pick among processes that survive past round k (they
  // must complete end-of-round k with a full broadcast).  At least one
  // exists: any correct process.
  return draw_survivor(k, hash_mix(params_.seed, 0x50ce, k, 0));
}

bool EnvDelayModel::all_timely_at(Round k) const {
  return params_.kind == EnvKind::kES && k > params_.stabilization;
}

std::optional<Round> EnvDelayModel::uniform_delay(Round k) const {
  // Mirrors delay() below: post-GST ES returns 0 before consulting the
  // link, and max_delay == 0 / timely_prob >= 1 make every non-source
  // draw come out 0 as well (the source link is 0 by definition).
  if (all_timely_at(k) || params_.max_delay == 0 || params_.timely_prob >= 1.0)
    return Round{0};
  return std::nullopt;
}

Round EnvDelayModel::delay(Round k, ProcId sender, ProcId receiver) const {
  if (all_timely_at(k)) return 0;
  if (planned_source(k) == sender) return 0;
  const std::uint64_t h = hash_mix(params_.seed, k, sender, receiver);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u < params_.timely_prob) return 0;
  if (params_.max_delay == 0) return 0;
  return 1 + hash_below(hash_mix(h, 0xde1a, k, sender), params_.max_delay);
}

HostileMsModel::HostileMsModel(std::size_t n, std::uint64_t seed,
                               Round lateness)
    : n_(n), seed_(seed), lateness_(lateness) {
  ANON_CHECK(n_ >= 1 && lateness_ >= 1);
}

std::optional<ProcId> HostileMsModel::planned_source(Round k) const {
  // Round-robin: the source moves every round, deterministically.
  return static_cast<ProcId>((k + hash_mix(seed_, 0xbad, 0, 0)) % n_);
}

Round HostileMsModel::delay(Round k, ProcId sender, ProcId receiver) const {
  (void)receiver;
  if (planned_source(k) == sender) return 0;
  return lateness_;
}

BivalentMsModel::BivalentMsModel(std::size_t n) : n_(n) {
  ANON_CHECK_MSG(n >= 3, "the two-camp construction needs n >= 3");
}

std::optional<ProcId> BivalentMsModel::planned_source(Round k) const {
  return (k % 2 == 1) ? 0 : 1;  // odd rounds: p0 (camp A); even: p1 (camp B)
}

std::vector<Value> BivalentMsModel::initial_values(std::size_t n) {
  std::vector<Value> vals;
  vals.reserve(n);
  vals.push_back(Value(1));                          // camp A: a = 1
  for (std::size_t i = 1; i < n; ++i) vals.push_back(Value(2));  // camp B
  return vals;
}

Round BivalentMsModel::delay(Round k, ProcId sender, ProcId receiver) const {
  (void)receiver;
  if (planned_source(k) == sender) return 0;
  return 2;  // everything non-source arrives one round late (unread slot)
}


BivalentUntilGstModel::BivalentUntilGstModel(std::size_t n, Round gst)
    : camps_(n), gst_(gst) {}

Round BivalentUntilGstModel::delay(Round k, ProcId sender,
                                   ProcId receiver) const {
  return k > gst_ ? 0 : camps_.delay(k, sender, receiver);
}

std::optional<ProcId> BivalentUntilGstModel::planned_source(Round k) const {
  return camps_.planned_source(k);
}

}  // namespace anon

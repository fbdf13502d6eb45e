// Environment certification: certify that a run satisfies the round-based
// properties of MS / ES / ESS (§2.3).  These are the executable counterpart
// of the paper's environment definitions, and double as the acceptance test
// for Algorithm 5's *emulated* MS environment (Theorem 4).
//
// Checked prefix: rounds 1..K−1 where K = min rounds completed over correct
// processes — round k's timely-delivery window only closes once a process
// has executed end-of-round k+1, so the last completed round of the
// slowest correct process is still open and cannot be judged.
//
// `EnvMonitor` is the one certifier.  It takes end-of-round and delivery
// events as they happen — straight from an engine (LockstepOptions::monitor)
// or replayed from a recorded Trace (check_environment) — at O(1) work per
// event, and judges the run in one O(K·n) pass.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "giraf/trace.hpp"

namespace anon {

class CrashPlan;

struct EnvCheckResult {
  // MS: every checked round has at least one timely source.
  bool ms_ok = false;
  Round checked_rounds = 0;       // K
  Round first_ms_violation = 0;   // round lacking a source (if !ms_ok)
  // Earliest round k0 such that every correct process has a timely link in
  // every checked round >= k0 (ES witness), if any.
  std::optional<Round> es_from;
  // Earliest round k0 such that one fixed process is a timely source in
  // every checked round >= k0 (ESS witness), if any.
  std::optional<Round> ess_from;
  std::optional<ProcId> ess_source;
  // One timely source per checked round (first found), for diagnostics.
  std::vector<ProcId> sources;

  std::string to_string() const;
};

// Online certifier.  Process s is a timely source of round k iff s executed
// end-of-round k and every correct process other than s received s's
// round-k message no later than its own round k (early receipt — receiver
// still in an older round — is fine: the message sits in M[k] in time for
// compute(k); only receiver_round > k misses the round).
//
// State per round k: one end-of-round bit per process, one receiver bit per
// (sender, receiver) and a count per sender of the distinct correct
// receivers it reached in time.  A delivery is O(1): late, self and
// non-correct deliveries return at once, a duplicate finds its bit set.
// Storage grows geometrically with the highest round seen, so events
// allocate only when they open a round past the current capacity.
class EnvMonitor {
 public:
  // `correct`: the processes that never crash in this run (the properties'
  // "every correct process receives…" quantifier ranges over these).
  EnvMonitor(std::size_t n, const std::vector<ProcId>& correct);

  // Process p executed end-of-round k (sent its round-k message).
  void end_of_round(ProcId p, Round k) {
    ANON_CHECK(p < n_);
    if (k > completed_[p]) completed_[p] = k;
    if (k == 0) return;
    if (k >= rounds_) grow(k);
    eor_[k * words_ + p / 64] |= bit(p);
  }

  // Sender s's round-`msg_round` message reached receiver r while r was in
  // round `receiver_round`.
  void delivery(ProcId s, Round msg_round, ProcId r, Round receiver_round) {
    ANON_CHECK(s < n_ && r < n_);
    if (receiver_round > msg_round || msg_round == 0 || r == s) return;
    if (!is_correct(r)) return;
    if (msg_round >= rounds_) grow(msg_round);
    const std::size_t row = msg_round * n_ + s;
    std::uint64_t& w = receivers_[row * words_ + r / 64];
    if ((w & bit(r)) != 0) return;  // duplicate
    w |= bit(r);
    ++reached_[row];
  }

  // Judges the checked prefix (see the header comment).
  EnvCheckResult result() const;

 private:
  static std::uint64_t bit(ProcId p) { return std::uint64_t{1} << (p % 64); }
  bool is_correct(ProcId p) const { return (correct_[p / 64] & bit(p)) != 0; }
  void grow(Round k);  // makes room for rounds 0..k

  std::size_t n_;
  std::size_t words_;  // 64-bit words per process bitset
  std::vector<std::uint64_t> correct_;       // bitset over processes
  std::vector<ProcId> correct_ids_;          // distinct, ascending
  std::vector<Round> completed_;             // highest end-of-round per process
  Round rounds_ = 0;                         // rows allocated: rounds 0..rounds_−1
  std::vector<std::uint64_t> eor_;           // [round][word]
  std::vector<std::uint64_t> receivers_;     // [round][sender][word]
  std::vector<std::uint32_t> reached_;       // [round][sender]
};

// The monitor a certifying run feeds through LockstepOptions::monitor: one
// over the processes `crashes` never crashes, or none when `on` is false.
// It must outlive the net it is attached to.
std::optional<EnvMonitor> certifier(bool on, std::size_t n,
                                    const CrashPlan& crashes);

// Replays a recorded trace into one EnvMonitor.
EnvCheckResult check_environment(const Trace& trace, std::size_t n,
                                 const std::vector<ProcId>& correct);

}  // namespace anon

// Execution traces: a machine-checkable record of which GIRAF actions fired
// when.  check_environment (src/env/validate.hpp) replays these to certify
// that a simulated run actually satisfied MS / ES / ESS — both for runs
// produced by our schedule generators and for runs *emulated* by
// Algorithm 5 on top of a weak-set.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "giraf/types.hpp"

namespace anon {

// A process completed its k-th end-of-round (i.e. entered round k and sent
// its round-k message batch).
struct EndOfRoundEvent {
  ProcId process;
  Round round;
  std::uint64_t time;  // global virtual time of the action
};

// A round-`msg_round` message batch originating at `sender` was delivered
// to `receiver` while the receiver's current round was `receiver_round`.
// (Timely for round k  ⇔  msg_round == k && receiver_round == k.)
struct DeliveryEvent {
  ProcId sender;
  Round msg_round;
  ProcId receiver;
  Round receiver_round;
  std::uint64_t time;
};

struct CrashEvent {
  ProcId process;
  Round round;  // the round whose end-of-round the process never executed
};

class Trace {
 public:
  void record_end_of_round(ProcId p, Round k, std::uint64_t time) {
    eors_.push_back({p, k, time});
    if (p >= completed_.size()) completed_.resize(p + 1, 0);
    completed_[p] = std::max(completed_[p], k);
    max_round_ = std::max(max_round_, k);
  }
  void record_delivery(ProcId s, Round mk, ProcId r, Round rk,
                       std::uint64_t time) {
    deliveries_.push_back({s, mk, r, rk, time});
  }
  void record_crash(ProcId p, Round k) { crashes_.push_back({p, k}); }

  const std::vector<EndOfRoundEvent>& end_of_rounds() const { return eors_; }
  const std::vector<DeliveryEvent>& deliveries() const { return deliveries_; }
  const std::vector<CrashEvent>& crashes() const { return crashes_; }

  // Highest round any process completed.
  Round max_round() const { return max_round_; }

  // Rounds completed by process p (0 if none).
  Round rounds_completed(ProcId p, std::size_t /*n_processes*/) const {
    return p < completed_.size() ? completed_[p] : 0;
  }

  std::string summary() const;

 private:
  std::vector<EndOfRoundEvent> eors_;
  std::vector<DeliveryEvent> deliveries_;
  std::vector<CrashEvent> crashes_;
  // Kept as end-of-rounds are recorded, so the two queries above are O(1).
  std::vector<Round> completed_;  // highest end-of-round per process
  Round max_round_ = 0;
};

}  // namespace anon

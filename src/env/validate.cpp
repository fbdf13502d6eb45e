#include "env/validate.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "net/schedule.hpp"

namespace anon {

std::string EnvCheckResult::to_string() const {
  std::ostringstream os;
  os << "env{ms=" << (ms_ok ? "ok" : "VIOLATED") << " over " << checked_rounds
     << " rounds";
  if (!ms_ok) os << " (first violation r" << first_ms_violation << ")";
  if (es_from) os << ", ES from r" << *es_from;
  if (ess_from) os << ", ESS from r" << *ess_from << " (source p" << *ess_source << ")";
  os << "}";
  return os.str();
}

EnvMonitor::EnvMonitor(std::size_t n, const std::vector<ProcId>& correct)
    : n_(n), words_((n + 63) / 64), correct_(words_, 0), completed_(n, 0) {
  ANON_CHECK(!correct.empty());
  for (ProcId p : correct) {
    ANON_CHECK(p < n_);
    correct_[p / 64] |= bit(p);
  }
  for (ProcId p = 0; p < n_; ++p)
    if (is_correct(p)) correct_ids_.push_back(p);
}

void EnvMonitor::grow(Round k) {
  const Round rows = std::max<Round>(k + 1, 2 * rounds_);
  // Rows are indexed by round: a round near 2^64 is a corrupt event, and
  // must not wrap the row count below it.
  ANON_CHECK(k < rows && rows <= std::numeric_limits<std::size_t>::max() /
                                     (n_ * words_));
  rounds_ = rows;
  eor_.resize(rounds_ * words_, 0);
  receivers_.resize(rounds_ * n_ * words_, 0);
  reached_.resize(rounds_ * n_, 0);
}

EnvCheckResult EnvMonitor::result() const {
  EnvCheckResult res;
  Round K = kNeverCrashes;
  for (ProcId p : correct_ids_) K = std::min(K, completed_[p]);
  if (K == kNeverCrashes || K <= 1) return res;  // nothing checkable
  K -= 1;  // the slowest process's current round is still open
  res.checked_rounds = K;
  res.sources.reserve(K);

  // A source must reach every correct process but itself.
  const std::size_t n_correct = correct_ids_.size();
  auto is_source = [&](Round k, ProcId s) {
    if ((eor_[k * words_ + s / 64] & bit(s)) == 0) return false;
    return reached_[k * n_ + s] == n_correct - (is_correct(s) ? 1 : 0);
  };

  // One pass over the checked rounds: the first source per round, the last
  // round in which some correct process was not a source (ES), and per
  // process the first round of its source streak ending at k (ESS; 0 = not
  // a source in round k).
  Round last_not_all = 0;
  std::vector<Round> streak(n_, 0);
  res.ms_ok = true;
  for (Round k = 1; k <= K; ++k) {
    ProcId first = n_;  // sentinel: no source
    bool all_correct = true;
    for (ProcId s = 0; s < n_; ++s) {
      if (is_source(k, s)) {
        if (first == n_) first = s;
        if (streak[s] == 0) streak[s] = k;
      } else {
        streak[s] = 0;
        if (is_correct(s)) all_correct = false;
      }
    }
    if (first == n_ && res.ms_ok) {
      res.ms_ok = false;
      res.first_ms_violation = k;
    }
    if (!all_correct) last_not_all = k;
    res.sources.push_back(first);
  }
  if (!res.ms_ok) return res;

  // ES witness: the round after the last one missing a correct source.
  if (last_not_all < K) res.es_from = last_not_all + 1;

  // ESS witness: the longest source streak ending at K; ties go to the
  // smallest id.
  for (ProcId s = 0; s < n_; ++s)
    if (streak[s] != 0 && (!res.ess_from || streak[s] < *res.ess_from)) {
      res.ess_from = streak[s];
      res.ess_source = s;
    }
  return res;
}

EnvCheckResult check_environment(const Trace& trace, std::size_t n,
                                 const std::vector<ProcId>& correct) {
  EnvMonitor monitor(n, correct);
  for (const auto& e : trace.end_of_rounds())
    monitor.end_of_round(e.process, e.round);
  for (const auto& d : trace.deliveries())
    monitor.delivery(d.sender, d.msg_round, d.receiver, d.receiver_round);
  return monitor.result();
}

}  // namespace anon

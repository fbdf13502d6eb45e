// Sort-plus-sweep weak-set history checker.
//
// The seed implementation re-scanned every add per get (gets × adds) and
// every op per returned value (gets × |result| × ops).  Two observations
// make one pass suffice:
//
//  * Condition (1) — "every add completed before the get started is
//    visible" — only depends, per VALUE, on the earliest completion time
//    of any add of that value.  Sweeping the gets in start order against
//    the values in first-completion order maintains the exact must-be-
//    visible set behind a watermark cursor; each get then verifies
//    membership of that set in its (sorted) result.
//  * Condition (2) — "no value out of thin air" — only depends, per value,
//    on the earliest START of any add of that value: one interned-table
//    lookup per returned value.
//
// Total cost: O(ops log ops) for the sorts plus membership work linear in
// the history's returned sets (× a binary-search log) — against the seed's
// product terms.  The seed checker survives as the test-only oracle
// ref_check_weak_set_spec (tests/reference_checkers.hpp);
// tests/spec_sweep_test.cpp proves agreement on randomized and
// deliberately-violating histories.  When a history violates the spec,
// the reported offending GET is the same one the reference picks (the
// first in record order, visibility checked before thin-air); the witness
// VALUE inside that get may differ when several are wrong at once.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "weakset/weak_set.hpp"

namespace anon {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

struct ValueStats {
  Value value;
  std::uint64_t first_start = kNever;  // earliest add start
  std::uint64_t first_end = kNever;    // earliest add completion
  std::size_t witness_process = 0;     // adder achieving first_end
};

}  // namespace

WsCheckResult check_weak_set_spec(const std::vector<WsOpRecord>& ops) {
  // --- Intern the added values and their per-value time bounds. ---------
  std::vector<ValueStats> values;
  values.reserve(ops.size());
  for (const WsOpRecord& op : ops)
    if (op.kind == WsOpRecord::Kind::kAdd) values.push_back({op.value});
  std::sort(values.begin(), values.end(),
            [](const ValueStats& a, const ValueStats& b) {
              return a.value < b.value;
            });
  values.erase(std::unique(values.begin(), values.end(),
                           [](const ValueStats& a, const ValueStats& b) {
                             return a.value == b.value;
                           }),
               values.end());
  auto find_value = [&values](const Value& v) -> ValueStats* {
    auto it = std::lower_bound(values.begin(), values.end(), v,
                               [](const ValueStats& s, const Value& key) {
                                 return s.value < key;
                               });
    return (it != values.end() && it->value == v) ? &*it : nullptr;
  };
  for (const WsOpRecord& op : ops) {
    if (op.kind != WsOpRecord::Kind::kAdd) continue;
    ValueStats* s = find_value(op.value);
    s->first_start = std::min(s->first_start, op.start);
    if (op.end < s->first_end) {
      s->first_end = op.end;
      s->witness_process = op.process;
    }
  }

  // --- Index the gets. --------------------------------------------------
  std::vector<std::size_t> gets;  // indices into ops
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (ops[i].kind == WsOpRecord::Kind::kGet) gets.push_back(i);
  if (gets.empty()) return {};

  // A violation per get, if any; the final report picks the first get in
  // record order, condition (1) before condition (2) — mirroring the
  // reference checker's scan order.
  enum class Viol : std::uint8_t { kNone, kMissed, kThinAir };
  std::vector<Viol> viol(ops.size(), Viol::kNone);
  std::vector<Value> viol_value(ops.size());

  // --- Condition (2): thin-air values, one table lookup each. -----------
  for (std::size_t gi : gets) {
    const WsOpRecord& get = ops[gi];
    for (const Value& v : get.result) {
      const ValueStats* s = find_value(v);
      if (s == nullptr || s->first_start > get.end) {
        viol[gi] = Viol::kThinAir;
        viol_value[gi] = v;
        break;
      }
    }
  }

  // --- Condition (1): completed-add watermark sweep. --------------------
  // Values ordered by first completion; gets ordered by start.  Advancing
  // the watermark grows the must-be-visible list monotonically.
  std::vector<const ValueStats*> by_first_end;
  by_first_end.reserve(values.size());
  for (const ValueStats& s : values)
    if (s.first_end != kNever) by_first_end.push_back(&s);
  std::sort(by_first_end.begin(), by_first_end.end(),
            [](const ValueStats* a, const ValueStats* b) {
              return a->first_end < b->first_end;
            });
  std::vector<std::size_t> gets_by_start = gets;
  std::sort(gets_by_start.begin(), gets_by_start.end(),
            [&ops](std::size_t a, std::size_t b) {
              return ops[a].start < ops[b].start;
            });
  std::size_t watermark = 0;
  for (std::size_t gi : gets_by_start) {
    const WsOpRecord& get = ops[gi];
    while (watermark < by_first_end.size() &&
           by_first_end[watermark]->first_end < get.start)
      ++watermark;
    // Every value below the watermark must appear in this get's result.
    for (std::size_t v = 0; v < watermark; ++v) {
      if (get.result.count(by_first_end[v]->value) == 0) {
        viol[gi] = Viol::kMissed;  // overrides a thin-air mark: (1) first
        viol_value[gi] = by_first_end[v]->value;
        break;
      }
    }
  }

  // --- Report the first offending get in record order. ------------------
  for (std::size_t gi : gets) {
    if (viol[gi] == Viol::kNone) continue;
    const WsOpRecord& get = ops[gi];
    std::ostringstream os;
    if (viol[gi] == Viol::kMissed) {
      const ValueStats* s = find_value(viol_value[gi]);
      os << "get@[" << get.start << "," << get.end << ") by p" << get.process
         << " missed value " << viol_value[gi].to_string()
         << " whose add by p" << s->witness_process << " completed at "
         << s->first_end;
    } else {
      os << "get@[" << get.start << "," << get.end << ") by p" << get.process
         << " returned value " << viol_value[gi].to_string()
         << " with no add started before the get ended";
    }
    return {false, os.str()};
  }
  return {};
}

}  // namespace anon

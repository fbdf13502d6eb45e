// Reference (executable-specification) implementations of the history
// checkers, kept verbatim from the seed.
//
// `check_weak_set_spec` and `check_regular_register` were rewritten as
// sort-plus-sweep passes (O(ops log ops)); these are the original
// brute-force versions — O(gets·adds + gets·|result|·ops) and
// O(reads·writes²) — whose correctness is obvious from the spec text.
// They exist to be *disagreed with*: spec_sweep_test.cpp pits the sweep
// checkers against them on randomized histories and on histories
// engineered to contain violations.  They are test-only oracles, not part
// of the library.  Do not optimize these.
#pragma once

#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "weakset/weak_set.hpp"
#include "weakset/ws_register.hpp"

namespace anon {

inline WsCheckResult ref_check_weak_set_spec(
    const std::vector<WsOpRecord>& ops) {
  WsCheckResult res;
  for (const WsOpRecord& get : ops) {
    if (get.kind != WsOpRecord::Kind::kGet) continue;
    // (1) Every add completed before the get started must be visible.
    for (const WsOpRecord& add : ops) {
      if (add.kind != WsOpRecord::Kind::kAdd) continue;
      if (add.end < get.start && get.result.count(add.value) == 0) {
        std::ostringstream os;
        os << "get@[" << get.start << "," << get.end << ") by p"
           << get.process << " missed value " << add.value.to_string()
           << " whose add by p" << add.process << " completed at " << add.end;
        return {false, os.str()};
      }
    }
    // (2) No value may appear out of thin air: some add of it must have
    // started before the get ended.
    for (const Value& v : get.result) {
      bool justified = false;
      for (const WsOpRecord& add : ops) {
        if (add.kind == WsOpRecord::Kind::kAdd && add.value == v &&
            add.start <= get.end) {
          justified = true;
          break;
        }
      }
      if (!justified) {
        std::ostringstream os;
        os << "get@[" << get.start << "," << get.end << ") by p"
           << get.process << " returned value " << v.to_string()
           << " with no add started before the get ended";
        return {false, os.str()};
      }
    }
  }
  return res;
}

inline RegCheckResult ref_check_regular_register(
    const std::vector<RegOpRecord>& ops) {
  auto precedes = [](const RegOpRecord& a, const RegOpRecord& b) {
    return a.end < b.start;
  };
  for (const RegOpRecord& r : ops) {
    if (r.kind != RegOpRecord::Kind::kRead) continue;
    // Valid sources: writes started before the read ended and not strictly
    // superseded by another write that completed before the read started.
    bool initial_ok = true;  // reading ⊥/initial is fine iff no write ≺ read
    std::set<std::optional<Value>> valid;
    for (const RegOpRecord& w : ops) {
      if (w.kind != RegOpRecord::Kind::kWrite) continue;
      if (precedes(w, r)) initial_ok = false;
      if (w.start > r.end) continue;
      bool superseded = false;
      for (const RegOpRecord& w2 : ops) {
        if (w2.kind != RegOpRecord::Kind::kWrite) continue;
        if (precedes(w, w2) && precedes(w2, r)) {
          superseded = true;
          break;
        }
      }
      if (!superseded) valid.insert(w.value);
    }
    if (initial_ok) valid.insert(std::nullopt);
    if (valid.count(r.value) == 0) {
      std::ostringstream os;
      os << "read@[" << r.start << "," << r.end << ") by p" << r.process
         << " returned "
         << (r.value ? r.value->to_string() : std::string("⊥"))
         << " which is neither a current nor a concurrent write";
      return {false, os.str()};
    }
  }
  return {};
}

}  // namespace anon

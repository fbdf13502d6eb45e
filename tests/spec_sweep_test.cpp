// The sweep-based history checkers (check_weak_set_spec,
// check_regular_register) against the retained brute-force reference
// implementations (reference_checkers.hpp): identical verdicts on
//  * valid-by-construction histories,
//  * fully random histories (mostly invalid),
//  * valid histories with one engineered violation of each kind,
//  * histories produced by the real constructions (Alg 4 / Prop 2 / 3).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "reference_checkers.hpp"
#include "weakset/ms_weak_set.hpp"
#include "weakset/ws_from_mwmr.hpp"
#include "weakset/ws_from_swmr.hpp"
#include "weakset/ws_register.hpp"

namespace anon {
namespace {

// ---------- weak-set spec ----------

WsOpRecord ws_add(Value v, std::uint64_t s, std::uint64_t e, std::size_t p) {
  WsOpRecord r;
  r.kind = WsOpRecord::Kind::kAdd;
  r.value = v;
  r.start = s;
  r.end = e;
  r.process = p;
  return r;
}

WsOpRecord ws_get(ValueSet res, std::uint64_t s, std::uint64_t e,
                  std::size_t p) {
  WsOpRecord r;
  r.kind = WsOpRecord::Kind::kGet;
  r.result = std::move(res);
  r.start = s;
  r.end = e;
  r.process = p;
  return r;
}

// A valid-by-construction history: each get returns every value whose add
// completed before the get started, plus a random subset of the values
// whose add started before the get ended.
std::vector<WsOpRecord> valid_ws_history(Rng& rng, std::size_t n_ops,
                                         std::int64_t domain) {
  std::vector<WsOpRecord> adds;
  std::vector<WsOpRecord> ops;
  for (std::size_t i = 0; i < n_ops; ++i) {
    const std::uint64_t start = rng.below(4 * n_ops);
    if (rng.chance(0.5)) {
      const Value v(static_cast<std::int64_t>(rng.below(
          static_cast<std::uint64_t>(domain))));
      auto rec = ws_add(v, start, start + 1 + rng.below(12), i % 7);
      adds.push_back(rec);
      ops.push_back(rec);
    } else {
      ops.push_back(ws_get({}, start, start + rng.below(6), i % 7));
    }
  }
  for (WsOpRecord& op : ops) {
    if (op.kind != WsOpRecord::Kind::kGet) continue;
    for (const WsOpRecord& add : adds) {
      bool include = false;
      if (add.end < op.start) include = true;               // must
      else if (add.start <= op.end && rng.chance(0.5)) include = true;  // may
      if (include) op.result.insert(add.value);
    }
  }
  return ops;
}

class WsSweepAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WsSweepAgreement, ValidHistoriesAccepted) {
  Rng rng(GetParam());
  for (int it = 0; it < 20; ++it) {
    auto ops = valid_ws_history(rng, 40, 9);
    EXPECT_TRUE(ref_check_weak_set_spec(ops).ok);
    EXPECT_TRUE(check_weak_set_spec(ops).ok);
  }
}

TEST_P(WsSweepAgreement, RandomHistoriesAgree) {
  // Fully random results: usually invalid; the two checkers must agree on
  // every single verdict either way.
  Rng rng(GetParam() ^ 0xabcdef);
  for (int it = 0; it < 40; ++it) {
    std::vector<WsOpRecord> ops;
    const std::size_t n_ops = 2 + rng.below(30);
    for (std::size_t i = 0; i < n_ops; ++i) {
      const std::uint64_t start = rng.below(60);
      if (rng.chance(0.5)) {
        ops.push_back(ws_add(Value(static_cast<std::int64_t>(rng.below(5))),
                             start, start + rng.below(10), i % 4));
      } else {
        ValueSet res;
        const std::size_t sz = rng.below(4);
        for (std::size_t j = 0; j < sz; ++j)
          res.insert(Value(static_cast<std::int64_t>(rng.below(6))));
        ops.push_back(ws_get(std::move(res), start, start + rng.below(6),
                             i % 4));
      }
    }
    const bool ref_ok = ref_check_weak_set_spec(ops).ok;
    const bool new_ok = check_weak_set_spec(ops).ok;
    EXPECT_EQ(ref_ok, new_ok);
  }
}

TEST_P(WsSweepAgreement, EngineeredViolationsBothRejected) {
  Rng rng(GetParam() * 31 + 5);
  int missed = 0, thin_air = 0;
  for (int it = 0; it < 60 && (missed < 5 || thin_air < 5); ++it) {
    auto ops = valid_ws_history(rng, 40, 9);
    // Pick a mutation: drop a must-see value from a get, or inject a value
    // nobody ever added.
    std::vector<std::size_t> gets;
    for (std::size_t i = 0; i < ops.size(); ++i)
      if (ops[i].kind == WsOpRecord::Kind::kGet) gets.push_back(i);
    if (gets.empty()) continue;
    WsOpRecord& victim = ops[gets[rng.below(gets.size())]];
    if (rng.chance(0.5)) {
      // Missed completed add: remove a value required by condition (1).
      std::optional<Value> must;
      for (const WsOpRecord& add : ops)
        if (add.kind == WsOpRecord::Kind::kAdd && add.end < victim.start)
          must = add.value;
      if (!must) continue;
      victim.result.erase(*must);
      ++missed;
    } else {
      victim.result.insert(Value(424242));  // never added: thin air
      ++thin_air;
    }
    auto ref = ref_check_weak_set_spec(ops);
    auto swept = check_weak_set_spec(ops);
    EXPECT_FALSE(ref.ok);
    EXPECT_FALSE(swept.ok);
  }
  EXPECT_GE(missed, 5);
  EXPECT_GE(thin_air, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WsSweepAgreement,
                         ::testing::Values(1, 7, 42, 1234, 99991));

TEST(WsSweep, ReportsSameOffendingGetAsReference) {
  // Deterministic construction with two violating gets: both checkers must
  // flag the FIRST one in record order (the reference's scan order).
  std::vector<WsOpRecord> ops{
      ws_add(Value(1), 0, 5, 0),
      ws_get({}, 10, 11, 1),               // misses value 1
      ws_get({Value(9)}, 20, 21, 2),       // also thin-air value 9
  };
  auto ref = ref_check_weak_set_spec(ops);
  auto swept = check_weak_set_spec(ops);
  ASSERT_FALSE(ref.ok);
  ASSERT_FALSE(swept.ok);
  EXPECT_NE(ref.violation.find("get@[10,11)"), std::string::npos);
  EXPECT_NE(swept.violation.find("get@[10,11)"), std::string::npos);
  EXPECT_NE(swept.violation.find("missed"), std::string::npos);
}

// ---------- regular-register spec ----------

RegOpRecord reg_write(Value v, std::uint64_t s, std::uint64_t e,
                      std::size_t p = 0) {
  return {RegOpRecord::Kind::kWrite, v, s, e, p};
}
RegOpRecord reg_read(std::optional<Value> v, std::uint64_t s, std::uint64_t e,
                     std::size_t p = 1) {
  return {RegOpRecord::Kind::kRead, v, s, e, p};
}

class RegSweepAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegSweepAgreement, RandomHistoriesAgree) {
  Rng rng(GetParam());
  for (int it = 0; it < 60; ++it) {
    std::vector<RegOpRecord> ops;
    const std::size_t n_ops = 2 + rng.below(25);
    for (std::size_t i = 0; i < n_ops; ++i) {
      const std::uint64_t start = rng.below(50);
      if (rng.chance(0.45)) {
        ops.push_back(reg_write(
            Value(static_cast<std::int64_t>(rng.below(6))), start,
            start + rng.below(10), i % 3));
      } else {
        std::optional<Value> v;
        if (!rng.chance(0.2))
          v = Value(static_cast<std::int64_t>(rng.below(7)));
        ops.push_back(reg_read(v, start, start + rng.below(6), i % 3));
      }
    }
    const bool ref_ok = ref_check_regular_register(ops).ok;
    const bool new_ok = check_regular_register(ops).ok;
    EXPECT_EQ(ref_ok, new_ok);
  }
}

TEST(RegSweep, DirectedCasesMatchReference) {
  using Ops = std::vector<RegOpRecord>;
  const Ops cases[] = {
      // Sequential read sees last write.
      {reg_write(Value(1), 0, 2), reg_read(Value(1), 5, 6)},
      // Stale value after a superseding write.
      {reg_write(Value(1), 0, 2), reg_write(Value(2), 3, 4),
       reg_read(Value(1), 7, 8)},
      // Concurrent write: either value fine.
      {reg_write(Value(1), 0, 2), reg_write(Value(2), 5, 9),
       reg_read(Value(2), 6, 7)},
      // ⊥ before any write completed; ⊥ after one completed.
      {reg_read(std::nullopt, 0, 1)},
      {reg_write(Value(1), 0, 2), reg_read(std::nullopt, 5, 6)},
      // A write that never completes (crashed writer, horizon end) stays
      // concurrent with every later read.
      {reg_write(Value(3), 0, 1000), reg_read(Value(3), 5, 6),
       reg_read(std::nullopt, 7, 8)},
      // Two superseding generations: only the newest non-superseded write
      // (plus concurrents) is valid.
      {reg_write(Value(1), 0, 1), reg_write(Value(2), 2, 3),
       reg_write(Value(3), 4, 5), reg_read(Value(3), 8, 9)},
      {reg_write(Value(1), 0, 1), reg_write(Value(2), 2, 3),
       reg_write(Value(3), 4, 5), reg_read(Value(2), 8, 9)},
  };
  for (const Ops& ops : cases) {
    EXPECT_EQ(ref_check_regular_register(ops).ok,
              check_regular_register(ops).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegSweepAgreement,
                         ::testing::Values(2, 11, 23, 4242, 777));

// ---------- real construction histories ----------

TEST(SweepOnRealHistories, Alg4AndPropConstructionsCertify) {
  // Histories out of the real constructions: both checkers accept, i.e.
  // the E4/E7 certification columns are unchanged by the rewrite.
  {
    EnvParams env;
    env.kind = EnvKind::kMS;
    env.n = 5;
    env.seed = 42;
    std::vector<WsScriptOp> script;
    for (int i = 0; i < 10; ++i) {
      script.push_back({static_cast<Round>(2 + 3 * i),
                        static_cast<std::size_t>(i % 5), true, Value(100 + i)});
      script.push_back({static_cast<Round>(4 + 3 * i),
                        static_cast<std::size_t>((i + 2) % 5), false, Value()});
    }
    auto run = run_ms_weak_set(env, CrashPlan{}, script);
    EXPECT_TRUE(ref_check_weak_set_spec(run.records).ok);
    EXPECT_TRUE(check_weak_set_spec(run.records).ok);
  }
  {
    std::vector<ShmWsScriptOp> script;
    for (std::uint64_t i = 0; i < 25; ++i) {
      script.push_back({i * 2, i % 4, true,
                        Value(static_cast<std::int64_t>(i % 11))});
      script.push_back({i * 2 + 1, (i + 1) % 4, false, Value()});
    }
    auto records = run_ws_from_swmr(4, script, 7);
    EXPECT_TRUE(ref_check_weak_set_spec(records).ok);
    EXPECT_TRUE(check_weak_set_spec(records).ok);
  }
  {
    std::vector<Value> domain;
    for (int i = 0; i < 8; ++i) domain.push_back(Value(i));
    std::vector<MwmrWsScriptOp> script;
    for (std::uint64_t i = 0; i < 25; ++i) {
      script.push_back({i * 2, i % 5, true,
                        Value(static_cast<std::int64_t>(i % 8))});
      script.push_back({i * 2 + 1, (i + 2) % 5, false, Value()});
    }
    auto records = run_ws_from_mwmr(domain, script, 3);
    EXPECT_TRUE(ref_check_weak_set_spec(records).ok);
    EXPECT_TRUE(check_weak_set_spec(records).ok);
  }
}

}  // namespace
}  // namespace anon

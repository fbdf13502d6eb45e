// The interning + watermark refactor of the Algorithm 5 emulation must be
// an exact behavioural no-op: for identical options the optimized engine
// and the retained seed implementation (MsEmulationRef) emit
// byte-identical traces — every end-of-round, every delivery record, in
// the same order with the same timestamps — and identical decisions.
#include <gtest/gtest.h>

#include "algo/es_consensus.hpp"
#include "algo/runner.hpp"
#include "emul/ms_emulation.hpp"
#include "ms_emulation_ref.hpp"
#include "env/validate.hpp"

namespace anon {
namespace {

class Echo final : public Automaton<ValueSet> {
 public:
  explicit Echo(std::int64_t seed) : seed_(seed) {}
  ValueSet initialize() override { return ValueSet{Value(seed_)}; }
  ValueSet compute(Round k, const Inboxes<ValueSet>& inboxes) override {
    ValueSet out;
    for (const ValueSet& m : inbox_at(inboxes, k))
      out.insert(m.begin(), m.end());
    return out;
  }
  std::int64_t seed_;
};

std::vector<std::unique_ptr<Automaton<ValueSet>>> echoes(std::size_t n) {
  std::vector<std::unique_ptr<Automaton<ValueSet>>> autos;
  for (std::size_t i = 0; i < n; ++i)
    autos.push_back(std::make_unique<Echo>(static_cast<std::int64_t>(i)));
  return autos;
}

void expect_traces_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.end_of_rounds().size(), b.end_of_rounds().size());
  for (std::size_t i = 0; i < a.end_of_rounds().size(); ++i) {
    const auto& x = a.end_of_rounds()[i];
    const auto& y = b.end_of_rounds()[i];
    ASSERT_TRUE(x.process == y.process && x.round == y.round &&
                x.time == y.time)
        << "end-of-round " << i << " differs";
  }
  ASSERT_EQ(a.deliveries().size(), b.deliveries().size());
  for (std::size_t i = 0; i < a.deliveries().size(); ++i) {
    const auto& x = a.deliveries()[i];
    const auto& y = b.deliveries()[i];
    ASSERT_TRUE(x.sender == y.sender && x.msg_round == y.msg_round &&
                x.receiver == y.receiver &&
                x.receiver_round == y.receiver_round && x.time == y.time)
        << "delivery " << i << " differs";
  }
}

class EmulationEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmulationEquivalence, TracesAreByteIdentical) {
  MsEmulationOptions opt;
  opt.seed = GetParam();
  MsEmulation<ValueSet> fast(echoes(5), opt);
  MsEmulationRef<ValueSet> ref(echoes(5), opt);
  ASSERT_TRUE(fast.run_until_round(30));
  ASSERT_TRUE(ref.run_until_round(30));
  expect_traces_identical(fast.trace(), ref.trace());
  EXPECT_EQ(fast.weak_set_size(), ref.weak_set_size());
  for (ProcId p = 0; p < 5; ++p) EXPECT_EQ(fast.round(p), ref.round(p));
}

TEST_P(EmulationEquivalence, SkewedTracesAreByteIdentical) {
  // Heavy round skew exercises the watermark path hardest: fast processes
  // drain long suffixes while the slow one catches up in bulk.
  MsEmulationOptions opt;
  opt.seed = GetParam() ^ 0xfeed;
  opt.skew = {1, 12, 1, 3};
  MsEmulation<ValueSet> fast(echoes(4), opt);
  MsEmulationRef<ValueSet> ref(echoes(4), opt);
  ASSERT_TRUE(fast.run_until_round(20));
  ASSERT_TRUE(ref.run_until_round(20));
  expect_traces_identical(fast.trace(), ref.trace());
  EXPECT_EQ(fast.weak_set_size(), ref.weak_set_size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmulationEquivalence,
                         ::testing::Values(1, 3, 17, 99, 2024, 31337));

TEST(EmulationEquivalence, ConsensusDecisionsMatchTheReference) {
  // Algorithm 2 on top of the emulated MS: both engines must drive the
  // automatons through the identical execution, decisions included.
  MsEmulationOptions opt;
  opt.seed = 77;
  opt.skew = {1, 3, 1, 6};
  auto autos = [] {
    std::vector<std::unique_ptr<Automaton<EsMessage>>> a;
    for (auto v : distinct_values(4))
      a.push_back(std::make_unique<EsConsensus>(v));
    return a;
  };
  MsEmulation<EsMessage> fast(autos(), opt);
  MsEmulationRef<EsMessage> ref(autos(), opt);
  fast.run_until_round(150);
  ref.run_until_round(150);
  expect_traces_identical(fast.trace(), ref.trace());
  for (ProcId p = 0; p < 4; ++p)
    EXPECT_EQ(fast.process(p).decision(), ref.process(p).decision());
}

TEST(EmulationInterning, IdenticalAddsShareOneElement) {
  // Three behaviourally-identical processes intern every ⟨round, batch⟩
  // once: the element store stays at ~one element per round, not n per
  // round (the weak-set merge, now visible in the representation).
  MsEmulationOptions opt;
  opt.seed = 5;
  std::vector<std::unique_ptr<Automaton<ValueSet>>> autos;
  for (int i = 0; i < 3; ++i) autos.push_back(std::make_unique<Echo>(7));
  MsEmulation<ValueSet> emu(std::move(autos), opt);
  ASSERT_TRUE(emu.run_until_round(10));
  Round max_round = 0;
  for (ProcId p = 0; p < 3; ++p) max_round = std::max(max_round, emu.round(p));
  EXPECT_LE(emu.interned_elements(), max_round);
}

}  // namespace
}  // namespace anon

// The anonsim CLI's backend surface: `describe` states each preset's
// backend support, and `run --backend cohort` flips the trace switches and
// produces the expanded engine's reports for the consensus, weakset and
// emulation families.
// These tests spawn the real binary (built next to the test in the build
// tree) and skip when it has not been built yet.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "scenario/json.hpp"

namespace {

struct CmdResult {
  int rc = -1;
  std::string output;
};

// Runs `cmd` under sh, capturing the requested stream(s).
CmdResult run_cmd(const std::string& cmd) {
  CmdResult res;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return res;
  std::array<char, 4096> buf;
  std::size_t got;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    res.output.append(buf.data(), got);
  const int status = pclose(pipe);
  res.rc = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return res;
}

bool have_anonsim() { return std::ifstream("./anonsim").good(); }

#define REQUIRE_ANONSIM() \
  if (!have_anonsim()) GTEST_SKIP() << "anonsim not built in this tree"

TEST(CliBackend, DescribeStatesBackendSupportPerFamily) {
  REQUIRE_ANONSIM();
  // The note rides on stderr; stdout stays the canonical golden JSON.
  const auto weakset =
      run_cmd("./anonsim describe e4-fast 2>&1 1>/dev/null");
  ASSERT_EQ(weakset.rc, 0);
  EXPECT_NE(weakset.output.find("backends: expanded, cohort"),
            std::string::npos)
      << weakset.output;

  const auto emulation =
      run_cmd("./anonsim describe e5-fast 2>&1 1>/dev/null");
  ASSERT_EQ(emulation.rc, 0);
  EXPECT_NE(emulation.output.find("cohort"), std::string::npos)
      << emulation.output;
  EXPECT_NE(emulation.output.find("interned"), std::string::npos)
      << emulation.output;

  const auto shm = run_cmd("./anonsim describe e7-fast 2>&1 1>/dev/null");
  ASSERT_EQ(shm.rc, 0);
  EXPECT_NE(shm.output.find("expanded only"), std::string::npos)
      << shm.output;

  // The stdout contract is untouched: no note leaks into the JSON.
  const auto json = run_cmd("./anonsim describe e4-fast 2>/dev/null");
  ASSERT_EQ(json.rc, 0);
  EXPECT_EQ(json.output.find("backends:"), std::string::npos);
}

TEST(CliBackend, WeaksetCohortRunIsByteIdentical) {
  REQUIRE_ANONSIM();
  const auto expanded =
      run_cmd("./anonsim run --preset e4-fast --quiet --no-timing");
  const auto cohort = run_cmd(
      "./anonsim run --preset e4-fast --backend cohort --quiet --no-timing");
  ASSERT_EQ(expanded.rc, 0);
  ASSERT_EQ(cohort.rc, 0);
  EXPECT_EQ(expanded.output, cohort.output);
  EXPECT_NE(cohort.output.find("\"spec_ok\": true"), std::string::npos);
}

TEST(CliBackend, EmulationCohortRunMatchesModuloCertification) {
  REQUIRE_ANONSIM();
  // --backend cohort force-flips certify, so ms_certified goes false;
  // every other field must match the expanded run byte-for-byte.
  const auto expanded =
      run_cmd("./anonsim run --preset e5-fast --quiet --no-timing");
  const auto cohort = run_cmd(
      "./anonsim run --preset e5-fast --backend cohort --quiet --no-timing");
  ASSERT_EQ(expanded.rc, 0);
  ASSERT_EQ(cohort.rc, 0);
  std::string normalized = expanded.output;
  for (std::size_t pos;
       (pos = normalized.find("\"ms_certified\": true")) != std::string::npos;)
    normalized.replace(pos, 20, "\"ms_certified\": false");
  EXPECT_EQ(normalized, cohort.output);
}

// A report without the cohort engine's own class counters.
anon::JsonValue without_cohort_counters(const anon::JsonValue& v) {
  if (v.is_object()) {
    anon::JsonValue out = anon::JsonValue::object();
    for (const auto& [key, x] : v.entries())
      if (key != "cohorts_max" && key != "cohorts_final")
        out.set(key, without_cohort_counters(x));
    return out;
  }
  if (v.is_array()) {
    anon::JsonValue out = anon::JsonValue::array();
    for (const auto& x : v.items()) out.push(without_cohort_counters(x));
    return out;
  }
  return v;
}

TEST(CliBackend, ConsensusCohortRunMatchesExpanded) {
  REQUIRE_ANONSIM();
  // Both engines report the same cells, `bytes` included: every engine
  // instantiation sees the one MessageSizeOf<ValueSet>.  Only the cohort
  // engine's class counters are extra.
  struct Case {
    std::string preset;
    std::string expanded;  // flags selecting the expanded engine
    std::string cohort;    // flags selecting the cohort engine
  };
  const Case cases[] = {
      {"e1-fast", "", " --backend cohort"},
      {"e14-fast", "", " --backend cohort"},
      // Ships on the cohort engine at one shard per hardware thread.
      {"e13-fast", " --backend expanded --engine-threads 1", ""},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.preset);
    const std::string run =
        "./anonsim run --preset " + c.preset + " --quiet --no-timing";
    const auto expanded = run_cmd(run + c.expanded);
    const auto cohort = run_cmd(run + c.cohort);
    ASSERT_EQ(expanded.rc, 0);
    ASSERT_EQ(cohort.rc, 0);
    const auto a = anon::JsonValue::parse(expanded.output);
    const auto b = anon::JsonValue::parse(cohort.output);
    ASSERT_TRUE(a.value.has_value()) << a.error;
    ASSERT_TRUE(b.value.has_value()) << b.error;
    EXPECT_EQ(without_cohort_counters(*a.value).dump(),
              without_cohort_counters(*b.value).dump());
  }
}

TEST(CliBackend, EngineThreadsComposeWithTheCohortBackend) {
  REQUIRE_ANONSIM();
  const auto one = run_cmd(
      "./anonsim run --preset e4-fast --backend cohort --engine-threads 1 "
      "--quiet --no-timing");
  const auto four = run_cmd(
      "./anonsim run --preset e4-fast --backend cohort --engine-threads 4 "
      "--quiet --no-timing");
  ASSERT_EQ(one.rc, 0);
  ASSERT_EQ(four.rc, 0);
  EXPECT_EQ(one.output, four.output);
}

TEST(CliBackend, EngineThreadsRequireTheCohortBackend) {
  REQUIRE_ANONSIM();
  // The expanded engines are serial: a thread count there is an invalid
  // spec (exit 3) named by its field path, not a silently ignored knob.
  const std::pair<std::string, std::string> cases[] = {
      {"e5-fast", "emulation.engine_threads"},
      {"e4-fast", "weakset.engine_threads"},
      {"e1-fast", "consensus.engine_threads"},
  };
  for (const auto& [preset, field] : cases) {
    SCOPED_TRACE(preset);
    const auto res = run_cmd("./anonsim run --preset " + preset +
                             " --engine-threads 4 --quiet 2>&1");
    EXPECT_EQ(res.rc, 3);
    EXPECT_NE(res.output.find(field), std::string::npos) << res.output;
  }
}

TEST(CliBackend, BackendRejectsTraceFreeFamilies) {
  REQUIRE_ANONSIM();
  const auto res = run_cmd(
      "./anonsim run --preset e7-fast --backend cohort --quiet 2>&1");
  EXPECT_EQ(res.rc, 2);
  EXPECT_NE(res.output.find("--backend"), std::string::npos) << res.output;
}

}  // namespace

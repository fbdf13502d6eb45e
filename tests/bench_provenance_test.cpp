// Every committed BENCH_*.json names where its numbers came from: the
// machine's hardware threads, the build type, the compiler and the commit
// anonbench was built from (bench/anonbench.cpp stamps all four).  A file
// without them, or one written by a smoke run, fails here.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/json.hpp"

namespace anon {
namespace {

TEST(BenchProvenance, EveryCommittedBenchFileIsStamped) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(ANON_REPO_DIR)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("BENCH_") || !name.ends_with(".json")) continue;
    ++files;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const JsonParseResult parsed = JsonValue::parse(text.str());
    ASSERT_TRUE(parsed.value.has_value()) << name << ": " << parsed.error;
    const JsonValue& doc = *parsed.value;
    ASSERT_TRUE(doc.is_object()) << name;

    const JsonValue* threads = doc.find("hardware_threads");
    EXPECT_TRUE(threads != nullptr && threads->is_uint() &&
                threads->as_uint() > 0)
        << name << " lacks hardware_threads";
    for (const char* key : {"build_type", "compiler", "commit"}) {
      const JsonValue* v = doc.find(key);
      EXPECT_TRUE(v != nullptr && v->is_string() && !v->as_string().empty() &&
                  v->as_string() != "unknown")
          << name << " lacks " << key;
    }
    const JsonValue* smoke = doc.find("smoke");
    EXPECT_TRUE(smoke != nullptr && smoke->is_bool() && !smoke->as_bool())
        << name << " is not a full run";
  }
  EXPECT_GT(files, 0u) << "no BENCH_*.json in " << ANON_REPO_DIR;
}

}  // namespace
}  // namespace anon

// bench_e18_suite: shared types of the one seeded end-to-end benchmark.
//
// The suite drives the library only through its public functions (the
// scenario surface, the engines, the §5 harnesses, the anonsvc client) and
// times layers from outside, by wrapping those calls in spans.  See
// README.md for the workloads, the metric table and the A/B protocol.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/json.hpp"

namespace anon::suite {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string expected_path;  // pins of --seed 1; empty = not checked
};

// Which output a metric belongs to.  End-to-end metrics are what the
// untraced run reports, per-layer metrics what the traced run reports;
// detail metrics go to W.json and the printed listing only (workload-
// specific breakdowns that `compare` still reads).
enum class MetricKind { kEndToEnd, kPerLayer, kDetail };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool higher_is_better = false;
  MetricKind kind = MetricKind::kDetail;
  bool exact = false;  // deterministic for a given seed: A/B must match
};

// The outcome of one workload run, before provenance is attached.
struct WorkloadResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // output-check failures
  JsonValue sizes = JsonValue::object();
  JsonValue pins;  // exact totals over the pinned cell prefix (sims only)

  void add(std::string name, double value, std::string unit,
           bool higher_is_better, MetricKind kind, bool exact = false) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit),
                             higher_is_better, kind, exact});
  }
  void violation(std::string what) { violations.push_back(std::move(what)); }
  // A failed cell or operation (the first few are kept as violations).
  void fail(const std::string& where, const std::string& what) {
    ++failed;
    if (violations.size() < 20) violation(where + ": " + what);
  }
};

// ---- Spans -----------------------------------------------------------------

// In-memory span recorder.  A span is one call into a layer: its name, the
// cell or operation id it served, its parent (the innermost span open on
// the same thread) and its start and end.  Spans are written as JSONL when
// the run ends, with self time = duration minus the children's durations.
// A disabled tracer records nothing and costs one branch per span.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }

  Scope span(const char* name, std::uint64_t id) {
    return Scope(enabled_ ? this : nullptr, name, id);
  }

  // Records an already-timed interval (operations timed on their own
  // threads, microbenchmark samples).
  void record(const char* name, std::uint64_t id, Clock::time_point start,
              Clock::time_point end);

  // Durations in microseconds of every span with this name.
  std::vector<double> durations_us(std::string_view name) const;
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::int64_t parent;  // index into spans_, -1 for a root
    Clock::time_point start, end;
  };

  std::size_t open(const char* name, std::uint64_t id);
  void close(std::size_t index);

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- Statistics ------------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
// a / b, or 0 when nothing was measured (b <= 0).
inline double ratio(double a, double b) { return b > 0 ? a / b : 0; }

// FNV-1a over a byte string, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Independent 64-bit stream for (run seed, stream, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

// ---- Workloads -------------------------------------------------------------

bool is_sim_workload(const std::string& name);
WorkloadResult run_sim_workload(const Options& opt, Tracer& tracer);
WorkloadResult run_live_workload(const Options& opt, Tracer& tracer);

// `pins`: the exact totals of every sim workload's pinned prefix at
// --seed 1 (normal and smoke sizes), as the expected.json document.
JsonValue compute_all_pins();

// `compare PARENT_DIR CHANGE_DIR`: the A/B verdicts; returns the exit code.
int run_compare(const std::string& parent_dir, const std::string& change_dir,
                const std::string& benchmark_json);

}  // namespace anon::suite

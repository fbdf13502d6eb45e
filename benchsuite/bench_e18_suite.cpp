// bench_e18_suite — the one seeded end-to-end benchmark of this repository.
//
//   bench_e18_suite --workload W [--seed S] [--seconds T] [--trace 0|1]
//                   [--smoke] [--out DIR] [--commit C] [--expected FILE]
//   bench_e18_suite compare PARENT_DIR CHANGE_DIR [--benchmark FILE]
//   bench_e18_suite pins
//
// A run prints every metric as `name value unit`, writes DIR/W.json (the
// traced run: DIR/W.traced.json plus its spans in DIR/W.trace.jsonl) and
// ends with one JSON line {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics untraced, the per-layer metrics traced.  It exits
// 1 if any output check failed, 2 on a usage error.  README.md has the
// workloads, the metric table and the A/B protocol.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "suite.hpp"

namespace anon::suite {
namespace {

const char* const kWorkloads[] = {"sim-expanded", "sim-cohort", "sim-stack",
                                  "live-svc"};

int usage(const std::string& why) {
  std::cerr << "bench_e18_suite: " << why << "\n"
            << "usage: bench_e18_suite --workload "
               "sim-expanded|sim-cohort|sim-stack|live-svc [--seed S] "
               "[--seconds T] [--trace 0|1] [--smoke] [--out DIR] "
               "[--commit C] [--expected FILE]\n"
            << "       bench_e18_suite compare PARENT_DIR CHANGE_DIR "
               "[--benchmark FILE]\n"
            << "       bench_e18_suite pins\n";
  return 2;
}

bool parse_options(int argc, char** argv, Options* opt, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (a == "--trace") {
      // `--trace 0|1`, or a bare `--trace`.
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0))
        opt->trace = argv[++i][0] == '1';
      else
        opt->trace = true;
      continue;
    }
    if (a == "--smoke") {
      opt->smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) {
      *error = "missing value for " + a;
      return false;
    }
    char* end = nullptr;
    if (a == "--workload") {
      opt->workload = v;
    } else if (a == "--seed") {
      opt->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') {
        *error = "--seed wants a non-negative integer";
        return false;
      }
    } else if (a == "--seconds") {
      opt->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt->seconds > 0) || opt->seconds > 3600) {
        *error = "--seconds wants a number in (0, 3600]";
        return false;
      }
    } else if (a == "--out") {
      opt->out_dir = v;
    } else if (a == "--commit") {
      opt->commit = v;
    } else if (a == "--expected") {
      opt->expected_path = v;
    } else {
      *error = "unknown argument " + a;
      return false;
    }
  }
  for (const char* w : kWorkloads)
    if (opt->workload == w) return true;
  *error = opt->workload.empty() ? "--workload is required"
                                 : "unknown workload " + opt->workload;
  return false;
}

JsonValue provenance(const Options& opt) {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  JsonValue p = JsonValue::object();
  p.set("commit", JsonValue::str(opt.commit));
  p.set("build_type", JsonValue::str(optimized && ndebug ? "release"
                                     : optimized         ? "optimized+asserts"
                                                         : "unoptimized"));
  p.set("valid", JsonValue::boolean(optimized && ndebug));
  p.set("compiler", JsonValue::str(__VERSION__));
  p.set("hardware_threads",
        JsonValue::uint(std::thread::hardware_concurrency()));
  p.set("seed", JsonValue::uint(opt.seed));
  p.set("workload", JsonValue::str(opt.workload));
  p.set("seconds", JsonValue::number(opt.seconds));
  p.set("trace", JsonValue::boolean(opt.trace));
  p.set("smoke", JsonValue::boolean(opt.smoke));
  return p;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kEndToEnd:
      return "end_to_end";
    case MetricKind::kPerLayer:
      return "per_layer";
    case MetricKind::kDetail:
      return "detail";
  }
  return "detail";
}

int run_workload(const Options& opt) {
  Tracer tracer;
  WorkloadResult res = is_sim_workload(opt.workload)
                           ? run_sim_workload(opt, tracer)
                           : run_live_workload(opt, tracer);
  const bool correct = res.violations.empty() && res.failed == 0;
  const MetricKind shown =
      opt.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;

  JsonValue doc = JsonValue::object();
  doc.set("suite", JsonValue::str("bench_e18_suite"));
  doc.set("provenance", provenance(opt));
  doc.set("correct", JsonValue::boolean(correct));
  doc.set("attempted", JsonValue::uint(res.attempted));
  doc.set("failed", JsonValue::uint(res.failed));
  JsonValue violations = JsonValue::array();
  for (const std::string& v : res.violations)
    violations.push(JsonValue::str(v));
  doc.set("violations", std::move(violations));
  doc.set("sizes", res.sizes);
  if (!res.pins.is_null()) doc.set("pins", res.pins);
  JsonValue metrics = JsonValue::array();
  JsonValue line_metrics = JsonValue::object();
  for (const Metric& m : res.metrics) {
    if (m.kind != shown && m.kind != MetricKind::kDetail) continue;
    JsonValue j = JsonValue::object();
    j.set("name", JsonValue::str(m.name));
    j.set("value", JsonValue::number(m.value));
    j.set("unit", JsonValue::str(m.unit));
    j.set("better", JsonValue::str(m.higher_is_better ? "higher" : "lower"));
    j.set("kind", JsonValue::str(kind_name(m.kind)));
    j.set("exact", JsonValue::boolean(m.exact));
    metrics.push(std::move(j));
    std::cout << m.name << ' ' << json_render_double(m.value) << ' ' << m.unit
              << '\n';
    if (m.kind == shown) {
      JsonValue v = JsonValue::object();
      v.set("value", JsonValue::number(m.value));
      v.set("unit", JsonValue::str(m.unit));
      line_metrics.set(m.name, std::move(v));
    }
  }
  doc.set("metrics", std::move(metrics));

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string base = opt.out_dir + "/" + opt.workload;
  const std::string path = base + (opt.trace ? ".traced.json" : ".json");
  std::ofstream(path) << doc.dump() << '\n';
  if (opt.trace && !tracer.write_jsonl(base + ".trace.jsonl"))
    std::cerr << "bench_e18_suite: could not write " << base
              << ".trace.jsonl\n";
  if (!doc.find("provenance")->find("valid")->as_bool())
    std::cerr << "bench_e18_suite: unoptimized build — numbers are not valid "
                 "for comparison\n";
  for (const std::string& v : res.violations)
    std::cerr << "bench_e18_suite: CHECK FAILED: " << v << '\n';

  JsonValue line = JsonValue::object();
  line.set("correct", JsonValue::boolean(correct));
  line.set("attempted", JsonValue::uint(res.attempted));
  line.set("failed", JsonValue::uint(res.failed));
  line.set("metrics", std::move(line_metrics));
  std::cout << line.dump_compact() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace anon::suite

int main(int argc, char** argv) {
  using namespace anon::suite;
  if (argc >= 2 && std::strcmp(argv[1], "compare") == 0) {
    if (argc != 4 && !(argc == 6 && std::strcmp(argv[4], "--benchmark") == 0))
      return usage("compare wants PARENT_DIR CHANGE_DIR [--benchmark FILE]");
    return run_compare(argv[2], argv[3],
                       argc == 6 ? argv[5] : "BENCHMARK.json");
  }
  if (argc == 2 && std::strcmp(argv[1], "pins") == 0) {
    std::cout << compute_all_pins().dump() << '\n';
    return 0;
  }
  Options opt;
  std::string error;
  if (!parse_options(argc, argv, &opt, &error)) return usage(error);
  try {
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "bench_e18_suite: " << e.what() << '\n';
    return 1;
  }
}

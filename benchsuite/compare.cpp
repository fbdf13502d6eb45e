// `bench_e18_suite compare PARENT_DIR CHANGE_DIR`: the A/B protocol.
//
// Each directory holds the W.json (and W.traced.json) files of repeated
// runs of one commit, found recursively; the i-th run of a workload on one
// side pairs with the i-th on the other, in path order.  Per (metric,
// workload) the table gives each side's median and quartiles, the pairs
// the change won (ties count for neither side) and a verdict:
//
//   REGRESSION  the change's median is worse than the parent's by more
//               than the metric's BENCHMARK.json bound;
//   unresolved  a side's spread (IQR / median) exceeds the bound, unless
//               every change run beats every parent run;
//   gain        at least 10 pairs, at least 90% of them won, and a median
//               gap larger than the parent's IQR;
//   no change   otherwise.
//
// Exact counts (pinned totals and the per-layer counts marked exact) must
// be identical pair by pair, and a rise in failed operations is flagged.
// Exit code 1 if anything was flagged.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "suite.hpp"

namespace anon::suite {

namespace {

struct Run {
  std::string path;
  JsonValue doc;
};

std::optional<JsonValue> read_json(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::stringstream ss;
  ss << f.rdbuf();
  JsonParseResult r = JsonValue::parse(ss.str());
  return r.value;
}

// Whether obj[key] exists with this kind; kDouble accepts any number.
bool has(const JsonValue& obj, const char* key, JsonValue::Kind kind) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return false;
  if (kind == JsonValue::Kind::kDouble) return v->is_number();
  return v->kind() == kind;
}

// Every field `compare` reads, with its type: results files come from
// outside the program, and a malformed one is skipped, not trusted.
bool well_formed(const JsonValue& doc) {
  using K = JsonValue::Kind;
  if (!doc.is_object() || !has(doc, "suite", K::kString) ||
      doc.find("suite")->as_string() != "bench_e18_suite" ||
      !has(doc, "provenance", K::kObject) || !has(doc, "correct", K::kBool) ||
      !has(doc, "metrics", K::kArray))
    return false;
  const JsonValue& prov = *doc.find("provenance");
  if (!has(prov, "workload", K::kString) || !has(prov, "trace", K::kBool))
    return false;
  for (const JsonValue& m : doc.find("metrics")->items())
    if (!m.is_object() || !has(m, "name", K::kString) ||
        !has(m, "value", K::kDouble) || !has(m, "unit", K::kString) ||
        !has(m, "better", K::kString) || !has(m, "exact", K::kBool))
      return false;
  return true;
}

// workload (plus " traced") -> runs in path order.
std::map<std::string, std::vector<Run>> load_runs(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec))
    if (it->is_regular_file() && it->path().extension() == ".json")
      paths.push_back(it->path().string());
  std::sort(paths.begin(), paths.end());
  std::map<std::string, std::vector<Run>> out;
  for (const std::string& p : paths) {
    std::optional<JsonValue> doc = read_json(p);
    if (!doc || !doc->is_object() || doc->find("suite") == nullptr)
      continue;  // not a results file
    if (!well_formed(*doc)) {
      std::cerr << "compare: skipping malformed " << p << '\n';
      continue;
    }
    const JsonValue& prov = *doc->find("provenance");
    std::string key = prov.find("workload")->as_string();
    if (prov.find("trace")->as_bool()) key += " traced";
    out[key].push_back(Run{p, std::move(*doc)});
  }
  return out;
}

struct MetricInfo {
  std::string unit;
  bool higher = false;
  bool exact = false;
};

// name -> value of one run's metrics.
std::map<std::string, double> metric_values(
    const JsonValue& doc, std::map<std::string, MetricInfo>* info) {
  std::map<std::string, double> out;
  for (const JsonValue& m : doc.find("metrics")->items()) {
    const std::string name = m.find("name")->as_string();
    out[name] = m.find("value")->as_double();
    if (info != nullptr)
      (*info)[name] = MetricInfo{m.find("unit")->as_string(),
                                 m.find("better")->as_string() == "higher",
                                 m.find("exact")->as_bool()};
  }
  return out;
}

double number_field(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

int run_compare(const std::string& parent_dir, const std::string& change_dir,
                const std::string& benchmark_json) {
  std::map<std::string, double> bounds;
  {
    const std::optional<JsonValue> bench = read_json(benchmark_json);
    const JsonValue* e2e = bench ? bench->find("end_to_end") : nullptr;
    if (e2e == nullptr || !e2e->is_array()) {
      std::cerr << "compare: cannot read the end_to_end bounds from "
                << benchmark_json << '\n';
      return 2;
    }
    for (const JsonValue& m : e2e->items())
      if (m.is_object() && has(m, "name", JsonValue::Kind::kString) &&
          has(m, "bound", JsonValue::Kind::kDouble))
        bounds[m.find("name")->as_string()] = m.find("bound")->as_double();
  }
  const auto parent = load_runs(parent_dir);
  const auto change = load_runs(change_dir);
  if (parent.empty() || change.empty()) {
    std::cerr << "compare: no bench_e18_suite results under "
              << (parent.empty() ? parent_dir : change_dir) << '\n';
    return 2;
  }

  bool flagged = false;
  std::printf("%-36s %-22s %-30s %-30s %-7s %s\n", "metric", "workload",
              "parent median [q1, q3]", "change median [q1, q3]", "wins",
              "verdict");
  for (const auto& [workload, pruns] : parent) {
    const auto it = change.find(workload);
    if (it == change.end()) {
      std::printf("%s: no change runs\n", workload.c_str());
      continue;
    }
    const std::vector<Run>& cruns = it->second;
    const std::size_t pairs = std::min(pruns.size(), cruns.size());
    if (pairs < 10)
      std::printf("%s: %zu pairs (fewer than 10: no gain can be claimed)\n",
                  workload.c_str(), pairs);

    std::map<std::string, MetricInfo> info;
    std::vector<std::map<std::string, double>> pv, cv;
    for (std::size_t i = 0; i < pairs; ++i) {
      pv.push_back(metric_values(pruns[i].doc, &info));
      cv.push_back(metric_values(cruns[i].doc, nullptr));
    }

    // Correctness, failures and the pinned exact totals.
    double pfail = 0, cfail = 0;
    for (std::size_t i = 0; i < pairs; ++i) {
      for (const Run* r : {&pruns[i], &cruns[i]}) {
        if (!r->doc.find("correct")->as_bool()) {
          std::printf("%s: FAILED CHECKS in %s\n", workload.c_str(),
                      r->path.c_str());
          flagged = true;
        }
      }
      pfail += number_field(pruns[i].doc, "failed");
      cfail += number_field(cruns[i].doc, "failed");
      const JsonValue* pp = pruns[i].doc.find("pins");
      const JsonValue* cp = cruns[i].doc.find("pins");
      if (pp != nullptr && cp != nullptr && !(*pp == *cp)) {
        std::printf("%s: EXACT TOTALS CHANGED in pair %zu: %s vs %s\n",
                    workload.c_str(), i, pp->dump_compact().c_str(),
                    cp->dump_compact().c_str());
        flagged = true;
      }
    }
    if (cfail > pfail) {
      std::printf("%s: FAILED OPERATIONS ROSE from %.0f to %.0f\n",
                  workload.c_str(), pfail, cfail);
      flagged = true;
    }

    for (const auto& [name, mi] : info) {
      std::vector<double> p, c;
      std::size_t wins = 0, exact_diffs = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        const auto a = pv[i].find(name);
        const auto b = cv[i].find(name);
        if (a == pv[i].end() || b == cv[i].end()) continue;
        p.push_back(a->second);
        c.push_back(b->second);
        if (a->second != b->second) ++exact_diffs;
        if (mi.higher ? b->second > a->second : b->second < a->second) ++wins;
      }
      if (p.empty()) continue;
      const double pm = quantile(p, 0.5), cm = quantile(c, 0.5);
      const double pq1 = quantile(p, 0.25), pq3 = quantile(p, 0.75);
      const double cq1 = quantile(c, 0.25), cq3 = quantile(c, 0.75);
      std::string verdict;
      if (mi.exact) {
        verdict = exact_diffs == 0 ? "identical" : "EXACT COUNT CHANGED";
      } else {
        // Bounds apply to the end-to-end metrics of untraced runs only.
        const auto bound_it = bounds.find(name);
        const bool bounded = bound_it != bounds.end() &&
                             workload.find(" traced") == std::string::npos;
        const double improvement = mi.higher ? cm - pm : pm - cm;
        const double worse = pm != 0 ? -improvement / std::fabs(pm) : 0;
        const double spread_p = pm != 0 ? (pq3 - pq1) / std::fabs(pm) : 0;
        const double spread_c = cm != 0 ? (cq3 - cq1) / std::fabs(cm) : 0;
        const bool all_better =
            mi.higher ? *std::min_element(c.begin(), c.end()) >
                            *std::max_element(p.begin(), p.end())
                      : *std::max_element(c.begin(), c.end()) <
                            *std::min_element(p.begin(), p.end());
        if (bounded && worse > bound_it->second)
          verdict = "REGRESSION";
        else if (pairs >= 10 && wins * 10 >= 9 * p.size() &&
                 improvement > pq3 - pq1)
          verdict = "gain";
        else if (bounded && std::max(spread_p, spread_c) > bound_it->second &&
                 !all_better)
          verdict = "unresolved";
        else
          verdict = "no change";
      }
      if (verdict == "REGRESSION" || verdict == "EXACT COUNT CHANGED")
        flagged = true;
      if (name == "failed_ratio" && cm > pm) {
        verdict = "FAILED RATIO ROSE";
        flagged = true;
      }
      const std::string pcol =
          fmt(pm) + " [" + fmt(pq1) + ", " + fmt(pq3) + "]";
      const std::string ccol =
          fmt(cm) + " [" + fmt(cq1) + ", " + fmt(cq3) + "]";
      std::printf("%-36s %-22s %-30s %-30s %3zu/%-3zu %s\n",
                  (name + " (" + mi.unit + ")").c_str(), workload.c_str(),
                  pcol.c_str(), ccol.c_str(), wins, p.size(), verdict.c_str());
    }
  }
  return flagged ? 1 : 0;
}

}  // namespace anon::suite

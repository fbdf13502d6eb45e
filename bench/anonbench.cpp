// anonbench: the experiment driver.  It runs the declarative ladders of
// bench/ladders.json through the scenario registry and writes one
// BENCH_<experiment>.json per experiment (E1–E17), stamped with its
// provenance.
//
//   anonbench [--smoke] [--out DIR] [--commit SHA] [EXPERIMENT | LADDER]
//
// A ladder ("E6.a") belongs to the experiment before its first dot (E6).
// It names a preset, the rungs to run (each an object of
// set_scenario_field assignments such as {"env.n": 1024} or
// {"consensus.backend": "cohort"}; `smoke` lists the smaller rungs
// --smoke runs), optionally two variants run interleaved (each an
// assignment object, where "preset" swaps the base preset), and the
// report-JSON paths to record.  Every rung is decoded and validated with
// validate_scenario_spec before anything runs, so a rung that stops
// validating fails the smoke test instead of a long run.  Naming an
// experiment runs its ladders into BENCH_E6.json; naming one ladder of a
// larger experiment runs it alone into BENCH_E6.a.json, so a partial run
// never overwrites the experiment's file.
//
// Each rung runs three times (once with --smoke) on one sweep thread.  The
// file keeps the median repetition: its wall clock and the recorded paths
// of its report.  A path step "key[]" ranges over an array's elements; the
// values found there are summarized as a count of true (booleans),
// {mean, min, max} (numbers) or a count per value (strings).
//
// This is the experiment-table surface, not a regression gate: the
// regression protocol is `benchsuite/run.py compare`.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/registry.hpp"

namespace anon {
namespace {

struct Side {
  std::string variant;  // empty without variants
  ScenarioSpec spec;
};

struct Rung {
  JsonValue set;  // the rung's assignments, echoed into the file
  std::vector<Side> sides;
};

struct Ladder {
  std::string name;
  std::string about;
  std::string preset;
  std::vector<std::string> record;
  std::vector<Rung> rungs;
  std::vector<Rung> smoke;
};

std::string experiment_of(const std::string& ladder) {
  return ladder.substr(0, ladder.find('.'));
}

// Applies an assignment object to `spec`; diagnostics go to `errs`.
void apply(const JsonValue& set, ScenarioSpec* spec, const std::string& where,
           std::vector<std::string>& errs) {
  for (const auto& [path, value] : set.entries()) {
    if (path == "preset") continue;
    for (const SpecError& e :
         set_scenario_field(spec, path, value.dump_compact()))
      errs.push_back(where + ": " + e.to_string());
  }
}

const JsonValue* member(const JsonValue& obj, const std::string& key,
                        JsonValue::Kind kind, const std::string& where,
                        std::vector<std::string>& errs, bool required = true) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) errs.push_back(where + ": missing \"" + key + "\"");
    return nullptr;
  }
  if (v->kind() != kind) {
    errs.push_back(where + ": \"" + key + "\" has the wrong type");
    return nullptr;
  }
  return v;
}

// A ladder's sides: one, or its two variants (name, assignment object).
using Variants = std::vector<std::pair<std::string, const JsonValue*>>;

// Decodes one rung list into the specs it will run, diagnosing every
// assignment and validating every spec.
std::vector<Rung> decode_rungs(const JsonValue& list, const std::string& at,
                               const std::string& preset,
                               const Variants& variants,
                               std::vector<std::string>& errs) {
  std::vector<Rung> rungs;
  for (std::size_t i = 0; i < list.items().size(); ++i) {
    const JsonValue& set = list.items()[i];
    const std::string where = at + "[" + std::to_string(i) + "]";
    if (!set.is_object()) {
      errs.push_back(where + ": a rung is an object of assignments");
      continue;
    }
    Rung rung{set, {}};
    for (const auto& [vname, vset] : variants) {
      const std::string side_at =
          vname.empty() ? where : where + " (" + vname + ")";
      const JsonValue* p = vset != nullptr ? vset->find("preset") : nullptr;
      const std::string base_name =
          p != nullptr && p->is_string() ? p->as_string() : preset;
      const ScenarioPreset* base =
          ScenarioRegistry::instance().find_preset(base_name);
      if (base == nullptr) {
        errs.push_back(side_at + ": unknown preset \"" + base_name + "\"");
        continue;
      }
      Side side{vname, base->spec};
      if (vset != nullptr) apply(*vset, &side.spec, side_at, errs);
      apply(set, &side.spec, side_at, errs);
      for (const SpecError& e : validate_scenario_spec(side.spec))
        errs.push_back(side_at + ": " + e.to_string());
      rung.sides.push_back(std::move(side));
    }
    rungs.push_back(std::move(rung));
  }
  return rungs;
}

// Decodes one ladder and every spec of its full and smoke rungs.
Ladder decode_ladder(const JsonValue& doc, std::vector<std::string>& errs) {
  Ladder l;
  const JsonValue* name =
      member(doc, "name", JsonValue::Kind::kString, "ladder", errs);
  if (name == nullptr) return l;
  l.name = name->as_string();
  const std::string& at = l.name;
  static const std::vector<std::string> kKeys = {
      "name", "about", "preset", "variants", "record", "rungs", "smoke"};
  for (const auto& [key, value] : doc.entries())
    if (std::find(kKeys.begin(), kKeys.end(), key) == kKeys.end())
      errs.push_back(at + ": unknown key \"" + key + "\"");
  if (const JsonValue* about =
          member(doc, "about", JsonValue::Kind::kString, at, errs))
    l.about = about->as_string();
  if (const JsonValue* preset =
          member(doc, "preset", JsonValue::Kind::kString, at, errs))
    l.preset = preset->as_string();
  if (const JsonValue* record =
          member(doc, "record", JsonValue::Kind::kArray, at, errs)) {
    for (const JsonValue& path : record->items()) {
      if (path.is_string())
        l.record.push_back(path.as_string());
      else
        errs.push_back(at + ": record paths are strings");
    }
  }
  Variants variants = {{"", nullptr}};
  if (const JsonValue* v = member(doc, "variants", JsonValue::Kind::kObject,
                                  at, errs, false)) {
    if (v->size() != 2) errs.push_back(at + ": \"variants\" names two sides");
    variants.clear();
    for (const auto& [vname, vset] : v->entries()) {
      if (vset.is_object())
        variants.emplace_back(vname, &vset);
      else
        errs.push_back(at + ": variant " + vname + " is an object");
    }
  }
  if (const JsonValue* rungs =
          member(doc, "rungs", JsonValue::Kind::kArray, at, errs))
    l.rungs = decode_rungs(*rungs, at + " rungs", l.preset, variants, errs);
  if (const JsonValue* smoke =
          member(doc, "smoke", JsonValue::Kind::kArray, at, errs))
    l.smoke = decode_rungs(*smoke, at + " smoke", l.preset, variants, errs);
  return l;
}

// Collects the values at a dotted report path ("key[]" steps into every
// element of an array).
void collect(const JsonValue& v, std::string_view path,
             std::vector<const JsonValue*>& out) {
  if (path.empty()) {
    out.push_back(&v);
    return;
  }
  const std::size_t dot = path.find('.');
  std::string_view step = path.substr(0, dot);
  const std::string_view rest =
      dot == std::string_view::npos ? "" : path.substr(dot + 1);
  const bool each = step.ends_with("[]");
  if (each) step.remove_suffix(2);
  const JsonValue* child = v.is_object() ? v.find(std::string(step)) : nullptr;
  if (child == nullptr) return;
  if (!each) {
    collect(*child, rest, out);
  } else if (child->is_array()) {
    for (const JsonValue& item : child->items()) collect(item, rest, out);
  }
}

// `digits` significant digits: wall clocks keep four, since run-to-run
// noise dwarfs the rest; means keep six.
JsonValue rounded(double v, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return JsonValue::number(std::strtod(buf, nullptr));
}

// One recorded path of one report.  A plain path copies its value; a path
// through "[]" summarizes what it found; a path that finds nothing is null
// and left out of the file.
JsonValue record_value(const JsonValue& report, const std::string& path) {
  std::vector<const JsonValue*> found;
  collect(report, path, found);
  if (found.empty()) return JsonValue();
  if (path.find("[]") == std::string::npos) return *found.front();
  const auto all = [&](auto pred) {
    return std::all_of(found.begin(), found.end(), pred);
  };
  if (all([](const JsonValue* v) { return v->is_bool(); })) {
    return JsonValue::uint(static_cast<std::uint64_t>(std::count_if(
        found.begin(), found.end(),
        [](const JsonValue* v) { return v->as_bool(); })));
  }
  if (all([](const JsonValue* v) { return v->is_number(); })) {
    const auto less = [](const JsonValue* a, const JsonValue* b) {
      return a->as_double() < b->as_double();
    };
    double sum = 0;
    for (const JsonValue* v : found) sum += v->as_double();
    JsonValue s = JsonValue::object();
    s.set("mean", rounded(sum / static_cast<double>(found.size()), 6));
    s.set("min", **std::min_element(found.begin(), found.end(), less));
    s.set("max", **std::max_element(found.begin(), found.end(), less));
    return s;
  }
  JsonValue counts = JsonValue::object();
  for (const JsonValue* v : found) {
    const std::string key = v->is_string() ? v->as_string() : v->dump_compact();
    const JsonValue* seen = counts.find(key);
    counts.set(key, JsonValue::uint(seen ? seen->as_uint() + 1 : 1));
  }
  return counts;
}

struct Sample {
  double wall_s = 0;
  JsonValue report;
};

// Runs one rung: every repetition runs each side once, the sides in
// alternating order, and each side keeps its median repetition.
JsonValue run_rung(const Ladder& l, const Rung& rung, int reps) {
  const std::size_t k = rung.sides.size();
  std::vector<std::vector<Sample>> samples(k);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t s = r % 2 == 0 ? j : k - 1 - j;
      const auto start = std::chrono::steady_clock::now();
      const ScenarioReport report =
          ScenarioRegistry::instance().run(rung.sides[s].spec, {.threads = 1});
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      samples[s].push_back({wall, report.to_json(false)});
    }
  }
  JsonValue out = JsonValue::object();
  out.set("set", rung.set);
  for (std::size_t s = 0; s < k; ++s) {
    std::vector<Sample>& runs = samples[s];
    std::sort(runs.begin(), runs.end(), [](const Sample& a, const Sample& b) {
      return a.wall_s < b.wall_s;
    });
    const Sample& median = runs[(runs.size() - 1) / 2];
    JsonValue side = JsonValue::object();
    side.set("wall_s", rounded(median.wall_s, 4));
    side.set("cells", *median.report.find("cells"));
    for (const std::string& path : l.record) {
      JsonValue v = record_value(median.report, path);
      if (!v.is_null()) side.set(path, std::move(v));
    }
    const std::string& variant = rung.sides[s].variant;
    std::cout << "  " << l.name << " " << rung.set.dump_compact() << " "
              << variant << ": " << median.wall_s << " s\n"
              << std::flush;
    if (variant.empty()) {
      for (const auto& [key, value] : side.entries()) out.set(key, value);
    } else {
      out.set(variant, std::move(side));
    }
  }
  return out;
}

// Runs the full rungs three times each, or the smoke rungs once.
JsonValue run_ladder(const Ladder& l, bool smoke) {
  const int reps = smoke ? 1 : 3;
  JsonValue out = JsonValue::object();
  out.set("name", JsonValue::str(l.name));
  out.set("about", JsonValue::str(l.about));
  out.set("preset", JsonValue::str(l.preset));
  out.set("reps", JsonValue::uint(static_cast<std::uint64_t>(reps)));
  JsonValue rungs = JsonValue::array();
  for (const Rung& rung : smoke ? l.smoke : l.rungs)
    rungs.push(run_rung(l, rung, reps));
  out.set("rungs", std::move(rungs));
  return out;
}

int usage() {
  std::cerr << "usage: anonbench [--smoke] [--out DIR] [--commit SHA] "
               "[EXPERIMENT | LADDER]\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  bool smoke = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if ((arg == "--out" || arg == "--commit") && i + 1 < argc) {
      (arg == "--out" ? out_dir : commit) = argv[++i];
    } else if (!arg.starts_with("--") && only.empty()) {
      only = arg;
    } else {
      return usage();
    }
  }

  std::ifstream in(ANON_LADDERS);
  std::stringstream text;
  text << in.rdbuf();
  const JsonParseResult parsed = JsonValue::parse(text.str());
  if (!parsed.value || !parsed.value->is_array()) {
    std::cerr << ANON_LADDERS << ":" << parsed.line << ":" << parsed.column
              << ": " << (parsed.value ? "expected an array" : parsed.error)
              << "\n";
    return 2;
  }
  std::vector<std::string> errs;
  std::vector<Ladder> ladders;
  for (const JsonValue& doc : parsed.value->items()) {
    if (!doc.is_object()) {
      errs.push_back("a ladder is an object");
      continue;
    }
    Ladder l = decode_ladder(doc, errs);
    // One file per experiment: its ladders sit next to each other.
    const std::string experiment = experiment_of(l.name);
    if (!ladders.empty() && experiment_of(ladders.back().name) != experiment &&
        std::any_of(ladders.begin(), ladders.end(), [&](const Ladder& o) {
          return experiment_of(o.name) == experiment;
        }))
      errs.push_back(l.name + ": follow the other ladders of " + experiment);
    if (only.empty() || experiment == only || l.name == only)
      ladders.push_back(std::move(l));
  }
  if (ladders.empty()) errs.push_back("no experiment or ladder " + only);
  if (!errs.empty()) {
    for (const std::string& e : errs) std::cerr << e << "\n";
    return 2;
  }

  std::filesystem::create_directories(out_dir);
  for (std::size_t i = 0; i < ladders.size();) {
    const std::string experiment = experiment_of(ladders[i].name);
    JsonValue doc = JsonValue::object();
    doc.set("experiment", JsonValue::str(experiment));
    doc.set("smoke", JsonValue::boolean(smoke));
    doc.set("hardware_threads",
            JsonValue::uint(std::thread::hardware_concurrency()));
    doc.set("build_type", JsonValue::str(ANON_BUILD_TYPE));
    doc.set("compiler", JsonValue::str(__VERSION__));
    doc.set("commit", JsonValue::str(commit));
    JsonValue runs = JsonValue::array();
    std::cout << experiment << "\n";
    for (; i < ladders.size() && experiment_of(ladders[i].name) == experiment;
         ++i)
      runs.push(run_ladder(ladders[i], smoke));
    doc.set("ladders", std::move(runs));
    const std::string stem =
        only.find('.') != std::string::npos ? only : experiment;
    const std::filesystem::path path =
        std::filesystem::path(out_dir) / ("BENCH_" + stem + ".json");
    std::ofstream file(path);
    file << doc.dump() << "\n";
    if (!file) {
      std::cerr << "cannot write " << path.string() << "\n";
      return 1;
    }
    std::cout << "  [" << path.string() << " written]\n";
  }
  return 0;
}

}  // namespace
}  // namespace anon

int main(int argc, char** argv) { return anon::main_impl(argc, argv); }

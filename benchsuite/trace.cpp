// Span recorder and the small statistics the suite reports with.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "suite.hpp"

namespace anon::suite {

namespace {

// Spans open on this thread, innermost last (the parent of the next span).
thread_local std::vector<std::size_t> t_open;

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t id)
    : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->open(name, id);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

std::size_t Tracer::open(const char* name, std::uint64_t id) {
  const std::int64_t parent =
      t_open.empty() ? -1 : static_cast<std::int64_t>(t_open.back());
  std::size_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, id, parent, Clock::now(), {}});
    index = spans_.size() - 1;
  }
  t_open.push_back(index);
  return index;
}

void Tracer::close(std::size_t index) {
  const Clock::time_point now = Clock::now();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end = now;
}

void Tracer::record(const char* name, std::uint64_t id,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t parent =
      t_open.empty() ? -1 : static_cast<std::int64_t>(t_open.back());
  spans_.push_back(Span{name, id, parent, start, end});
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name)
      out.push_back(std::chrono::duration<double, std::micro>(s.end - s.start)
                        .count());
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += us(s.end) - us(s.start);
  std::ofstream f(path);
  if (!f) return false;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = us(s.end) - us(s.start);
    std::snprintf(buf, sizeof(buf),
                  ",\"id\":%llu,\"parent\":%lld,\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"dur_us\":%.3f,\"self_us\":%.3f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<long long>(s.parent), us(s.start), us(s.end),
                  dur, dur - child_us[i]);
    f << "{\"span\":" << i << ",\"name\":" << json_quote(s.name) << buf;
  }
  return static_cast<bool>(f);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    stream * 0xd1b54a32d192ed03ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    const double kb = std::strtod(line.c_str() + 6, nullptr);
    return kb / 1024.0;
  }
  return 0;
}

}  // namespace anon::suite

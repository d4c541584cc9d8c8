#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string_view>

#include <sys/resource.h>

namespace ucpbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

// Nearest rank: the smallest sample with at least q·n samples at or below.
std::size_t rank_of(double q, std::size_t n) {
  const double r = std::ceil(q * static_cast<double>(n));
  return static_cast<std::size_t>(std::max(1.0, r)) - 1;
}

}  // namespace

double Samples::quantile(double q) {
  if (values.empty()) return 0.0;
  const std::size_t k = rank_of(q, values.size());
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

bool Samples::valid_tail(double q) const {
  if (values.empty()) return false;
  return values.size() - 1 - rank_of(q, values.size()) >= 10;
}

double Samples::mean() const {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

double median(std::vector<double> v) {
  Samples s{std::move(v)};
  return s.quantile(0.5);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty()
                    ? -1
                    : static_cast<std::int32_t>(tracer_->open_.back());
  index_ = tracer_->spans_.size();
  tracer_->open_.push_back(index_);
  span.start_ns = now_ns();
  tracer_->spans_.push_back(span);
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  tracer_->spans_[index_].end_ns = now_ns();
  tracer_->open_.pop_back();
}

double Tracer::total_ms(const char* name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) / 1e6;
}

std::size_t Tracer::count(const char* name) const {
  std::size_t n = 0;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name) ++n;
  return n;
}

double Tracer::dark_pct(std::int64_t start_ns, std::int64_t end_ns) const {
  if (end_ns <= start_ns) return 0.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  iv.reserve(spans_.size());
  for (const Span& s : spans_) {
    const std::int64_t a = std::max(s.start_ns, start_ns);
    const std::int64_t b = std::min(s.end_ns, end_ns);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0, cur_a = 0, cur_b = -1;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  const double total = static_cast<double>(end_ns - start_ns);
  return 100.0 * (total - static_cast<double>(covered)) / total;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns - epoch) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string human_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

void Report::print() const {
  std::ostream& os = std::cout;
  os << "[" << workload << "] attempted " << attempted << ", failed "
     << failed << " ("
     << human_number(attempted == 0 ? 0.0
                                    : 100.0 * static_cast<double>(failed) /
                                          static_cast<double>(attempted))
     << " %)\n";
  if (!fingerprint.empty())
    os << "[" << workload << "] result fingerprint " << fingerprint << "\n";
  for (const std::string& note : notes)
    os << "[" << workload << "] " << note << "\n";
  for (const auto& [name, vu] : info)
    os << "[" << workload << "] " << name << " = " << human_number(vu.first)
       << " " << vu.second << "\n";
  for (const auto& [name, vu] : metrics)
    os << "[" << workload << "] " << name << " = " << human_number(vu.first)
       << " " << vu.second << "  (reported)\n";
  for (const std::string& why : problems)
    os << "[" << workload << "] CHECK FAILED: " << why << "\n";
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << name
       << "\": {\"value\": " << json_number(vu.first) << ", \"unit\": \""
       << vu.second << "\"}";
  }
  os << "}}" << std::endl;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace ucpbench

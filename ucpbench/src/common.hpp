#pragma once
// Shared plumbing of the ucpbench workloads: command-line arguments, the
// seeded generator, exact sample statistics, the in-memory span recorder
// used by the traced run, and the result report every workload fills in.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ucpbench {

using Clock = std::chrono::steady_clock;

/// Set-ups per run, per workload; setup_s is their median. One set-up
/// takes about 3 ms on grid and 40 ms on large, and the machine's speed
/// swings within tens of ms, so these repeat their set-up for about a
/// second and the median spans many swings. A serve set-up (7 ms) is
/// followed by an untimed server stop that takes longer, so serve repeats
/// fewer.
inline constexpr int kGridSetups = 301;
inline constexpr int kServeSetups = 31;
inline constexpr int kLargeSetups = 25;

double seconds_since(Clock::time_point start);

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  /// Scratch directory inside the checkout for journals and trace files.
  std::string work_dir;
};

/// SplitMix64: a tiny, well-mixed generator, so the same seed gives the
/// same inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Exact order statistics over kept samples. `quantile` is the nearest-rank
/// value; `valid_tail` says whether at least ten samples lie beyond it.
struct Samples {
  std::vector<double> values;
  void add(double v) { values.push_back(v); }
  std::size_t size() const { return values.size(); }
  double quantile(double q);
  bool valid_tail(double q) const;
  double mean() const;
};

/// Median of a small vector (copied, then partially sorted).
double median(std::vector<double> v);

/// Peak resident set of this process, in MiB (VmHWM).
double peak_rss_mib();

/// User plus system CPU time of this process so far, in seconds.
double process_cpu_s();

/// In-memory span store of the traced run, used from one thread. Each call
/// into a layer gets one span: name, start, end and parent span. Spans are
/// only written out (as a Chrome trace) when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };

  /// RAII span around one call; nests under the innermost open scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Total duration of spans called `name`, in ms, and their count.
  double total_ms(const char* name) const;
  std::size_t count(const char* name) const;
  /// Share of [start_ns, end_ns] that no span covers, in percent.
  double dark_pct(std::int64_t start_ns, std::int64_t end_ns) const;
  bool write_chrome_trace(const std::string& path) const;

  static std::int64_t now_ns();

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Everything one run reports. `metrics` holds the numbers named in
/// BENCHMARK.json (end-to-end without --trace, per-layer with it); `info`
/// holds the rest of the workload's figures, printed by name but not part
/// of the result line.
struct Report {
  std::string workload;
  bool correct = true;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string fingerprint;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> info;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void information(const std::string& name, double value,
                   const std::string& unit) {
    info.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  /// Prints the human-readable block, then the JSON result line last.
  void print() const;
};

/// FNV-1a over a string, continuing from `h`.
std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 14695981039346656037ull);
std::string hex64(std::uint64_t v);

}  // namespace ucpbench

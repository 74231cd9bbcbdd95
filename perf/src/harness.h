// Shared pieces of the nanodesign benchmark: seeded input streams, exact
// latency percentiles with the "ten samples beyond" rule, output digests,
// benchmark-side spans (Chrome trace-event JSON), windowed deltas of the
// library's obs counters and timers, and the metric report that prints
// every number by name and unit and ends with the one-line JSON result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"

namespace nano::perf {

// ------------------------------------------------------------ clocks

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of this process, all threads, user + system (ns). Time the
/// process is not running, because other work holds the cores or the
/// hypervisor stole them, does not count, so a busy host moves it far less
/// than it moves wall time.
std::int64_t cpuNs();

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double peakRssMiB();

// ------------------------------------------------------------ inputs

/// SplitMix64: the benchmark's own portable, seedable stream. Input
/// generation never goes through std:: distributions, whose output is
/// implementation-defined, so a seed names the same inputs everywhere.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n) (n >= 1).
  std::uint64_t below(std::uint64_t n);
  /// Uniform double in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

/// Zipf-like popularity over ranks 0..n-1: P(rank r) ~ 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double exponent);
  std::size_t draw(SeedStream& rng) const;

 private:
  std::vector<double> cdf_;
};

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile of a sample set, with its sample accounting.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< size of the set
  std::size_t beyond = 0;   ///< samples strictly ranked above the percentile
  /// A tail percentile is reported only with >= 10 samples beyond it.
  [[nodiscard]] bool reportable() const { return beyond >= 10; }
};

/// Samples ranked above the nearest-rank q-quantile of n samples.
std::size_t samplesBeyond(std::size_t n, double q);
/// Nearest-rank q-quantile (0 < q <= 1) of `values` (copied and sorted).
Percentile percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

// ------------------------------------------------------------ digests

/// FNV-1a 64-bit fold of result bytes and bit patterns. Every result the
/// byte-reproducibility contract pins (payload bytes, slack bits, power
/// bits, solver iteration counts) goes in, so any changed result moves it.
class Digest {
 public:
  void bytes(std::string_view data);
  void u64(std::uint64_t v);
  void f64(double v);  ///< the exact bit pattern
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ------------------------------------------------------------ spans

/// Benchmark-side spans around calls into each layer's public functions:
/// name, start, end, parent span, operation id and thread. Kept in memory
/// and written as Chrome trace-event JSON at the end of a traced run. A
/// null recorder makes every Span a no-op (the untraced run).
class SpanRecorder {
 public:
  struct Record {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t op = 0;
    std::uint64_t thread = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  std::uint64_t newId();
  void add(const Record& record);
  [[nodiscard]] std::vector<Record> records() const;
  void writeChromeTrace(std::ostream& out) const;

  /// Per span name: count, median duration and total self time (duration
  /// minus the part covered by child spans), in ms.
  struct Summary {
    std::string name;
    std::size_t count = 0;
    double medianMs = 0.0;
    double totalMs = 0.0;
    double selfMs = 0.0;
  };
  [[nodiscard]] std::vector<Summary> summarize() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::uint64_t nextId_ = 1;
};

class Span {
 public:
  Span(SpanRecorder* recorder, const char* name, std::uint64_t op,
       std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  SpanRecorder* recorder_;
  SpanRecorder::Record record_;
};

// ------------------------------------------------------------ obs deltas

/// Snapshot of the library's obs counters and timers at the start of a
/// timed window; delta getters give what the window alone added, so
/// warm-up and set-up work never leak into a per-layer number.
class ObsWindow {
 public:
  ObsWindow();  ///< captures the "before" state
  [[nodiscard]] std::int64_t counter(std::string_view name) const;
  [[nodiscard]] obs::Log2Histogram::Snapshot timer(std::string_view name) const;
  /// Merged delta of every span path whose innermost component is `name`.
  [[nodiscard]] obs::Log2Histogram::Snapshot span(std::string_view name) const;

 private:
  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::map<std::string, obs::Log2Histogram::Snapshot, std::less<>> timers_;
  std::map<std::string, obs::Log2Histogram::Snapshot, std::less<>> spans_;
};

/// Turns the library's obs counters and timers off for a scope and
/// restores the previous state at exit. The benchmark's own output checks
/// run under it, so a traced window's per-layer numbers hold only the work
/// of the operations being measured.
class ObsPause {
 public:
  ObsPause() : was_(obs::enabled()) { obs::setEnabled(false); }
  ~ObsPause() { obs::setEnabled(was_); }
  ObsPause(const ObsPause&) = delete;
  ObsPause& operator=(const ObsPause&) = delete;

 private:
  bool was_;
};

/// Milliseconds of a snapshot quantile recorded in seconds (0 if empty).
double snapshotMs(const obs::Log2Histogram::Snapshot& s, double q);

// ------------------------------------------------------------ results

/// Outcome of one timed window.
struct WindowResult {
  std::vector<double> latencyMs;  ///< one sample per completed operation
  double wallS = 0.0;
  double cpuS = 0.0;  ///< process CPU (cpuNs) over the same interval
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Named output checks that failed (empty = every check passed).
  std::vector<std::string> checkFailures;
  /// Named output digests, compared against the committed expectations.
  std::map<std::string, std::string> digests;
  /// Workload-specific per-layer numbers measured inside the window.
  std::map<std::string, double> layer;
};

/// A per-layer metric name and its unit, as BENCHMARK.json lists them.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
/// Every per-layer metric, in the order the traced run prints them.
const std::vector<LayerMetricSpec>& layerMetricSpecs();

/// Prints each metric as a readable line and collects it for the final
/// one-line JSON result.
class Report {
 public:
  explicit Report(std::ostream& out) : out_(out) {}
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void line(const std::string& text);
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on one line.
  void printResult(bool correct, std::int64_t attempted,
                   std::int64_t failed) const;

 private:
  std::ostream& out_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Committed expected digests: lines "<workload> <seed> <ops> <name> <hex>".
/// Returns the expectations for one (workload, seed, ops) run.
std::map<std::string, std::string> loadExpectedDigests(
    const std::string& path, const std::string& workload, std::uint64_t seed,
    std::size_t ops);

}  // namespace nano::perf

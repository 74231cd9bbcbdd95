#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/span.h"

namespace nano::perf {

std::int64_t cpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ inputs

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SeedStream::below(std::uint64_t n) {
  // Multiply-shift range reduction; the bias at these ranges is < 2^-40.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * n) >> 64);
}

double SeedStream::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Zipf::Zipf(std::size_t n, double exponent) : cdf_(n) {
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::draw(SeedStream& rng) const {
  const double u = rng.unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

// ------------------------------------------------------------ statistics

std::size_t samplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::max<std::size_t>(rank, 1);
}

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  p.beyond = samplesBeyond(values.size(), q);
  p.value = values[values.size() - p.beyond - 1];
  return p;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5).value;
}

// ------------------------------------------------------------ digests

void Digest::bytes(std::string_view data) {
  for (const char c : data) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// ------------------------------------------------------------ spans

std::uint64_t SpanRecorder::newId() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return nextId_++;
}

void SpanRecorder::add(const Record& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

std::vector<SpanRecorder::Record> SpanRecorder::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

void SpanRecorder::writeChromeTrace(std::ostream& out) const {
  const std::vector<Record> recs = records();
  const std::int64_t origin =
      recs.empty() ? 0
                   : std::min_element(recs.begin(), recs.end(),
                                      [](const Record& a, const Record& b) {
                                        return a.startNs < b.startNs;
                                      })
                         ->startNs;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Record& r : recs) {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"op\":%llu}}",
        first ? "" : ",", r.name, static_cast<unsigned long long>(r.thread),
        static_cast<double>(r.startNs - origin) * 1e-3,
        static_cast<double>(r.endNs - r.startNs) * 1e-3,
        static_cast<unsigned long long>(r.id),
        static_cast<unsigned long long>(r.parent),
        static_cast<unsigned long long>(r.op));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
}

std::vector<SpanRecorder::Summary> SpanRecorder::summarize() const {
  const std::vector<Record> recs = records();
  std::unordered_map<std::uint64_t, double> childMs;
  for (const Record& r : recs) {
    if (r.parent != 0) {
      childMs[r.parent] += static_cast<double>(r.endNs - r.startNs) * 1e-6;
    }
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, double> self;
  for (const Record& r : recs) {
    const double ms = static_cast<double>(r.endNs - r.startNs) * 1e-6;
    durations[r.name].push_back(ms);
    const auto it = childMs.find(r.id);
    self[r.name] += ms - (it == childMs.end() ? 0.0 : it->second);
  }
  std::vector<Summary> out;
  for (auto& [name, ds] : durations) {
    Summary s;
    s.name = name;
    s.count = ds.size();
    for (const double d : ds) s.totalMs += d;
    s.selfMs = self[name];
    s.medianMs = median(std::move(ds));
    out.push_back(std::move(s));
  }
  return out;
}

Span::Span(SpanRecorder* recorder, const char* name, std::uint64_t op,
           std::uint64_t parent)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  record_.name = name;
  record_.id = recorder_->newId();
  record_.parent = parent;
  record_.op = op;
  record_.thread = std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                   100000;
  record_.startNs = nowNs();
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  record_.endNs = nowNs();
  recorder_->add(record_);
}

// ------------------------------------------------------------ obs deltas

namespace {

obs::Log2Histogram::Snapshot minus(obs::Log2Histogram::Snapshot after,
                                   const obs::Log2Histogram::Snapshot* before) {
  if (before == nullptr || before->buckets.empty()) return after;
  after.count -= before->count;
  after.total -= before->total;
  for (std::size_t i = 0; i < after.buckets.size(); ++i) {
    after.buckets[i] -= before->buckets[i];
  }
  return after;
}

std::string_view innermost(std::string_view path) {
  const auto cut = path.rfind(obs::kSpanPathSeparator);
  return cut == std::string_view::npos ? path : path.substr(cut + 1);
}

}  // namespace

ObsWindow::ObsWindow() {
  auto& reg = obs::MetricsRegistry::instance();
  for (const auto& row : reg.counters()) counters_[row.name] = row.value;
  for (const auto& row : reg.timers()) {
    timers_[row.name] = reg.timer(row.name).histogramSnapshot();
  }
  for (const auto& row : reg.spans()) {
    spans_[row.name] = reg.spanTimer(row.name).histogramSnapshot();
  }
}

std::int64_t ObsWindow::counter(std::string_view name) const {
  auto& reg = obs::MetricsRegistry::instance();
  for (const auto& row : reg.counters()) {
    if (row.name != name) continue;
    const auto it = counters_.find(name);
    return row.value - (it == counters_.end() ? 0 : it->second);
  }
  return 0;
}

obs::Log2Histogram::Snapshot ObsWindow::timer(std::string_view name) const {
  auto& reg = obs::MetricsRegistry::instance();
  for (const auto& row : reg.timers()) {
    if (row.name != name) continue;
    const auto it = timers_.find(name);
    return minus(reg.timer(name).histogramSnapshot(),
                 it == timers_.end() ? nullptr : &it->second);
  }
  return {};
}

obs::Log2Histogram::Snapshot ObsWindow::span(std::string_view name) const {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Log2Histogram::Snapshot merged;
  for (const auto& row : reg.spans()) {
    if (innermost(row.name) != name) continue;
    const auto it = spans_.find(row.name);
    const obs::Log2Histogram::Snapshot delta =
        minus(reg.spanTimer(row.name).histogramSnapshot(),
              it == spans_.end() ? nullptr : &it->second);
    if (merged.buckets.empty()) {
      merged = delta;
    } else {
      merged.merge(delta);
    }
  }
  return merged;
}

double snapshotMs(const obs::Log2Histogram::Snapshot& s, double q) {
  return s.count > 0 ? s.percentile(q) * 1e3 : 0.0;
}

// ------------------------------------------------------------ results

const std::vector<LayerMetricSpec>& layerMetricSpecs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"net.overhead_ms.p50", "ms"},
      {"svc.queue_wait_ms.p50", "ms"},
      {"svc.queue_wait_ms.p99", "ms"},
      {"svc.batch_size.mean", "count"},
      {"svc.batches", "count"},
      {"svc.eval_ms.p50", "ms"},
      {"svc.eval_ms.p99", "ms"},
      {"svc.eval_ms.design_point", "ms"},
      {"svc.eval_ms.repeater", "ms"},
      {"svc.eval_ms.wire", "ms"},
      {"svc.eval_ms.sta", "ms"},
      {"svc.eval_ms.scenario", "ms"},
      {"svc.eval_ms.design_grid", "ms"},
      {"svc.eval_ms.grid_solve", "ms"},
      {"svc.emit_ms.p50", "ms"},
      {"svc.cache_hit_ratio", "ratio"},
      {"svc.cache_evictions", "count"},
      {"svc.direct_eval_ms.p50", "ms"},
      {"svc.service_call_ms.p50", "ms"},
      {"circuit.soa_build_ms", "ms"},
      {"circuit.soa_builds_per_op", "count"},
      {"sta.analyze_netlist_ms", "ms"},
      {"sta.analyze_soa_ms", "ms"},
      {"sta.lane_speedup", "x"},
      {"sta.swap_us", "us"},
      {"sta.nodes_repropagated_per_swap", "count"},
      {"sta.analyze_calls_per_op", "count"},
      {"sta.nodes_timed_per_op", "count"},
      {"opt.flow_ms", "ms"},
      {"opt.cvs_ms", "ms"},
      {"opt.dual_vth_ms", "ms"},
      {"opt.downsize_ms", "ms"},
      {"powergrid.solve_ms", "ms"},
      {"powergrid.assembly_ms", "ms"},
      {"powergrid.assembly_reuse_ratio", "ratio"},
      {"powergrid.cg_iterations_per_solve", "count"},
      {"powergrid.mg_vcycles_per_solve", "count"},
      {"powergrid.mg_smooth_ms", "ms"},
      {"powergrid.mg_coarse_ms", "ms"},
      {"powergrid.lane_speedup", "x"},
      {"scenario.plant_build_ms", "ms"},
      {"scenario.plant_builds", "count"},
      {"scenario.plant_reuses", "count"},
      {"scenario.plant_cache_entries", "count"},
      {"scenario.sweep_ms", "ms"},
      {"scenario.host_ns_per_step", "ns"},
      {"exec.sweep_lane_efficiency", "ratio"},
      {"exec.parallel_regions_per_op", "count"},
      {"exec.tasks_per_op", "count"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out_ << "  " << name << " = " << buf << " " << unit;
  if (!note.empty()) out_ << "  (" << note << ")";
  out_ << "\n";
  metrics_.push_back({name, {value, unit}});
}

void Report::line(const std::string& text) { out_ << text << "\n"; }

void Report::printResult(bool correct, std::int64_t attempted,
                         std::int64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    os << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << buf
       << ",\"unit\":\"" << vu.second << "\"}";
    first = false;
  }
  os << "}}";
  out_ << os.str() << std::endl;
}

std::map<std::string, std::string> loadExpectedDigests(
    const std::string& path, const std::string& workload, std::uint64_t seed,
    std::size_t ops) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, name, hex;
    std::uint64_t s = 0;
    std::size_t n = 0;
    if (ls >> w >> s >> n >> name >> hex && w == workload && s == seed &&
        n == ops) {
      out[name] = hex;
    }
  }
  return out;
}

}  // namespace nano::perf

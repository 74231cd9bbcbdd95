// nanobench: one timed run of one workload.
//
//   nanobench --workload svc_mix|timing_opt|grid_scenario --seed N
//             --seconds S --trace 0|1 [--digests FILE] [--trace-out FILE]
//
// --trace 0 sets up the workload several times (the median CPU time is
// setup_s), runs one timed window and prints the end-to-end metrics: the
// gated ones on the process CPU clock, then the wall-clock ones. --trace 1
// runs an untraced window, then sets up again with the library's obs
// counters on and runs the same window under benchmark spans; it prints
// every per-layer metric, the tracing overhead and a span table, and
// writes the spans as Chrome trace-event JSON. Every run checks its
// outputs and ends with one JSON line:
// {"correct","attempted","failed","metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "exec/exec.h"
#include "kernel/dispatch.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace nano::perf {

namespace {

/// In-process set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Exec lanes of every run: the nominal op rates and the bounds in
/// BENCHMARK.json are defined at this count (2 of a 4-core box).
constexpr int kLanes = 2;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "nanobench: " << why
            << "\nusage: nanobench --workload svc_mix|timing_opt|grid_scenario"
               " --seed N --seconds S --trace 0|1"
               " [--digests FILE] [--trace-out FILE]\n";
  std::exit(2);
}

struct Args {
  Options options;
  std::string digests;
  std::string traceOut;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.options.workload = value;
      else if (flag == "--seed") a.options.seed = std::stoull(value);
      else if (flag == "--seconds") a.options.seconds = std::stoi(value);
      else if (flag == "--trace") a.options.trace = std::stoi(value) != 0;
      else if (flag == "--digests") a.digests = value;
      else if (flag == "--trace-out") a.traceOut = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.options.workload.empty()) usage("--workload is required");
  if (a.options.seconds < 1) usage("--seconds must be >= 1");
  return a;
}

const WorkloadInfo& info(const std::string& name) {
  for (const WorkloadInfo& w : workloads()) {
    if (name == w.name) return w;
  }
  usage("unknown workload " + name);
}

std::unique_ptr<Workload> make(const Options& options) {
  return info(options.workload).make(options);
}

double throughput(const WindowResult& w) {
  return static_cast<double>(w.attempted - w.failed) / w.wallS;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

/// Output checks of one window: its own named checks, failures, and the
/// committed digests for this (workload, seed, ops) if any exist.
std::vector<std::string> checkWindow(const Args& args, std::size_t ops,
                                     const WindowResult& w, Report& report) {
  std::vector<std::string> failures = w.checkFailures;
  if (w.failed != 0) {
    failures.push_back(std::to_string(w.failed) + " failed operations");
  }
  const auto expected = loadExpectedDigests(args.digests, args.options.workload,
                                            args.options.seed, ops);
  for (const auto& [name, hex] : w.digests) {
    const auto it = expected.find(name);
    std::string status = "no committed value for this seed";
    if (it != expected.end()) {
      status = it->second == hex ? "matches committed" : "MISMATCH, committed " + it->second;
      if (it->second != hex) failures.push_back("digest " + name);
    }
    report.line("  digest " + name + " = " + hex + "  (" + status + ")");
  }
  for (const auto& [name, hex] : expected) {
    if (w.digests.count(name) == 0) failures.push_back("digest " + name + " missing");
  }
  return failures;
}

/// Process CPU of the window per completed operation, ms.
double cpuMsPerOp(const WindowResult& w) {
  return w.cpuS * 1e3 /
         static_cast<double>(std::max<std::int64_t>(1, w.attempted - w.failed));
}

int runUntraced(const Args& args, std::size_t ops, Report& report) {
  const Options& o = args.options;
  std::vector<double> setupCpuS, setupWallS;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetupRepeats; ++k) {
    workload.reset();
    const std::int64_t wall0 = nowNs();
    const std::int64_t cpu0 = cpuNs();
    workload = make(o);
    setupCpuS.push_back(static_cast<double>(cpuNs() - cpu0) * 1e-9);
    setupWallS.push_back(static_cast<double>(nowNs() - wall0) * 1e-9);
  }
  const WindowResult w = workload->run(ops, nullptr);
  workload.reset();

  report.line("checks:");
  const std::vector<std::string> failures = checkWindow(args, ops, w, report);
  for (const std::string& f : failures) report.line("  FAILED " + f);

  // Gated metrics are read on the process CPU clock: on a shared host,
  // other tenants can slow a whole run's wall time by more than any bound
  // allows, while the CPU the run itself spends barely moves.
  report.line("end-to-end metrics (gated):");
  const std::int64_t completed = w.attempted - w.failed;
  report.add("cpu_ms_per_op", cpuMsPerOp(w), "ms",
             "process CPU " + fmt(w.cpuS) + " s over " +
                 std::to_string(completed) + " ops");
  report.add("peak_rss_mb", peakRssMiB(), "MiB");
  std::string setups, walls;
  for (const double s : setupCpuS) setups += (setups.empty() ? "" : ", ") + fmt(s);
  for (const double s : setupWallS) walls += (walls.empty() ? "" : ", ") + fmt(s);
  report.add("setup_s", median(setupCpuS), "s",
             "process CPU, median of " + std::to_string(kSetupRepeats) +
                 " set-ups: " + setups + "; wall: " + walls);

  report.line("wall-clock metrics (not gated; they move with the host's load):");
  const Percentile p50 = percentile(w.latencyMs, 0.5);
  const Percentile p90 = percentile(w.latencyMs, 0.9);
  const Percentile p99 = percentile(w.latencyMs, 0.99);
  report.line("  throughput_ops_s = " + fmt(throughput(w)) + " 1/s  (" +
              std::to_string(completed) + " ops in " + fmt(w.wallS) + " s wall; " +
              fmt(w.cpuS / w.wallS) + " cores busy on average)");
  report.line("  latency_p50_ms = " + fmt(p50.value) + " ms  (" +
              std::to_string(p50.samples) + " samples)");
  for (const auto& [name, p] : {std::pair{"latency_p90_ms", p90},
                                std::pair{"latency_p99_ms", p99}}) {
    if (p.reportable()) {
      report.line(std::string("  ") + name + " = " + fmt(p.value) + " ms  (" +
                  std::to_string(p.samples) + " samples, " +
                  std::to_string(p.beyond) + " beyond)");
    } else {
      report.line(std::string("  ") + name + " omitted: " +
                  std::to_string(p.beyond) + " samples beyond it (< 10)");
    }
  }
  std::string profile;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 1.0}) {
    profile += " p" + fmt(q * 100) + "=" + fmt(percentile(w.latencyMs, q).value);
  }
  report.line("  latency profile (ms):" + profile);
  report.line("  error_rate = " +
              fmt(static_cast<double>(w.failed) /
                  static_cast<double>(w.attempted)) +
              " ratio  (" + std::to_string(w.failed) + " failed / " +
              std::to_string(w.attempted) + " attempted)");
  const bool correct = failures.empty();
  report.printResult(correct, w.attempted, w.failed);
  return correct ? 0 : 1;
}

int runTraced(const Args& args, std::size_t ops, Report& report) {
  const Options& o = args.options;
  // Untraced reference window, then the same window traced.
  WindowResult plain;
  {
    const std::unique_ptr<Workload> workload = make(o);
    plain = workload->run(ops, nullptr);
  }
  obs::setEnabled(true);
  std::unique_ptr<Workload> workload = make(o);
  const ObsWindow obsWindow;
  SpanRecorder spans;
  const WindowResult traced = workload->run(ops, &spans);
  // Times the benchmark takes around layer calls come from the untraced
  // window; the library's obs counters and timers from the traced one.
  std::map<std::string, double> layer = plain.layer;
  workload->layerMetrics(obsWindow, traced, layer);
  workload.reset();
  obs::setEnabled(false);

  report.line("checks (untraced window):");
  std::vector<std::string> failures = checkWindow(args, ops, plain, report);
  report.line("checks (traced window):");
  for (const std::string& f : checkWindow(args, ops, traced, report)) {
    failures.push_back("traced: " + f);
  }
  if (plain.digests != traced.digests) {
    failures.push_back("traced and untraced digests differ");
  }
  for (const std::string& f : failures) report.line("  FAILED " + f);

  const double plainTput = throughput(plain);
  const double tracedTput = throughput(traced);
  layer["trace.overhead_pct"] = (plainTput - tracedTput) / plainTput * 100.0;
  report.line("tracing overhead: throughput_ops_s " + fmt(plainTput) +
              " untraced vs " + fmt(tracedTput) + " traced; cpu_ms_per_op " +
              fmt(cpuMsPerOp(plain)) + " vs " + fmt(cpuMsPerOp(traced)));

  report.line("per-layer metrics (" + std::to_string(ops) + " ops a window):");
  for (const LayerMetricSpec& spec : layerMetricSpecs()) {
    const auto it = layer.find(spec.name);
    if (it == layer.end()) {
      report.add(spec.name, 0.0, spec.unit, "layer not exercised here");
    } else {
      report.add(spec.name, it->second, spec.unit);
    }
  }

  // Readings a workload gives beyond the listed metrics, printed only.
  for (const auto& [name, value] : layer) {
    const auto& specs = layerMetricSpecs();
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const LayerMetricSpec& s) { return s.name == name; })) {
      report.line("  note " + name + " = " + fmt(value) + "  (not a listed metric)");
    }
  }

  report.line("benchmark spans (count, median ms, total ms, self ms):");
  for (const SpanRecorder::Summary& s : spans.summarize()) {
    report.line("  " + s.name + "  " + std::to_string(s.count) + "  " +
                fmt(s.medianMs) + "  " + fmt(s.totalMs) + "  " + fmt(s.selfMs));
  }
  if (!args.traceOut.empty()) {
    const std::filesystem::path path(args.traceOut);
    if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path);
    spans.writeChromeTrace(out);
    report.line("span trace written to " + args.traceOut);
  }
  const bool correct = failures.empty();
  report.printResult(correct, plain.attempted + traced.attempted,
                     plain.failed + traced.failed);
  return correct ? 0 : 1;
}

}  // namespace

int benchMain(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Options& o = args.options;
  obs::setEnabled(false);
  exec::setGlobalThreadCount(kLanes);
  // Widest ISA the CPU has, unless NANO_KERNEL_ISA pins one.
  const char* isaEnv = std::getenv("NANO_KERNEL_ISA");
  const kernel::Isa isa = (isaEnv != nullptr && *isaEnv != '\0')
                              ? kernel::activeIsa()
                              : kernel::setActiveIsa(kernel::detectIsa());
  const std::size_t ops = static_cast<std::size_t>(
      std::llround(info(o.workload).opsPerSecond * o.seconds));
  Report report(std::cout);
  report.line("nanobench workload=" + o.workload +
              " seed=" + std::to_string(o.seed) +
              " seconds=" + std::to_string(o.seconds) +
              " ops=" + std::to_string(ops) +
              " trace=" + (o.trace ? "1" : "0") +
              " lanes=" + std::to_string(exec::threadCount()) +
              " isa=" + kernel::isaName(isa));
  return o.trace ? runTraced(args, ops, report) : runUntraced(args, ops, report);
}

}  // namespace nano::perf

int main(int argc, char** argv) {
  try {
    return nano::perf::benchMain(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "nanobench: " << e.what() << "\n";
    std::cout << "{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{}}"
              << std::endl;
    return 1;
  }
}

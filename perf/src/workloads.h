// The benchmark's three workloads. Constructing one is its set-up (inputs
// generated from the seed, caches cleared and warmed, server started);
// run() is one timed window of a fixed operation count; layerMetrics()
// turns a traced window into per-layer numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace nano::perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 25;
  bool trace = false;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  // Workloads hold pointers into themselves (a timing engine bound to a
  // member netlist, a server bound to a member service): never copied.
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// One timed window of `ops` operations; spans go to `spans` if set.
  virtual WindowResult run(std::size_t ops, SpanRecorder* spans) = 0;
  /// Per-layer numbers of a traced window (probes run after it, untimed).
  virtual void layerMetrics(const ObsWindow& obs, const WindowResult& window,
                            std::map<std::string, double>& out) = 0;
};

std::unique_ptr<Workload> makeSvcMix(const Options& options);
std::unique_ptr<Workload> makeTimingOpt(const Options& options);
std::unique_ptr<Workload> makeGridScenario(const Options& options);

struct WorkloadInfo {
  const char* name;
  /// Nominal operations per second at 2 lanes on the reference 4-core
  /// x86-64 box. A window of S seconds runs S x this many operations:
  /// the count is fixed by the benchmark, never by how fast a build
  /// runs, so memory and exact counts do not depend on speed.
  double opsPerSecond;
  std::unique_ptr<Workload> (*make)(const Options&);
};
/// The workloads, by name.
const std::vector<WorkloadInfo>& workloads();

}  // namespace nano::perf

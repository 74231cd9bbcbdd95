// Static timing analysis: topological arrival and required times, slacks,
// the critical path, and the endpoint slack distribution the paper's
// multi-Vdd argument rests on ("over half of all timing paths commonly use
// less than half the clock cycle").
//
// The engine sweeps the netlist's flat arrays along its level schedule:
// every node of a level depends only on strictly earlier (forward) or
// strictly later (backward) levels, so each level runs data-parallel
// through exec::parallelForBlocked with bit-identical results at any lane
// count, and bit-identical to the historical pointer-walking
// implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/netlist.h"
#include "util/arena.h"
#include "util/stats.h"

namespace nano::sta {

/// Full timing picture of a netlist at a clock period.
struct TimingResult {
  double clockPeriod = 0.0;           ///< s
  double criticalPathDelay = 0.0;     ///< s
  std::vector<double> arrival;        ///< per node, s
  std::vector<double> required;       ///< per node, s
  std::vector<double> slack;          ///< per node, s
  std::vector<int> criticalPath;      ///< node ids, input -> endpoint
  double worstSlack = 0.0;            ///< min over endpoints, s

  [[nodiscard]] bool meetsTiming(double tolerance = 1e-15) const {
    return worstSlack >= -tolerance;
  }
};

/// Reusable full-analysis engine over a Netlist. Binds by reference; the
/// caller keeps the netlist alive, and may swap cells or assign it a
/// netlist of any size between calls. All working storage (the
/// level-sweep scratch and the TimingResult buffers) is allocated on the
/// first analyze() — or the first one after the netlist outgrows it — and
/// reused afterwards, so
/// steady-state re-analysis performs zero heap allocations
/// (arenaGrowthCount() is the proof the scale smoke test asserts on).
class Sta {
 public:
  explicit Sta(const circuit::Netlist& netlist) : netlist_(&netlist) {}

  /// Analyze against `clockPeriod`; pass <= 0 to time against the
  /// circuit's own critical-path delay (zero worst slack). Returns the
  /// internal result, valid until the next analyze() call.
  const TimingResult& analyze(double clockPeriod = -1.0);

  [[nodiscard]] const TimingResult& result() const { return result_; }

  /// Move the last analyze()'s result out instead of copying its three
  /// per-node vectors. result() is empty afterwards, and the next
  /// analyze() allocates fresh result buffers.
  [[nodiscard]] TimingResult takeResult() { return std::move(result_); }

  /// Heap-growth events of the scratch arena over this engine's lifetime
  /// (flat across steady-state analyze() calls).
  [[nodiscard]] std::int64_t arenaGrowthCount() const {
    return arena_.growthCount();
  }
  /// Flat-core working set: the bound netlist's arrays plus this
  /// engine's scratch, bytes. Also exported as the `sta/arena_bytes`
  /// gauge.
  [[nodiscard]] std::size_t arenaBytes() const {
    return netlist_->flatBytes() + arena_.bytesUsed();
  }

 private:
  struct SweepCtx {
    const circuit::Netlist* netlist = nullptr;
    const int* order = nullptr;
    double* arrival = nullptr;
    double* required = nullptr;
    double* slack = nullptr;
    std::int32_t* worstFanin = nullptr;
    std::size_t base = 0;  ///< offset of the level being swept
    double clock = 0.0;
  };

  const circuit::Netlist* netlist_;
  util::Arena arena_;
  std::int32_t* worstFanin_ = nullptr;
  std::size_t worstFaninCapacity_ = 0;  ///< nodes worstFanin_ can hold
  SweepCtx ctx_;
  TimingResult result_;
};

/// One-shot analysis of `netlist` against `clockPeriod` (a Sta whose
/// result is moved out). Pass clockPeriod <= 0 to time against the
/// circuit's own critical-path delay (zero worst slack).
TimingResult analyze(const circuit::Netlist& netlist, double clockPeriod = -1.0);

/// Arrival times at the endpoints (primary outputs), s.
std::vector<double> endpointArrivals(const circuit::Netlist& netlist);

/// Fraction of endpoints whose path uses less than `fraction` of the clock
/// period (the paper's slack-profile statistic).
double fractionOfPathsFasterThan(const TimingResult& timing,
                                 const circuit::Netlist& netlist,
                                 double fraction);

/// Endpoint path-delay histogram normalized to the clock period.
util::Histogram pathDelayHistogram(const TimingResult& timing,
                                   const circuit::Netlist& netlist,
                                   int bins = 20);

}  // namespace nano::sta

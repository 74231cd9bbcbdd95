// Dual-Vth assignment (paper Section 3.2.2, after [22,39]): start with an
// all-low-Vth implementation, then move every gate that can afford the
// delay increase to the high-Vth flavor, cutting its leakage ~15x (one
// 100 mV step at 85 mV/decade). Typical results in the literature — and
// the target for this implementation — are 40-80 % leakage reduction with
// essentially no critical-path penalty.
#pragma once

#include "circuit/library.h"
#include "circuit/netlist.h"
#include "power/power_model.h"
#include "sta/sta.h"

namespace nano::opt {

struct DualVthOptions {
  double clockPeriod = -1.0;  ///< <= 0: time against the circuit itself
  double guardband = 0.0;     ///< timing margin as a fraction of the clock
  double piActivity = 0.2;
};

struct DualVthResult {
  circuit::Netlist netlist;
  double fractionHighVth = 0.0;
  power::PowerBreakdown powerBefore;
  power::PowerBreakdown powerAfter;
  sta::TimingResult timingBefore;
  sta::TimingResult timingAfter;
  [[nodiscard]] double leakageSavings() const {
    return 1.0 - powerAfter.leakage / powerBefore.leakage;
  }
  [[nodiscard]] double criticalPathPenalty() const {
    return timingAfter.criticalPathDelay / timingBefore.criticalPathDelay - 1.0;
  }
};

/// Assign high Vth to as many gates as timing allows, in order of
/// decreasing leakage-per-delay benefit.
DualVthResult runDualVth(const circuit::Netlist& netlist,
                         const circuit::Library& library,
                         const DualVthOptions& options = {}, double freq = -1.0);

}  // namespace nano::opt

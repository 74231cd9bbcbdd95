// Clustered voltage scaling (CVS, Usami-Horowitz [20]; paper Section 2.4):
// assign non-critical gates to a reduced supply Vdd,l, keeping the
// electrical rule that a Vdd,l gate never drives a Vdd,h gate directly —
// low-Vdd gates cluster into cones feeding the outputs, with level
// conversion at the register boundary.
//
// Gates are visited in reverse topological order. A gate whose fanouts are
// all at Vdd,l is a candidate; a cheap slack prune on the unconverted
// timing drops most of the rest, and each survivor is verified exactly on
// a converter-aware sta::IncrementalSta: the timing of the netlist as
// insertLevelConverters would convert it, where lowering an output gate
// sets its output converter in the same trial. A trial therefore costs
// O(cone), and the result is bit-identical to converting and re-timing
// the whole netlist per candidate (the pre-incremental algorithm, kept in
// the tests as the reference).
#pragma once

#include "circuit/library.h"
#include "circuit/netlist.h"
#include "power/power_model.h"
#include "sta/sta.h"

namespace nano::opt {

/// CVS options.
struct CvsOptions {
  /// Clock period to honor; <= 0 means the circuit's own critical delay
  /// (all slack comes from path imbalance, as in the paper's discussion).
  double clockPeriod = -1.0;
  /// Extra timing margin kept in hand, as a fraction of the clock.
  double guardband = 0.01;
  double piActivity = 0.2;
};

/// CVS outcome.
struct CvsResult {
  circuit::Netlist netlist;  ///< assigned + converters inserted
  double fractionLowVdd = 0.0;         ///< of original gates
  int convertersAdded = 0;
  power::PowerBreakdown powerBefore;
  power::PowerBreakdown powerAfter;
  sta::TimingResult timingBefore;
  sta::TimingResult timingAfter;
  [[nodiscard]] double dynamicSavings() const {
    const double before = powerBefore.dynamic;
    const double after = powerAfter.dynamic + powerAfter.levelConverter;
    return 1.0 - after / before;
  }
  [[nodiscard]] double converterPowerFraction() const {
    return powerAfter.levelConverter /
           (powerAfter.dynamic + powerAfter.levelConverter);
  }
};

/// Run CVS on `netlist`. `freq` is the clock used for power reporting;
/// defaults to 1/clockPeriod. Input may already hold Vdd,l gates and level
/// converters (a CVS result can be run again), but no Vdd,l gate may drive
/// a Vdd,h gate that is not a converter: std::invalid_argument names the
/// first such gate (Netlist::vddViolations).
CvsResult runCvs(const circuit::Netlist& netlist,
                 const circuit::Library& library, const CvsOptions& options = {},
                 double freq = -1.0);

}  // namespace nano::opt

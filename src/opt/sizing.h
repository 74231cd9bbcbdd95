// Transistor (gate) re-sizing (paper Sections 2.3 and 3.3): slack-driven
// downsizing for power, upsizing to recover timing, and on-the-fly exact
// sizing that matches each gate's drive to its load — the paper's library
// optimization story. Downsizing shows the sub-linear power return the
// paper criticizes: the wire capacitance does not shrink with the gates.
#pragma once

#include "circuit/library.h"
#include "circuit/netlist.h"
#include "power/power_model.h"
#include "sta/sta.h"

namespace nano::opt {

struct SizingOptions {
  double clockPeriod = -1.0;
  double guardband = 0.0;     ///< fraction of clock kept in reserve
  double piActivity = 0.2;
  /// Continuous sizing (on-the-fly cells) instead of the discrete set.
  bool continuousSizes = false;
  /// Smallest drive a gate may shrink to.
  double minDrive = 0.5;
};

struct SizingResult {
  circuit::Netlist netlist;
  power::PowerBreakdown powerBefore;
  power::PowerBreakdown powerAfter;
  sta::TimingResult timingBefore;
  sta::TimingResult timingAfter;
  double areaBefore = 0.0;
  double areaAfter = 0.0;
  int gatesResized = 0;
  [[nodiscard]] double powerSavings() const {
    return 1.0 - powerAfter.total() / powerBefore.total();
  }
  [[nodiscard]] double areaSavings() const {
    return 1.0 - areaAfter / areaBefore;
  }
};

/// Downsize gates with slack, largest-benefit first, preserving timing.
SizingResult downsizeForPower(const circuit::Netlist& netlist,
                              const circuit::Library& library,
                              const SizingOptions& options = {},
                              double freq = -1.0);

/// Upsize gates on violating paths until `clockPeriod` is met (or no move
/// helps). Used to build timing-feasible starting points.
SizingResult upsizeForTiming(const circuit::Netlist& netlist,
                             const circuit::Library& library,
                             double clockPeriod, double freq = -1.0,
                             double maxDrive = 64.0);

/// The paper's Section 2.3 on-the-fly flow: give every gate exactly the
/// drive needed for its load at a target electrical fanout (stage effort),
/// subject to timing. With `continuousSizes` this emulates overnight
/// custom-cell generation; with discrete sizes it emulates the stock
/// library. Comparing the two reproduces the 15-22 % power reduction claim.
SizingResult sizeToLoad(const circuit::Netlist& netlist,
                        const circuit::Library& library, double targetEffort,
                        const SizingOptions& options = {}, double freq = -1.0);

}  // namespace nano::opt

// Simultaneous Vth selection and sizing (the approach of the paper's ref
// [22], Sirichotiyakul et al., "Standby power minimization through
// simultaneous threshold voltage and circuit sizing"): instead of running
// the knobs in sequence, every step greedily takes the single move —
// downsize one gate one notch, or raise one gate to high Vth — with the
// best power-saved-per-slack-consumed ratio, until no move fits timing.
#pragma once

#include "circuit/library.h"
#include "circuit/netlist.h"
#include "power/power_model.h"
#include "sta/sta.h"

namespace nano::opt {

struct SimultaneousOptions {
  double clockPeriod = -1.0;  ///< <= 0: the circuit's own critical delay
  double piActivity = 0.2;
  double minDrive = 0.5;
  /// Downsizing step per move (multiplicative).
  double sizeStep = 0.75;
  /// Safety cap on total accepted moves.
  int maxMoves = 100000;
};

struct SimultaneousResult {
  circuit::Netlist netlist;
  power::PowerBreakdown powerBefore;
  power::PowerBreakdown powerAfter;
  sta::TimingResult timingBefore;
  sta::TimingResult timingAfter;
  int sizeMoves = 0;
  int vthMoves = 0;
  [[nodiscard]] double powerSavings() const {
    return 1.0 - powerAfter.total() / powerBefore.total();
  }
};

/// Run the interleaved optimizer. Gates may both shrink and move to high
/// Vth; timing is re-verified by full STA on every accepted move.
SimultaneousResult runSimultaneous(const circuit::Netlist& netlist,
                                   const circuit::Library& library,
                                   const SimultaneousOptions& options = {},
                                   double freq = -1.0);

}  // namespace nano::opt

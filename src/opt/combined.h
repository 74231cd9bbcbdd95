// The paper's Section 3.3 "scalable dynamic/static power approach": chain
// multi-Vdd assignment (CVS), multi-Vth assignment, and re-sizing, in
// either order, and report the stage-by-stage power. Running sizing FIRST
// reproduces the paper's sub-optimality argument: downsizing consumes the
// slack that multi-Vdd would have exploited, and the quadratic (Vdd)
// saving beats the sub-linear (sizing) one.
#pragma once

#include <string>
#include <vector>

#include "opt/cvs.h"
#include "opt/dual_vth.h"
#include "opt/sizing.h"

namespace nano::opt {

/// Which optimizations to run, in order.
enum class FlowStage { MultiVdd, DualVth, Downsize };

struct FlowOptions {
  std::vector<FlowStage> stages = {FlowStage::MultiVdd, FlowStage::DualVth,
                                   FlowStage::Downsize};
  double clockPeriod = -1.0;
  double piActivity = 0.2;
  bool continuousSizes = false;
};

/// Power/timing after each stage.
struct FlowStageResult {
  std::string name;
  power::PowerBreakdown power;
  sta::TimingResult timing;
  double fractionLowVdd = 0.0;   ///< cumulative
  double fractionHighVth = 0.0;  ///< cumulative
  int gatesResized = 0;
};

struct FlowResult {
  circuit::Netlist netlist;
  power::PowerBreakdown powerBefore;
  sta::TimingResult timingBefore;
  std::vector<FlowStageResult> stages;
  [[nodiscard]] double totalSavings() const {
    if (stages.empty()) return 0.0;
    return 1.0 - stages.back().power.total() / powerBefore.total();
  }
};

/// Run the staged flow on `netlist`.
FlowResult runFlow(const circuit::Netlist& netlist,
                   const circuit::Library& library,
                   const FlowOptions& options = {}, double freq = -1.0);

}  // namespace nano::opt

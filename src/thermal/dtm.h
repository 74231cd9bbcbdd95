// Dynamic thermal management simulation (paper Section 2.1): an on-die
// temperature sensor (the Pentium 4-style diode + comparator) feeding a
// throttling controller, closed around the lumped thermal model. Shows how
// DTM lets a design be packaged for the effective rather than the
// theoretical worst case.
#pragma once

#include <vector>

#include "thermal/package.h"
#include "thermal/workload.h"

namespace nano::thermal {

/// What the controller does when the sensor trips.
enum class ThrottleKind {
  ClockOnly,     ///< reduce frequency: power scales ~ f
  ClockAndVdd,   ///< reduce f and Vdd together: power scales ~ f * V^2
};

/// DTM controller policy.
struct DtmPolicy {
  double tripTemperature = 0.0;   ///< K; sensor asserts above this
  double hysteresis = 2.0;        ///< K; deasserts below trip - hysteresis
  double throttleFactor = 0.5;    ///< frequency multiplier while throttled
  ThrottleKind kind = ThrottleKind::ClockOnly;
  double sensorDelay = 100e-6;    ///< s between sensor and actuation
  bool enabled = true;
};

/// The trip sensor of a DTM controller: a comparator with hysteresis
/// (asserts above `tripK`, deasserts at or below `tripK - hysteresisK`)
/// whose output change reaches the actuator `delayS` later; a change the
/// comparator takes back before then never applies. simulateDtm and the
/// scenario engine's reactive DTM policy both run this one latch.
class DtmSensor {
 public:
  DtmSensor(double tripK, double hysteresisK, double delayS)
      : tripK_(tripK), hysteresisK_(hysteresisK), delayS_(delayS) {}

  /// Sample the junction at time `t` (non-decreasing across calls);
  /// returns whether the actuator is throttled from now on.
  bool update(double t, double temperatureK);
  /// Back to untripped with no pending change.
  void reset() { *this = DtmSensor(tripK_, hysteresisK_, delayS_); }

 private:
  double tripK_;
  double hysteresisK_;
  double delayS_;
  bool throttled_ = false;
  double pendingChangeAt_ = -1.0;
  bool pendingState_ = false;
};

/// Result of a closed-loop simulation.
struct DtmResult {
  double maxTemperature = 0.0;       ///< K
  double avgTemperature = 0.0;       ///< K
  double throughputFraction = 0.0;   ///< delivered cycles / nominal cycles
  double throttledFraction = 0.0;    ///< fraction of time spent throttled
  double maxPower = 0.0;             ///< W, peak dissipated (post-throttle)
  std::vector<double> timeS;         ///< sampled trace (decimated)
  std::vector<double> temperatureK;
  std::vector<double> powerW;
};

/// Simulate `trace` (fractions of `worstCasePower`) on `package` with the
/// given policy. `tAmbient` in K; `dt` integration step.
DtmResult simulateDtm(const ThermalPackage& package, const PowerTrace& trace,
                      double worstCasePower, double tAmbient,
                      const DtmPolicy& policy, double dt = 20e-6,
                      int traceStride = 50);

/// Convenience: the policy the paper describes — trip just below the
/// node's junction limit, halve the clock.
DtmPolicy defaultPolicyFor(const tech::TechNode& node);

}  // namespace nano::thermal

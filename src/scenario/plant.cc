#include "scenario/plant.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "circuit/generator.h"
#include "circuit/library.h"
#include "device/gate_model.h"
#include "device/mosfet.h"
#include "obs/obs.h"
#include "powergrid/grid_model.h"
#include "powergrid/transient.h"
#include "sta/sta.h"
#include "util/memo.h"
#include "util/numeric.h"
#include "util/rng.h"

namespace nano::scenario {

namespace {

// Response-surface sampling grid. The Vdd axis spans the deepest DVS step
// any policy is allowed to take down to half the nominal supply; the
// temperature axis brackets ambient through well past the junction limit
// so the integrator never extrapolates.
constexpr int kVddSamples = 13;
constexpr int kTempSamples = 9;
constexpr double kVddFracLo = 0.50;
constexpr double kVddFracHi = 1.05;

}  // namespace

double Plant::Surface::at(double v, double t) const {
  auto cell = [](const std::vector<double>& axis, double x) {
    const auto it = std::upper_bound(axis.begin(), axis.end(), x);
    std::size_t hi = static_cast<std::size_t>(it - axis.begin());
    hi = std::clamp<std::size_t>(hi, 1, axis.size() - 1);
    const double lo = axis[hi - 1];
    const double span = axis[hi] - lo;
    const double frac = std::clamp((x - lo) / span, 0.0, 1.0);
    return std::pair<std::size_t, double>(hi - 1, frac);
  };
  const auto [iv, fv] = cell(vdd, v);
  const auto [it, ft] = cell(temp, t);
  const std::size_t nt = temp.size();
  const double v00 = value[iv * nt + it];
  const double v01 = value[iv * nt + it + 1];
  const double v10 = value[(iv + 1) * nt + it];
  const double v11 = value[(iv + 1) * nt + it + 1];
  const double lo = v00 + (v01 - v00) * ft;
  const double hi = v10 + (v11 - v10) * ft;
  return lo + (hi - lo) * fv;
}

Plant::Plant(const PlantConfig& config)
    : config_(config),
      node_(&tech::nodeByFeature(config.nodeNm)),
      package_(config.thetaJa > 0.0 ? config.thetaJa
                                    : node_->requiredThetaJa(),
               config.heatCapacity) {
  NANO_OBS_TIMER("scenario/plant_build");

  // Timing substrate: the same generated design slice as the `sta`
  // request kind, timed once at nominal to fix the clock period and the
  // slack profile.
  {
    const circuit::Library library(*node_);
    util::Rng rng(static_cast<std::uint64_t>(config.seed));
    const circuit::GeneratorConfig cfg = circuit::scaledConfig(config.gates);
    const circuit::Netlist netlist =
        circuit::pipelinedLogic(library, cfg, rng, config.blocks);
    const sta::TimingResult timing = sta::analyze(netlist);
    clockPeriod_ = timing.criticalPathDelay;
    gateCount_ = netlist.gateCount();
    endpointCount_ = static_cast<int>(netlist.outputs().size());
    fractionFasterThanHalf_ =
        sta::fractionOfPathsFasterThan(timing, netlist, 0.5);
  }

  // Device response surfaces. The physical device is fixed; operating it
  // at a reduced supply raises the effective Vth through DIBL, so each
  // sample re-specifies vth at its own operating point.
  const double tRef = node_->tjMax;
  vthNominal_ = device::solveVthForIon(*node_, node_->ionTarget);
  const double dibl = node_->dibl;
  const double wireCap = node_->localWireCapPerM * node_->avgLocalWireLength;

  delaySurface_.vdd = util::linspace(kVddFracLo, kVddFracHi, kVddSamples);
  delaySurface_.temp =
      util::linspace(node_->tAmbient - 15.0, node_->tjMax + 40.0,
                     kTempSamples);
  leakSurface_.vdd = delaySurface_.vdd;
  leakSurface_.temp = delaySurface_.temp;
  delaySurface_.value.reserve(kVddSamples * kTempSamples);
  leakSurface_.value.reserve(kVddSamples * kTempSamples);
  for (double vFrac : delaySurface_.vdd) {
    const double v = vFrac * node_->vdd;
    const double vth = vthNominal_ + dibl * (node_->vdd - v);
    for (double t : delaySurface_.temp) {
      const device::InverterModel inv(*node_, vth, v, {}, t);
      delaySurface_.value.push_back(inv.fo4Delay(wireCap));
      leakSurface_.value.push_back(inv.leakagePower());
    }
  }
  // Normalize delay against the worst case over the die's operating range
  // at nominal Vdd. With the roadmap's low supplies the device shows
  // temperature inversion (Vth falls faster than mobility with T), so the
  // slowest corner is the cold die at ambient, not the junction limit —
  // sampling the range keeps nominal clocking timing-safe either way.
  double delayRef = 0.0;
  for (double t : delaySurface_.temp) {
    if (t < node_->tAmbient - 1e-9 || t > node_->tjMax + 1e-9) continue;
    delayRef = std::max(delayRef, delaySurface_.at(1.0, t));
  }
  delayRef = std::max({delayRef, delaySurface_.at(1.0, node_->tAmbient),
                       delaySurface_.at(1.0, node_->tjMax)});
  const double leakRef = leakSurface_.at(1.0, tRef);
  for (double& d : delaySurface_.value) d /= delayRef;
  for (double& l : leakSurface_.value) l /= leakRef;

  pdynNominal_ = config.dynamicFraction * node_->maxPower;
  pleakNominal_ = (1.0 - config.dynamicFraction) * node_->maxPower;

  // Power-grid substrate: one mesh solve at the node's minimum bump pitch
  // fixes the drop-per-watt; the wake-up inductance comes from the same
  // bump array. Both scale linearly with load current per step.
  {
    powergrid::GridConfig grid = powergrid::gridConfigForNode(
        *node_, config.gridWidthMultiple, node_->minBumpPitch, true);
    grid.subdivisions = config.gridSubdivisions;
    const powergrid::GridSolution sol = powergrid::solveGrid(grid);
    baseDropFraction_ = sol.maxDropFraction;
    const powergrid::TransientReport wake = powergrid::wakeupTransient(
        *node_, powergrid::minPitchVddBumps(*node_));
    wakeInductance_ = wake.effectiveInductance;
  }
}

double Plant::delayScale(double vddFraction, double temperatureK) const {
  return delaySurface_.at(vddFraction, temperatureK);
}

double Plant::leakageScale(double vddFraction, double temperatureK) const {
  return leakSurface_.at(vddFraction, temperatureK);
}

double Plant::irDropFraction(double powerW, double vddFraction) const {
  // dropV scales with load current I = P / V; the fraction divides by the
  // operating supply once more: base * (P / Pmax) / vFrac^2.
  if (vddFraction <= 0.0) return 0.0;
  return baseDropFraction_ * (powerW / node_->maxPower) /
         (vddFraction * vddFraction);
}

double Plant::rushNoiseFraction(double deltaCurrentA, double rampS,
                                double vddFraction) const {
  if (deltaCurrentA <= 0.0 || rampS <= 0.0 || vddFraction <= 0.0) return 0.0;
  return wakeInductance_ * (deltaCurrentA / rampS) /
         (vddFraction * node_->vdd);
}

double Plant::supplyCurrent(double powerW, double vddFraction) const {
  if (vddFraction <= 0.0) return 0.0;
  return powerW / (vddFraction * node_->vdd);
}

// ------------------------------------------------------ process-wide cache

namespace {

// Equal configs hash equal; plants in one process differ mostly by seed.
struct PlantConfigHash {
  std::size_t operator()(const PlantConfig& c) const {
    return std::hash<int>{}(c.seed) ^ (std::hash<int>{}(c.gates) << 20) ^
           (std::hash<int>{}(c.nodeNm) << 40);
  }
};

// A plant is a few KB (two 13x9 surfaces plus scalars); 256 of them hold
// every plant a policy study or the benchmark mix names, and bound a
// client that streams distinct seeds.
constexpr std::size_t kPlantCapacity = 256;

util::Memo<PlantConfig, Plant, PlantConfigHash>& plantMemo() {
  static auto* memo = new util::Memo<PlantConfig, Plant, PlantConfigHash>(
      kPlantCapacity, 1,
      {.hits = "scenario/plant_reuses",
       .misses = "scenario/plant_builds",
       .evictions = "scenario/plant_evictions",
       .joins = "scenario/plant_reuses"});
  return *memo;
}

}  // namespace

std::shared_ptr<const Plant> Plant::forConfig(const PlantConfig& config) {
  return plantMemo().get(
      config, [&] { return std::make_shared<const Plant>(config); });
}

void Plant::clearCache() { plantMemo().clear(); }

}  // namespace nano::scenario

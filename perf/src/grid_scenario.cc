// grid_scenario: powergrid, scenario and thermal from one caller. Each
// operation solves the ~103k-unknown 10x10-tile, 32-subdivision waffle
// (the BM_GridSolve mesh) with multigrid-preconditioned CG, then runs an
// 8x8 policy-knob sweep of 2000-step DTM/DVS scenarios through the public
// svc::evaluate. A fixed, seeded share of operations takes each memo's
// miss path: one in kTopologyMissEvery solves starts from a cleared
// topology cache, and one in kNewPlantEvery sweeps uses a plant seed the
// process has not built yet.
#include <cstring>
#include <limits>
#include <stdexcept>

#include "exec/exec.h"
#include "powergrid/grid_model.h"
#include "scenario/plant.h"
#include "svc/eval.h"
#include "workloads.h"

namespace nano::perf {

namespace {

constexpr int kTopologyMissEvery = 5;
constexpr int kNewPlantEvery = 4;
constexpr int kInitialPlants = 4;
constexpr int kProbeReps = 3;

powergrid::GridConfig waffle(double hotspotFactor) {
  powergrid::GridConfig cfg;
  cfg.railPitch = 160e-6;
  cfg.bumpPitch = 640e-6;
  cfg.railWidth = 2e-6;
  cfg.tilesX = cfg.tilesY = 10;
  cfg.subdivisions = 32;
  cfg.hotspotFactor = hotspotFactor;
  cfg.hotspotCellsRail = 1;
  return cfg;
}

powergrid::GridSolverOptions multigrid() {
  powergrid::GridSolverOptions opt;
  opt.preconditioner = powergrid::PreconditionerKind::Multigrid;
  return opt;
}

svc::Request sweepRequest(int plantSeed) {
  svc::ScenarioSweepParams p;
  p.base.seed = plantSeed;
  p.axisA = 8;
  p.axisB = 8;
  svc::Request r;
  r.kind = svc::RequestKind::ScenarioSweep;
  r.params = p;
  return r;
}

class GridScenario final : public Workload {
 public:
  explicit GridScenario(const Options& options)
      : stream_(options.seed * 0x9e3779b97f4a7c15ULL + 11) {
    powergrid::GridModel::clearCache();
    scenario::Plant::clearCache();
    nextPlantSeed_ = 1 + static_cast<int>(stream_.below(1000)) * 1000;
    // Warm-up: assemble the topology and build the first plants.
    (void)powergrid::solveGrid(waffle(4.0), multigrid());
    for (int k = 0; k < kInitialPlants; ++k) {
      seenPlants_.push_back(nextPlantSeed_++);
      const svc::Outcome o = svc::evaluate(sweepRequest(seenPlants_.back()));
      if (o.status != svc::ResponseStatus::Ok) {
        throw std::runtime_error("grid_scenario: warm-up sweep failed: " +
                                 o.error);
      }
    }
  }

  WindowResult run(std::size_t ops, SpanRecorder* spans) override {
    WindowResult w;
    Digest gridDigest, scenarioDigest;
    std::vector<double> hitSolveMs, sweepMs;
    sweepWallS_ = 0.0;
    std::size_t missSlot = 0, plantSlot = 0;
    bool converged = true;
    const std::int64_t start = nowNs();
    const std::int64_t cpuStart = cpuNs();
    for (std::size_t op = 0; op < ops; ++op) {
      // One seeded slot per block takes each miss path: the share is
      // fixed, the positions depend on the seed.
      if (op % kTopologyMissEvery == 0) missSlot = op + stream_.below(kTopologyMissEvery);
      if (op % kNewPlantEvery == 0) plantSlot = op + stream_.below(kNewPlantEvery);
      const bool topologyMiss = op == missSlot;
      const bool newPlant = op == plantSlot;
      const double hotspot = 3.0 + 0.5 * static_cast<double>(stream_.below(5));
      int plantSeed = 0;
      if (newPlant) {
        plantSeed = nextPlantSeed_++;
        seenPlants_.push_back(plantSeed);
      } else {
        plantSeed = seenPlants_[stream_.below(seenPlants_.size())];
      }
      ++w.attempted;
      try {
        const Span opSpan(spans, "grid_scenario.op", op);
        const std::int64_t t0 = nowNs();
        if (topologyMiss) powergrid::GridModel::clearCache();
        powergrid::GridSolution sol;
        {
          const Span s(spans, "powergrid.solve_grid", op, opSpan.id());
          sol = powergrid::solveGrid(waffle(hotspot), multigrid());
        }
        const std::int64_t t1 = nowNs();
        svc::Outcome sweep;
        {
          const Span s(spans, "svc.evaluate.scenario_sweep", op, opSpan.id());
          sweep = svc::evaluate(sweepRequest(plantSeed));
        }
        const std::int64_t t2 = nowNs();
        if (sweep.status != svc::ResponseStatus::Ok) {
          throw std::runtime_error(sweep.error);
        }
        w.latencyMs.push_back(static_cast<double>(t2 - t0) * 1e-6);
        if (!topologyMiss) hitSolveMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
        sweepMs.push_back(static_cast<double>(t2 - t1) * 1e-6);
        sweepWallS_ += static_cast<double>(t2 - t1) * 1e-9;

        converged = converged && sol.cgConverged && !sol.mgFellBack;
        gridDigest.f64(sol.maxDrop);
        gridDigest.u64(static_cast<std::uint64_t>(sol.cgIterations));
        for (const double v : sol.dropV) gridDigest.f64(v);
        scenarioDigest.bytes(sweep.data);
      } catch (const std::exception&) {
        ++w.failed;
        w.latencyMs.push_back(std::numeric_limits<double>::infinity());
      }
    }
    w.wallS = static_cast<double>(nowNs() - start) * 1e-9;
    w.cpuS = static_cast<double>(cpuNs() - cpuStart) * 1e-9;
    w.digests["powergrid.drop"] = gridDigest.hex();
    w.digests["scenario.sweeps"] = scenarioDigest.hex();
    if (!converged) w.checkFailures.push_back("grid_scenario.cg_converged");
    w.layer["powergrid.solve_ms"] = median(hitSolveMs);
    w.layer["scenario.sweep_ms"] = median(sweepMs);
    return w;
  }

  void layerMetrics(const ObsWindow& obs, const WindowResult& window,
                    std::map<std::string, double>& out) override {
    const double ops = static_cast<double>(window.latencyMs.size());
    const double solves = static_cast<double>(obs.counter("powergrid/cg_solves"));
    const double assemblies =
        static_cast<double>(obs.counter("powergrid/grid_assemblies"));
    const double reuses =
        static_cast<double>(obs.counter("powergrid/grid_assembly_reuses"));
    out["powergrid.assembly_reuse_ratio"] = reuses / (assemblies + reuses);
    out["powergrid.cg_iterations_per_solve"] =
        static_cast<double>(obs.counter("powergrid/cg_iterations")) / solves;
    out["powergrid.mg_vcycles_per_solve"] =
        static_cast<double>(obs.counter("powergrid/mg_vcycles")) / solves;
    out["powergrid.mg_smooth_ms"] =
        obs.timer("powergrid/mg_smooth").total * 1e3 / solves;
    out["powergrid.mg_coarse_ms"] =
        obs.timer("powergrid/mg_coarse_solve").total * 1e3 / solves;
    out["scenario.plant_builds"] =
        static_cast<double>(obs.counter("scenario/plant_builds"));
    out["scenario.plant_reuses"] =
        static_cast<double>(obs.counter("scenario/plant_reuses"));
    out["scenario.plant_build_ms"] =
        snapshotMs(obs.timer("scenario/plant_build"), 0.5);
    // The plant cache never evicts and was cleared at set-up start, when
    // the traced run turned obs on: every build since is a live entry.
    out["scenario.plant_cache_entries"] = static_cast<double>(
        obs::MetricsRegistry::instance().counter("scenario/plant_builds").value());
    const int lanes = exec::threadCount();
    const double runS = obs.timer("scenario/run").total;
    const double steps = static_cast<double>(obs.counter("scenario/steps"));
    out["scenario.host_ns_per_step"] = steps > 0 ? runS * 1e9 / steps : 0.0;
    out["exec.sweep_lane_efficiency"] =
        runS / (static_cast<double>(lanes) * sweepWallS_);
    out["exec.parallel_regions_per_op"] =
        static_cast<double>(obs.counter("exec/parallel_regions")) / ops;
    out["exec.tasks_per_op"] = static_cast<double>(obs.counter("exec/tasks")) / ops;

    // Probes after the window: topology assembly alone, and the warm solve
    // at one lane vs the workload's lanes (results must match bit for bit).
    std::vector<double> assemblyMs;
    for (int r = 0; r < kProbeReps; ++r) {
      powergrid::GridModel::clearCache();
      const std::int64_t t0 = nowNs();
      const auto model = powergrid::GridModel::forConfig(waffle(4.0));
      (void)model->hierarchy();
      assemblyMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    }
    out["powergrid.assembly_ms"] = median(assemblyMs);
    auto solve = [&](int threads, powergrid::GridSolution& result) {
      exec::setGlobalThreadCount(threads);
      std::vector<double> ms;
      for (int r = 0; r < kProbeReps; ++r) {
        const std::int64_t t0 = nowNs();
        result = powergrid::solveGrid(waffle(4.0), multigrid());
        ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
      }
      return median(ms);
    };
    powergrid::GridSolution one, many;
    const double oneMs = solve(1, one);
    const double manyMs = solve(lanes, many);
    out["powergrid.lane_speedup"] = oneMs / manyMs;
    if (one.dropV.size() != many.dropV.size() ||
        std::memcmp(one.dropV.data(), many.dropV.data(),
                    one.dropV.size() * sizeof(double)) != 0) {
      throw std::runtime_error("grid_scenario: 1-lane and " +
                               std::to_string(lanes) +
                               "-lane IR drops differ");
    }
  }

 private:
  SeedStream stream_;
  std::vector<int> seenPlants_;
  int nextPlantSeed_ = 1;
  double sweepWallS_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> makeGridScenario(const Options& options) {
  return std::make_unique<GridScenario>(options);
}

}  // namespace nano::perf

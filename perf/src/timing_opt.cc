// timing_opt: the paper's timing and low-power flows called directly on
// circuit / sta / opt from one caller. Each operation times a resident
// ~100k-gate design in full (sta::analyze on the object netlist, which
// builds the SoA mirror), applies a fixed batch of IncrementalSta
// trial/commit/rollback Vth swaps to it, and runs the CVS -> dual-Vth ->
// downsize flow (opt::runFlow) on a ~500-gate design from a fixed pool
// of generator seeds. The benchmark seed generates the resident design,
// drives the swaps and orders the pool: every block of kFlowPool
// operations runs each pool design once, in a seeded order, so the flow
// work per window is the same for every seed.
#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "circuit/generator.h"
#include "circuit/library.h"
#include "circuit/netlist_soa.h"
#include "exec/exec.h"
#include "opt/combined.h"
#include "sta/incremental.h"
#include "sta/sta.h"
#include "tech/itrs.h"
#include "util/rng.h"
#include "workloads.h"

namespace nano::perf {

namespace {

constexpr int kNodeNm = 100;
constexpr int kResidentGates = 100000;
constexpr int kFlowGates = 500;
/// Divides the window's 8 operations per second x any multiple of 5 s, so
/// a default window runs every pool design equally often.
constexpr int kFlowPool = 10;
constexpr int kSwapsPerOp = 64;
constexpr int kProbeReps = 7;

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::memcmp(&x, &y, sizeof x) == 0;
         });
}

class TimingOpt final : public Workload {
 public:
  explicit TimingOpt(const Options& options)
      : library_(tech::nodeByFeature(kNodeNm)),
        design_(makeDesign(library_, kResidentGates, options.seed)),
        incremental_(design_),
        gates_(design_.gateIds()),
        stream_(options.seed * 0x9e3779b97f4a7c15ULL + 7) {
    for (int k = 0; k < kFlowPool; ++k) {
      pool_.push_back(makeDesign(library_, kFlowGates, 1000 + static_cast<unsigned>(k)));
    }
    for (std::size_t k = 0; k < pool_.size(); ++k) order_.push_back(k);
    // Warm-up: one full analysis and one flow, neither of which edits the
    // resident design.
    (void)sta::analyze(design_);
    (void)opt::runFlow(pool_[0], library_);
  }

  WindowResult run(std::size_t ops, SpanRecorder* spans) override {
    WindowResult w;
    Digest slackDigest, swapDigest, flowDigest;
    std::vector<double> analyzeMs, swapBatchMs, flowMs;
    const std::int64_t reprop0 = incremental_.nodesRepropagated();
    bool flowsMeetTiming = true;
    const std::int64_t start = nowNs();
    const std::int64_t cpuStart = cpuNs();
    for (std::size_t op = 0; op < ops; ++op) {
      ++w.attempted;
      try {
        const Span opSpan(spans, "timing_opt.op", op);
        const std::int64_t t0 = nowNs();
        sta::TimingResult timing;
        {
          const Span s(spans, "sta.analyze_netlist", op, opSpan.id());
          timing = sta::analyze(design_);
        }
        const std::int64_t t1 = nowNs();
        {
          const Span s(spans, "sta.swap_batch", op, opSpan.id());
          for (int k = 0; k < kSwapsPerOp; ++k) {
            const int g = gates_[stream_.below(gates_.size())];
            const circuit::Cell& cell = design_.node(g).cell;
            incremental_.trial(
                g, library_.recorner(cell,
                                     cell.vth == circuit::VthClass::Low
                                         ? circuit::VthClass::High
                                         : circuit::VthClass::Low,
                                     cell.vddDomain));
            const bool keep = incremental_.meetsTiming();
            if (keep) {
              incremental_.commit();
            } else {
              incremental_.rollback();
            }
            swapDigest.u64(static_cast<std::uint64_t>(g) * 2 + (keep ? 1 : 0));
          }
        }
        const std::int64_t t2 = nowNs();
        if (op % kFlowPool == 0) {
          for (std::size_t i = order_.size(); i > 1; --i) {
            std::swap(order_[i - 1], order_[stream_.below(i)]);
          }
        }
        const std::size_t pick = order_[op % kFlowPool];
        opt::FlowResult flow;
        {
          const Span s(spans, "opt.run_flow", op, opSpan.id());
          flow = opt::runFlow(pool_[pick], library_);
        }
        const std::int64_t t3 = nowNs();
        w.latencyMs.push_back(static_cast<double>(t3 - t0) * 1e-6);
        analyzeMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
        swapBatchMs.push_back(static_cast<double>(t2 - t1) * 1e-6);
        flowMs.push_back(static_cast<double>(t3 - t2) * 1e-6);

        // Outside the per-operation clock: fold the results.
        slackDigest.f64(timing.criticalPathDelay);
        for (const double s : timing.slack) slackDigest.f64(s);
        swapDigest.f64(incremental_.worstSlack());
        flowDigest.u64(pick);
        flowDigest.f64(flow.powerBefore.total());
        for (const opt::FlowStageResult& stage : flow.stages) {
          flowDigest.f64(stage.power.total());
          flowDigest.f64(stage.fractionLowVdd);
          flowDigest.f64(stage.fractionHighVth);
          flowDigest.u64(static_cast<std::uint64_t>(stage.gatesResized));
        }
        for (const int g : flow.netlist.gateIds()) {
          const circuit::Cell& c = flow.netlist.node(g).cell;
          flowDigest.u64(static_cast<std::uint64_t>(c.vddDomain) * 2 +
                         static_cast<std::uint64_t>(c.vth));
          flowDigest.f64(c.drive);
        }
        if (flow.stages.empty() || !flow.stages.back().timing.meetsTiming(1e-15)) {
          flowsMeetTiming = false;
        }
      } catch (const std::exception&) {
        ++w.failed;
        w.latencyMs.push_back(std::numeric_limits<double>::infinity());
      }
    }
    w.wallS = static_cast<double>(nowNs() - start) * 1e-9;
    w.cpuS = static_cast<double>(cpuNs() - cpuStart) * 1e-9;

    w.digests["sta.slack"] = slackDigest.hex();
    w.digests["sta.swaps"] = swapDigest.hex();
    w.digests["opt.flow"] = flowDigest.hex();
    if (!flowsMeetTiming) w.checkFailures.push_back("timing_opt.flow_meets_timing");
    // The incremental engine must agree bit for bit with a full analysis
    // of the edited design at its frozen clock.
    {
      const ObsPause untraced;
      const sta::TimingResult full =
          sta::analyze(design_, incremental_.clockPeriod());
      const sta::TimingResult inc = incremental_.exportResult();
      if (!sameBits(full.slack, inc.slack) || !sameBits(full.arrival, inc.arrival)) {
        w.checkFailures.push_back("timing_opt.incremental_equals_full");
      }
    }
    w.layer["sta.analyze_netlist_ms"] = median(analyzeMs);
    w.layer["sta.swap_us"] = median(swapBatchMs) * 1e3 / kSwapsPerOp;
    w.layer["opt.flow_ms"] = median(flowMs);
    w.layer["sta.nodes_repropagated_per_swap"] =
        static_cast<double>(incremental_.nodesRepropagated() - reprop0) /
        static_cast<double>(ops * kSwapsPerOp);
    return w;
  }

  void layerMetrics(const ObsWindow& obs, const WindowResult& window,
                    std::map<std::string, double>& out) override {
    const double ops = static_cast<double>(window.latencyMs.size());
    out["sta.analyze_calls_per_op"] =
        static_cast<double>(obs.counter("sta/analyze_calls")) / ops;
    out["sta.nodes_timed_per_op"] =
        static_cast<double>(obs.counter("sta/nodes_timed")) / ops;
    out["circuit.soa_builds_per_op"] =
        static_cast<double>(obs.counter("circuit/soa_builds")) / ops;
    out["exec.parallel_regions_per_op"] =
        static_cast<double>(obs.counter("exec/parallel_regions")) / ops;
    out["exec.tasks_per_op"] = static_cast<double>(obs.counter("exec/tasks")) / ops;
    for (const auto& [stage, name] :
         {std::pair{"opt/cvs", "opt.cvs_ms"}, std::pair{"opt/dual_vth", "opt.dual_vth_ms"},
          std::pair{"opt/downsize", "opt.downsize_ms"}}) {
      const auto s = obs.span(stage);
      out[name] = s.count > 0 ? s.total / static_cast<double>(s.count) * 1e3 : 0.0;
    }

    // Probes after the window: mirror build vs level sweep, and the sweep
    // at one lane vs the workload's lanes (results must match bit for bit).
    std::vector<double> buildMs;
    for (int r = 0; r < kProbeReps; ++r) {
      const std::int64_t t0 = nowNs();
      const circuit::NetlistSoA soa(design_, {.keepCells = false});
      buildMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    }
    out["circuit.soa_build_ms"] = median(buildMs);
    const circuit::NetlistSoA soa(design_, {.keepCells = false});
    const int lanes = exec::threadCount();
    auto sweep = [&](int threads, sta::TimingResult& result) {
      exec::setGlobalThreadCount(threads);
      std::vector<double> ms;
      for (int r = 0; r < kProbeReps; ++r) {
        const std::int64_t t0 = nowNs();
        result = sta::analyze(soa);
        ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
      }
      return median(ms);
    };
    sta::TimingResult one, many;
    const double oneMs = sweep(1, one);
    const double manyMs = sweep(lanes, many);
    out["sta.analyze_soa_ms"] = manyMs;
    out["sta.lane_speedup"] = oneMs / manyMs;
    if (!sameBits(one.slack, many.slack)) {
      throw std::runtime_error("timing_opt: 1-lane and " +
                               std::to_string(lanes) +
                               "-lane slacks differ");
    }
  }

 private:
  static circuit::Netlist makeDesign(const circuit::Library& library, int gates,
                                     std::uint64_t seed) {
    util::Rng rng(seed);
    return circuit::pipelinedLogic(library, circuit::scaledConfig(gates), rng, 8);
  }

  circuit::Library library_;
  circuit::Netlist design_;
  sta::IncrementalSta incremental_;
  std::vector<int> gates_;
  std::vector<circuit::Netlist> pool_;
  std::vector<std::size_t> order_;  ///< pool order of the current block
  SeedStream stream_;
};

}  // namespace

std::unique_ptr<Workload> makeTimingOpt(const Options& options) {
  return std::make_unique<TimingOpt>(options);
}

}  // namespace nano::perf

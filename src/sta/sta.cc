#include "sta/sta.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "exec/exec.h"
#include "obs/obs.h"

namespace nano::sta {

using circuit::Netlist;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Levels at least this big sweep through the exec pool; smaller ones run
/// serially (same bits either way — every node writes only its own slot).
constexpr std::size_t kParallelLevelThreshold = 1024;

}  // namespace

const TimingResult& Sta::analyze(double clockPeriod) {
  NANO_OBS_SPAN("sta/analyze");
  const Netlist& nl = *netlist_;
  const std::size_t n = static_cast<std::size_t>(nl.nodeCount());
  NANO_OBS_COUNT("sta/analyze_calls", 1);
  NANO_OBS_COUNT("sta/nodes_timed", static_cast<std::int64_t>(n));

  // The bound netlist may have been replaced by a bigger one since the
  // last call; the
  // scratch only ever grows, so re-analysis at or below the high-water
  // node count stays allocation-free.
  if (worstFanin_ == nullptr || n > worstFaninCapacity_) {
    arena_.reset();
    worstFanin_ = arena_.allocateArray<std::int32_t>(n);
    worstFaninCapacity_ = n;
  }
  result_.arrival.assign(n, 0.0);
  result_.required.assign(n, kInf);
  result_.slack.assign(n, 0.0);
  result_.criticalPath.clear();

  ctx_.netlist = &nl;
  ctx_.order = nl.order().data();
  ctx_.arrival = result_.arrival.data();
  ctx_.required = result_.required.data();
  ctx_.slack = result_.slack.data();
  ctx_.worstFanin = worstFanin_;
  SweepCtx* const ctx = &ctx_;

  const auto levelOffsets = nl.levelOffsets();
  const int levels = nl.levelCount();

  // Forward pass, level by level: a node's arrival reads only strictly
  // shallower levels, so the nodes of one level are independent. The
  // per-node arithmetic (fanin order, >= tie-break, delay expression) is
  // exactly the historical object-walking loop's.
  const auto forwardRange = [ctx](std::size_t b, std::size_t e) {
    const Netlist& s = *ctx->netlist;
    for (std::size_t k = b; k < e; ++k) {
      const int id = ctx->order[ctx->base + k];
      if (!s.isGate(id)) {
        ctx->worstFanin[id] = -1;
        continue;
      }
      double worst = 0.0;
      std::int32_t worstId = -1;
      for (const int f : s.fanins(id)) {
        if (ctx->arrival[f] >= worst) {
          worst = ctx->arrival[f];
          worstId = f;
        }
      }
      ctx->arrival[id] = worst + s.gateDelay(id);
      ctx->worstFanin[id] = worstId;
    }
  };
  for (int l = 0; l < levels; ++l) {
    const auto begin = static_cast<std::size_t>(levelOffsets[l]);
    const auto count = static_cast<std::size_t>(levelOffsets[l + 1]) - begin;
    ctx_.base = begin;
    if (count >= kParallelLevelThreshold) {
      exec::parallelForBlocked(count, forwardRange);
    } else {
      forwardRange(0, count);
    }
  }

  // Critical endpoint / path delay (endpoint order preserved from the
  // object netlist; last maximum wins, as before).
  double critical = 0.0;
  std::int32_t criticalEnd = -1;
  for (const int id : nl.outputs()) {
    if (result_.arrival[id] >= critical) {
      critical = result_.arrival[id];
      criticalEnd = id;
    }
  }
  result_.criticalPathDelay = critical;
  result_.clockPeriod = clockPeriod > 0 ? clockPeriod : critical;
  ctx_.clock = result_.clockPeriod;

  // Backward pass, deepest level first: a node's required time reads only
  // strictly deeper levels (its consumers). The historical scatter-min is
  // re-expressed as a gather; min over doubles is exact, so the result is
  // bit-identical regardless of accumulation order.
  const auto backwardRange = [ctx](std::size_t b, std::size_t e) {
    const Netlist& s = *ctx->netlist;
    for (std::size_t k = b; k < e; ++k) {
      const int id = ctx->order[ctx->base + k];
      double req = s.isOutput(id) ? ctx->clock : kInf;
      for (const int fo : s.fanouts(id)) {
        req = std::min(req, ctx->required[fo] - s.gateDelay(fo));
      }
      ctx->required[id] = req;
    }
  };
  for (int l = levels; l-- > 0;) {
    const auto begin = static_cast<std::size_t>(levelOffsets[l]);
    const auto count = static_cast<std::size_t>(levelOffsets[l + 1]) - begin;
    ctx_.base = begin;
    if (count >= kParallelLevelThreshold) {
      exec::parallelForBlocked(count, backwardRange);
    } else {
      backwardRange(0, count);
    }
  }

  // Slack.
  const auto slackRange = [ctx](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const double req = ctx->required[i];
      ctx->slack[i] = (req == kInf) ? ctx->clock : req - ctx->arrival[i];
    }
  };
  if (n >= kParallelLevelThreshold) {
    exec::parallelForBlocked(n, slackRange);
  } else {
    slackRange(0, n);
  }

  // Worst endpoint slack and critical path extraction.
  result_.worstSlack = kInf;
  for (const int id : nl.outputs()) {
    result_.worstSlack = std::min(result_.worstSlack, result_.slack[id]);
  }
  if (criticalEnd >= 0) {
    for (std::int32_t cur = criticalEnd; cur >= 0; cur = worstFanin_[cur]) {
      result_.criticalPath.push_back(cur);
      if (!nl.isGate(cur)) break;
    }
    std::reverse(result_.criticalPath.begin(), result_.criticalPath.end());
  }

  NANO_OBS_GAUGE("sta/arena_bytes", static_cast<double>(arenaBytes()));
  return result_;
}

TimingResult analyze(const Netlist& netlist, double clockPeriod) {
  Sta engine(netlist);
  engine.analyze(clockPeriod);
  return engine.takeResult();
}

std::vector<double> endpointArrivals(const Netlist& netlist) {
  const TimingResult r = analyze(netlist);
  std::vector<double> out;
  out.reserve(netlist.outputs().size());
  for (int id : netlist.outputs()) {
    out.push_back(r.arrival[static_cast<std::size_t>(id)]);
  }
  return out;
}

double fractionOfPathsFasterThan(const TimingResult& timing,
                                 const Netlist& netlist, double fraction) {
  if (netlist.outputs().empty()) {
    throw std::invalid_argument("fractionOfPathsFasterThan: no endpoints");
  }
  const double threshold = fraction * timing.clockPeriod;
  int count = 0;
  for (int id : netlist.outputs()) {
    if (timing.arrival[static_cast<std::size_t>(id)] < threshold) ++count;
  }
  return static_cast<double>(count) /
         static_cast<double>(netlist.outputs().size());
}

util::Histogram pathDelayHistogram(const TimingResult& timing,
                                   const Netlist& netlist, int bins) {
  util::Histogram h(0.0, 1.0, bins);
  for (int id : netlist.outputs()) {
    h.add(timing.arrival[static_cast<std::size_t>(id)] / timing.clockPeriod);
  }
  return h;
}

}  // namespace nano::sta

// Scale smoke: the million-gate acceptance run of the flat timing core.
// The 100k-gate variant runs in every CI tier; the full 1M-gate variant is
// heavyweight and only runs when NANO_SCALE=1 (the nightly scale job sets
// it). Both assert the three scale invariants:
//   - generation + full STA complete under a wall-clock ceiling,
//   - a second analyze() performs zero heap growth (arena steady state),
//   - results match the paper's slack-rich profile (over half of all
//     endpoints use less than half the cycle).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>

#include "circuit/generator.h"
#include "circuit/library.h"
#include "circuit/netlist.h"
#include "obs/obs.h"
#include "sta/sta.h"
#include "tech/itrs.h"
#include "util/rng.h"

namespace nano {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void runScaleSmoke(int gates, double buildCeilingS, double staCeilingS) {
  const bool obsWasEnabled = obs::enabled();
  obs::setEnabled(true);  // the arena_bytes gauge check below needs obs on
  const circuit::Library library(tech::nodeByFeature(35));
  util::Rng rng(0x5CA1Eu);

  const auto buildStart = Clock::now();
  const circuit::Netlist netlist = circuit::pipelinedLogic(
      library, circuit::scaledConfig(gates), rng, 8);
  const double buildS = secondsSince(buildStart);

  ASSERT_GE(netlist.gateCount(), gates * 9 / 10);
  EXPECT_LT(buildS, buildCeilingS)
      << "generation too slow at " << gates << " gates";

  sta::Sta engine(netlist);
  const auto staStart = Clock::now();
  const sta::TimingResult& first = engine.analyze();
  const double staS = secondsSince(staStart);
  EXPECT_LT(staS, staCeilingS)
      << "full STA too slow at " << gates << " gates";
  EXPECT_GT(first.criticalPathDelay, 0.0);
  EXPECT_EQ(first.worstSlack, 0.0);  // timed against its own critical path

  // Steady state: re-analysis reuses every buffer — the growth counter is
  // the allocation proof (satellite acceptance criterion).
  const std::int64_t growthAfterFirst = engine.arenaGrowthCount();
  const double worstBefore = first.worstSlack;
  (void)engine.analyze();
  (void)engine.analyze();
  EXPECT_EQ(engine.arenaGrowthCount(), growthAfterFirst)
      << "steady-state analyze() grew the heap";
  EXPECT_EQ(engine.result().worstSlack, worstBefore);

  // The paper's slack profile survives the scale-up.
  const double fastHalf =
      sta::fractionOfPathsFasterThan(engine.result(), netlist, 0.5);
  EXPECT_GT(fastHalf, 0.5)
      << "generated profile lost its slack-rich shape at scale";

  // Memory accounting: the flat core reports its footprint via the
  // sta/arena_bytes gauge; at a million gates it must stay in the
  // hundreds-of-MB range (~flat arrays + CSR), not balloon.
  EXPECT_EQ(obs::MetricsRegistry::instance().gauge("sta/arena_bytes").value(),
            static_cast<double>(engine.arenaBytes()));
  const double bytesPerGate =
      static_cast<double>(engine.arenaBytes()) / netlist.gateCount();
  EXPECT_LT(bytesPerGate, 200.0) << "flat footprint per gate regressed";
  obs::setEnabled(obsWasEnabled);
}

TEST(ScaleSmokeTest, HundredThousandGates) {
  runScaleSmoke(100000, /*buildCeilingS=*/30.0, /*staCeilingS=*/5.0);
}

TEST(ScaleSmokeTest, OneMillionGates) {
  if (const char* scale = std::getenv("NANO_SCALE");
      scale == nullptr || scale[0] != '1') {
    GTEST_SKIP() << "set NANO_SCALE=1 to run the million-gate smoke";
  }
  runScaleSmoke(1000000, /*buildCeilingS=*/240.0, /*staCeilingS=*/10.0);
}

}  // namespace
}  // namespace nano

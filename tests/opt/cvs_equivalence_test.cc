// opt::runCvs verifies each candidate on the converter-aware
// IncrementalSta in O(cone). These tests hold it to the reference
// algorithm (convert and re-time the whole netlist per candidate) bit for
// bit: same per-gate assignment, same converters, same power and timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/generator.h"
#include "cvs_reference.h"
#include "opt/combined.h"
#include "opt/cvs.h"

namespace nano::opt {
namespace {

using circuit::CellFunction;
using circuit::Library;
using circuit::Netlist;
using circuit::VddDomain;
using testing::runCvsReference;

const Library& lib() {
  static const Library library(tech::nodeByFeature(100));
  return library;
}

Netlist design(int gates, unsigned seed) {
  util::Rng rng(seed);
  circuit::GeneratorConfig cfg;
  cfg.gates = gates;
  cfg.outputs = gates / 16;
  return circuit::pipelinedLogic(lib(), cfg, rng, 8);
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

int mismatches(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return -1;
  int bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!sameBits(a[i], b[i])) ++bad;
  }
  return bad;
}

void expectSameTiming(const sta::TimingResult& a, const sta::TimingResult& b) {
  EXPECT_TRUE(sameBits(a.clockPeriod, b.clockPeriod));
  EXPECT_TRUE(sameBits(a.worstSlack, b.worstSlack));
  EXPECT_TRUE(sameBits(a.criticalPathDelay, b.criticalPathDelay));
  EXPECT_EQ(mismatches(a.slack, b.slack), 0);
  EXPECT_EQ(mismatches(a.arrival, b.arrival), 0);
  EXPECT_EQ(a.criticalPath, b.criticalPath);
}

void expectSamePower(const power::PowerBreakdown& a,
                     const power::PowerBreakdown& b) {
  EXPECT_TRUE(sameBits(a.dynamic, b.dynamic));
  EXPECT_TRUE(sameBits(a.leakage, b.leakage));
  EXPECT_TRUE(sameBits(a.levelConverter, b.levelConverter));
}

void expectSameGates(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  EXPECT_EQ(a.outputs(), b.outputs());
  int bad = 0;
  for (int i = 0; i < a.nodeCount(); ++i) {
    const auto& x = a.node(i);
    const auto& y = b.node(i);
    if (x.kind != y.kind || !std::ranges::equal(x.fanins, y.fanins)) {
      ++bad;
    } else if (x.kind == Netlist::NodeKind::Gate &&
               (x.cell.function != y.cell.function ||
                x.cell.vddDomain != y.cell.vddDomain ||
                x.cell.vth != y.cell.vth ||
                !sameBits(x.cell.drive, y.cell.drive))) {
      ++bad;
    }
  }
  EXPECT_EQ(bad, 0) << "nodes whose structure or Vdd/Vth/drive differ";
}

void expectSameCvs(const CvsResult& a, const CvsResult& b) {
  expectSameGates(a.netlist, b.netlist);
  EXPECT_EQ(a.convertersAdded, b.convertersAdded);
  EXPECT_TRUE(sameBits(a.fractionLowVdd, b.fractionLowVdd));
  expectSamePower(a.powerBefore, b.powerBefore);
  expectSamePower(a.powerAfter, b.powerAfter);
  expectSameTiming(a.timingBefore, b.timingBefore);
  expectSameTiming(a.timingAfter, b.timingAfter);
}

struct Case {
  int gates;
  unsigned seed;
  double guardband;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  const double guardbands[] = {0.0, 0.01, 0.05};
  for (int gates : {250, 500, 1000, 2000}) {
    for (unsigned seed = 1; seed <= 4; ++seed) {
      out.push_back({gates, seed, guardbands[(seed - 1) % 3]});
    }
  }
  // Every guardband on a small and a mid-size design of a fifth seed.
  for (int gates : {250, 1000}) {
    for (double gb : guardbands) out.push_back({gates, 5, gb});
  }
  return out;
}

class CvsEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(CvsEquivalence, MatchesReference) {
  const Case c = GetParam();
  const Netlist nl = design(c.gates, c.seed);
  CvsOptions options;
  options.guardband = c.guardband;
  const CvsResult fast = runCvs(nl, lib(), options);
  const CvsResult ref = runCvsReference(nl, lib(), options);
  EXPECT_GT(ref.fractionLowVdd, 0.0);
  expectSameCvs(fast, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, CvsEquivalence, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = "g";
      name += std::to_string(info.param.gates);
      name += "_s";
      name += std::to_string(info.param.seed);
      name += "_gb";
      name += std::to_string(static_cast<int>(info.param.guardband * 100));
      return name;
    });

TEST(CvsEquivalenceClock, TightClock) {
  // Clock == critical delay of a chain: no slack anywhere.
  const Netlist chain = circuit::inverterChain(lib(), 12);
  expectSameCvs(runCvs(chain, lib()), runCvsReference(chain, lib()));
}

TEST(CvsEquivalenceClock, RelaxedClock) {
  for (const Netlist& nl :
       {circuit::inverterChain(lib(), 12), design(500, 11)}) {
    CvsOptions options;
    options.clockPeriod = 10.0 * sta::analyze(nl).criticalPathDelay;
    const CvsResult fast = runCvs(nl, lib(), options);
    EXPECT_GT(fast.fractionLowVdd, 0.9);
    expectSameCvs(fast, runCvsReference(nl, lib(), options));
  }
}

TEST(CvsEquivalenceClock, ClockBelowCritical) {
  // Every endpoint check fails from the start: nothing may be lowered.
  const Netlist nl = design(500, 12);
  CvsOptions options;
  options.clockPeriod = 0.9 * sta::analyze(nl).criticalPathDelay;
  const CvsResult fast = runCvs(nl, lib(), options);
  EXPECT_EQ(fast.fractionLowVdd, 0.0);
  expectSameCvs(fast, runCvsReference(nl, lib(), options));
}

TEST(CvsEquivalenceFlow, VddFirst) {
  const Netlist nl = design(1000, 21);
  FlowOptions options;
  options.stages = {FlowStage::MultiVdd, FlowStage::DualVth,
                    FlowStage::Downsize};
  const FlowResult flow = runFlow(nl, lib(), options);

  // The reference CVS stage, then the rest of the flow on its output at
  // the same working clock and reporting frequency.
  const double clock = flow.timingBefore.clockPeriod;
  CvsOptions co;
  co.clockPeriod = clock;
  const CvsResult ref = runCvsReference(nl, lib(), co, 1.0 / clock);
  FlowOptions rest;
  rest.stages = {FlowStage::DualVth, FlowStage::Downsize};
  rest.clockPeriod = ref.timingAfter.clockPeriod;
  const FlowResult tail = runFlow(ref.netlist, lib(), rest, 1.0 / clock);

  ASSERT_EQ(flow.stages.size(), 3u);
  expectSamePower(flow.stages[0].power, ref.powerAfter);
  expectSameTiming(flow.stages[0].timing, ref.timingAfter);
  for (std::size_t k = 0; k < tail.stages.size(); ++k) {
    expectSamePower(flow.stages[k + 1].power, tail.stages[k].power);
    expectSameTiming(flow.stages[k + 1].timing, tail.stages[k].timing);
    EXPECT_EQ(flow.stages[k + 1].gatesResized, tail.stages[k].gatesResized);
  }
  expectSameGates(flow.netlist, tail.netlist);
}

TEST(CvsEquivalenceFlow, SizeFirst) {
  const Netlist nl = design(1000, 22);
  FlowOptions options;
  options.stages = {FlowStage::Downsize, FlowStage::DualVth,
                    FlowStage::MultiVdd};
  const FlowResult flow = runFlow(nl, lib(), options);

  FlowOptions head;
  head.stages = {FlowStage::Downsize, FlowStage::DualVth};
  const FlowResult prefix = runFlow(nl, lib(), head);
  const double clock = prefix.timingBefore.clockPeriod;
  CvsOptions co;
  co.clockPeriod = clock;
  const CvsResult ref = runCvsReference(prefix.netlist, lib(), co, 1.0 / clock);

  ASSERT_EQ(flow.stages.size(), 3u);
  EXPECT_GT(ref.fractionLowVdd, 0.0);
  expectSamePower(flow.stages[2].power, ref.powerAfter);
  expectSameTiming(flow.stages[2].timing, ref.timingAfter);
  expectSameGates(flow.netlist, ref.netlist);
}

TEST(CvsPrecondition, RejectsVddViolation) {
  circuit::NetlistBuilder builder;
  const int a = builder.addInput();
  const auto low =
      lib().pick(CellFunction::Inv, 1.0, circuit::VthClass::Low, VddDomain::Low);
  const auto high = lib().pick(CellFunction::Inv, 1.0);
  const int g1 = builder.addGate(low, {a});
  const int g2 = builder.addGate(high, {g1});  // Vdd,l drives Vdd,h directly
  builder.markOutput(g2);
  const Netlist nl = builder.build();
  try {
    (void)runCvs(nl, lib());
    FAIL() << "runCvs accepted a Vdd,l -> Vdd,h crossing";
  } catch (const std::invalid_argument& e) {
    std::string gate = "gate ";
    gate += std::to_string(g1);
    EXPECT_NE(std::string(e.what()).find(gate), std::string::npos) << e.what();
  }
}

TEST(CvsPrecondition, AcceptsItsOwnOutput) {
  // A CVS result carries converters and Vdd,l cones but no violation; run
  // again (at its own critical delay and at the first run's clock), it
  // must still match the reference.
  const Netlist nl = design(500, 31);
  const CvsResult first = runCvs(nl, lib());
  ASSERT_GT(first.convertersAdded, 0);
  ASSERT_TRUE(first.netlist.vddViolations().empty());
  expectSameCvs(runCvs(first.netlist, lib()),
                runCvsReference(first.netlist, lib()));
  CvsOptions options;
  options.clockPeriod = first.timingAfter.clockPeriod;
  expectSameCvs(runCvs(first.netlist, lib(), options),
                runCvsReference(first.netlist, lib(), options));
}

TEST(CvsPrecondition, AcceptsVddLowOutputsWithoutConverters) {
  // Vdd,l gates that drive outputs directly are legal input (conversion is
  // added at the register boundary); the engine starts with their
  // converters in place.
  const Netlist base = circuit::inverterChain(lib(), 12);
  Netlist nl = base;
  const int last = nl.outputs().front();
  const auto& cell = nl.node(last).cell;
  nl.replaceCell(last, lib().recorner(cell, cell.vth, VddDomain::Low));
  CvsOptions options;
  options.clockPeriod = 3.0 * sta::analyze(base).criticalPathDelay;
  const CvsResult fast = runCvs(nl, lib(), options);
  EXPECT_GT(fast.fractionLowVdd, 0.5);
  expectSameCvs(fast, runCvsReference(nl, lib(), options));
}

}  // namespace
}  // namespace nano::opt

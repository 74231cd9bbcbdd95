// The converter-aware IncrementalSta against the thing it models: a full
// sta::analyze of opt::insertLevelConverters(netlist, library, true) at
// the same clock, compared bit for bit after every trial, commit and
// rollback of random Vdd / Vth / drive moves.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "circuit/generator.h"
#include "opt/level_converter.h"
#include "sta/incremental.h"
#include "util/rng.h"

namespace nano::sta {
namespace {

using circuit::Cell;
using circuit::CellFunction;
using circuit::Library;
using circuit::Netlist;
using circuit::VddDomain;
using circuit::VthClass;

const Library& lib() {
  static const Library instance(tech::nodeByFeature(100));
  return instance;
}

Cell converterCell() {
  return lib().pick(CellFunction::LevelConverter, 1.0, VthClass::Low,
                    VddDomain::High);
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool isLowLogic(const Cell& c) {
  return c.vddDomain == VddDomain::Low &&
         c.function != CellFunction::LevelConverter;
}

/// Pipelined logic plus a few interior gates marked as outputs, so some
/// endpoints that get converters also drive other gates. `preconverted`
/// lowers the fanout-free outputs and inserts their converters, so the
/// netlist starts with converter gates as endpoints (as a CVS result
/// does); every other one, so the rest can still take a converter.
Netlist makeNetlist(int gates, unsigned seed, bool preconverted = false) {
  util::Rng rng(seed);
  circuit::GeneratorConfig cfg;
  cfg.gates = gates;
  cfg.outputs = gates / 16;
  const Netlist generated = circuit::pipelinedLogic(lib(), cfg, rng, 4);
  circuit::NetlistBuilder builder(generated);
  int marked = 0;
  for (int g : generated.gateIds()) {
    const auto& n = generated.node(g);
    if (!n.isOutput && !n.fanouts.empty() && rng.bernoulli(0.05)) {
      builder.markOutput(g);
      ++marked;
    }
  }
  EXPECT_GT(marked, 0);
  Netlist nl = builder.build();
  if (!preconverted) return nl;
  bool lower = true;
  for (int out : nl.outputs()) {
    const auto& n = nl.node(out);
    if (n.kind == Netlist::NodeKind::Gate && n.fanouts.empty() &&
        std::exchange(lower, !lower)) {
      nl.replaceCell(out, lib().recorner(n.cell, n.cell.vth, VddDomain::Low));
    }
  }
  return opt::insertLevelConverters(nl, lib(), true).netlist;
}

/// Every node's arrival / required / slack equals the converted netlist's
/// value at its image, and the failing-endpoint count equals the one the
/// converted endpoints give (converter endpoints absorb one d_LC).
void expectMatchesConverted(const IncrementalSta& inc, const Netlist& nl) {
  const opt::ConversionReport conv =
      opt::insertLevelConverters(nl, lib(), true);
  const TimingResult full = analyze(conv.netlist, inc.clockPeriod());
  int bad = 0;
  for (int id = 0; id < nl.nodeCount(); ++id) {
    const auto m = static_cast<std::size_t>(conv.nodeMap[id]);
    if (!sameBits(inc.arrival(id), full.arrival[m]) ||
        !sameBits(inc.required(id), full.required[m]) ||
        !sameBits(inc.slack(id), full.slack[m])) {
      ++bad;
    }
  }
  EXPECT_EQ(bad, 0) << "nodes differing from the converted analysis";

  const double lcDelay = converterCell().delay(nl.outputLoadCap());
  int failing = 0;
  ASSERT_EQ(conv.netlist.outputs().size(), nl.outputs().size());
  for (std::size_t k = 0; k < nl.outputs().size(); ++k) {
    const int out = nl.outputs()[k];
    const int end = conv.netlist.outputs()[k];
    const auto& endNode = conv.netlist.node(end);
    const bool isConverter =
        endNode.kind == Netlist::NodeKind::Gate &&
        endNode.cell.function == CellFunction::LevelConverter;
    // The endpoint maps through nodeMap, or through a converter whose one
    // fanin is the mapped gate exactly when the engine set a converter.
    if (inc.hasEndpointConverter(out)) {
      EXPECT_TRUE(isConverter);
      ASSERT_EQ(endNode.fanins.size(), 1u);
      EXPECT_EQ(endNode.fanins[0], conv.nodeMap[out]);
    } else {
      EXPECT_EQ(end, conv.nodeMap[out]);
    }
    const double allowance = isConverter ? lcDelay : 0.0;
    if (full.slack[static_cast<std::size_t>(end)] < -allowance - 1e-15) {
      ++failing;
    }
  }
  EXPECT_EQ(inc.failingEndpoints(), failing);
}

/// A random move that keeps the netlist free of Vdd,l -> Vdd,h crossings:
/// lower a gate whose fanouts are all Vdd,l, raise one with no Vdd,l
/// fanin, or change Vth / drive within the gate's domain.
bool randomMove(util::Rng& rng, const Netlist& nl,
                const std::vector<int>& gates, int& gate, Cell& cell) {
  gate = gates[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<int>(gates.size()) - 1))];
  const Cell& cur = nl.node(gate).cell;
  if (rng.bernoulli(0.3)) {
    cell = rng.bernoulli(0.5)
               ? lib().recorner(cur,
                                cur.vth == VthClass::Low ? VthClass::High
                                                         : VthClass::Low,
                                cur.vddDomain)
               : lib().generateCustom(cur.function,
                                      cur.drive * (rng.bernoulli(0.5) ? 1.5 : 0.75),
                                      cur.vth, cur.vddDomain);
    return true;
  }
  if (cur.vddDomain == VddDomain::High) {
    for (int fo : nl.node(gate).fanouts) {
      if (nl.node(fo).cell.vddDomain == VddDomain::High) return false;
    }
    cell = lib().recorner(cur, cur.vth, VddDomain::Low);
  } else {
    for (int f : nl.node(gate).fanins) {
      const auto& d = nl.node(f);
      if (d.kind == Netlist::NodeKind::Gate && isLowLogic(d.cell)) return false;
    }
    cell = lib().recorner(cur, cur.vth, VddDomain::High);
  }
  return true;
}

class ConverterAwareSta
    : public ::testing::TestWithParam<std::tuple<double, bool>> {};

TEST_P(ConverterAwareSta, RandomTrialsMatchConvertedAnalysis) {
  const auto [clockFactor, preconverted] = GetParam();
  Netlist nl = makeNetlist(300, 17, preconverted);
  const double clock = clockFactor * analyze(nl).criticalPathDelay;
  IncrementalSta inc(nl, clock);
  inc.enableEndpointConverters(converterCell());
  expectMatchesConverted(inc, nl);

  util::Rng rng(99);
  std::vector<int> gates;
  for (int g : nl.gateIds()) {
    if (nl.node(g).cell.function != CellFunction::LevelConverter) {
      gates.push_back(g);
    }
  }
  int moves = 0;
  int toggles = 0;
  int withFanouts = 0;
  for (int step = 0; step < 600 && !HasFailure(); ++step) {
    int gate = -1;
    Cell cell;
    if (!randomMove(rng, nl, gates, gate, cell)) continue;
    const bool had = inc.hasEndpointConverter(gate);
    inc.trial(gate, cell);
    ++moves;
    if (inc.hasEndpointConverter(gate) != had) {
      ++toggles;
      if (!nl.node(gate).fanouts.empty()) ++withFanouts;
    }
    expectMatchesConverted(inc, nl);
    if (rng.bernoulli(0.5)) {
      inc.commit();
    } else {
      inc.rollback();
      EXPECT_EQ(inc.hasEndpointConverter(gate), had);
    }
    expectMatchesConverted(inc, nl);
  }
  EXPECT_GT(moves, 200);
  EXPECT_GT(toggles, 20);
  EXPECT_GT(withFanouts, 0);
}

// At the critical delay every check sits at its edge; at 1.3x most moves
// pass and converter allowances decide the rest.
INSTANTIATE_TEST_SUITE_P(Clocks, ConverterAwareSta,
                         ::testing::Combine(::testing::Values(1.0, 1.3),
                                            ::testing::Bool()));

TEST(ConverterAwareStaSetup, StartsWithConvertersOnLowOutputs) {
  Netlist nl = makeNetlist(200, 5);
  // Lower every gate of some outputs' fanout-free tails.
  int lowered = 0;
  for (int out : nl.outputs()) {
    const auto& n = nl.node(out);
    if (n.kind == Netlist::NodeKind::Gate && n.fanouts.empty()) {
      nl.replaceCell(out, lib().recorner(n.cell, n.cell.vth, VddDomain::Low));
      ++lowered;
    }
  }
  ASSERT_GT(lowered, 0);
  IncrementalSta inc(nl, 1.2 * analyze(nl).criticalPathDelay);
  inc.enableEndpointConverters(converterCell());
  expectMatchesConverted(inc, nl);
  inc.rebuild();
  expectMatchesConverted(inc, nl);
}

TEST(ConverterAwareStaSetup, RejectsCrossingsAndKeepsState) {
  Netlist nl = makeNetlist(200, 6);
  IncrementalSta inc(nl, 1.2 * analyze(nl).criticalPathDelay);
  inc.enableEndpointConverters(converterCell());
  // A gate with a Vdd,h fanout cannot move to Vdd,l.
  int driver = -1;
  for (int g : nl.gateIds()) {
    if (!nl.node(g).fanouts.empty()) {
      driver = g;
      break;
    }
  }
  ASSERT_GE(driver, 0);
  const Cell before = nl.node(driver).cell;
  EXPECT_THROW(inc.trial(driver, lib().recorner(before, before.vth,
                                                VddDomain::Low)),
               std::invalid_argument);
  EXPECT_FALSE(inc.hasPendingTrial());
  EXPECT_EQ(nl.node(driver).cell.vddDomain, VddDomain::High);
  expectMatchesConverted(inc, nl);

  // Nor can a converter model start on a netlist that already crosses.
  Netlist crossed = nl;
  crossed.replaceCell(driver, lib().recorner(before, before.vth,
                                             VddDomain::Low));
  IncrementalSta plain(crossed, 1.0);
  EXPECT_THROW(plain.enableEndpointConverters(converterCell()),
               std::invalid_argument);
}

TEST(ConverterAwareStaSetup, PlainEngineCountsFailingEndpoints) {
  Netlist nl = makeNetlist(200, 7);
  const double critical = analyze(nl).criticalPathDelay;
  IncrementalSta tight(nl, 0.9 * critical);
  EXPECT_GT(tight.failingEndpoints(), 0);
  EXPECT_FALSE(tight.meetsTiming());
  IncrementalSta loose(nl, critical);
  EXPECT_EQ(loose.failingEndpoints(), 0);
  EXPECT_TRUE(loose.meetsTiming());
}

}  // namespace
}  // namespace nano::sta

#include "circuit/netlist.h"

#include <gtest/gtest.h>

#include "circuit/library.h"
#include "util/units.h"

namespace nano::circuit {
namespace {

using namespace nano::units;

struct Fixture {
  Library lib{tech::nodeByFeature(100)};
  Cell inv = lib.pick(CellFunction::Inv, 1.0);
  Cell nand = lib.pick(CellFunction::Nand2, 1.0);
};

TEST(Netlist, BuildAndCounts) {
  Fixture f;
  NetlistBuilder b(0.0, 0.0);
  const int a = b.addInput();
  const int c = b.addInput();
  const int g = b.addGate(f.nand, {a, c});
  b.markOutput(g);
  const Netlist nl = b.build();
  EXPECT_EQ(nl.inputCount(), 2);
  EXPECT_EQ(nl.gateCount(), 1);
  EXPECT_EQ(nl.nodeCount(), 3);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_NO_THROW(nl.validate());
  // The builder is empty afterwards.
  EXPECT_EQ(b.nodeCount(), 0);
  EXPECT_EQ(b.build().nodeCount(), 0);
}

TEST(Netlist, FanoutsMaintained) {
  Fixture f;
  NetlistBuilder b;
  const int a = b.addInput();
  const int g1 = b.addGate(f.inv, {a});
  const int g2 = b.addGate(f.inv, {g1});
  const int g3 = b.addGate(f.inv, {g1});
  const int g4 = b.addGate(f.nand, {g3, g3});  // one fanout per fanin edge
  b.markOutput(g2);
  b.markOutput(g4);
  const Netlist nl = b.build();
  ASSERT_EQ(nl.node(g1).fanouts.size(), 2u);
  EXPECT_EQ(nl.node(g1).fanouts[0], g2);
  EXPECT_EQ(nl.node(g1).fanouts[1], g3);
  ASSERT_EQ(nl.fanouts(g3).size(), 2u);
  EXPECT_EQ(nl.fanouts(g3)[0], g4);
  EXPECT_EQ(nl.fanouts(g3)[1], g4);
  EXPECT_TRUE(nl.fanouts(g4).empty());
}

TEST(Netlist, LoadCapSumsFanoutsWireAndOutput) {
  Fixture f;
  const double wirePerFo = 1 * fF;
  const double outLoad = 7 * fF;
  NetlistBuilder b(wirePerFo, outLoad);
  const int a = b.addInput();
  const int g1 = b.addGate(f.inv, {a});
  const int g2 = b.addGate(f.nand, {g1, a});
  const int g3 = b.addGate(f.inv, {g1});
  b.markOutput(g2);
  b.markOutput(g3);
  b.markOutput(g1);
  const Netlist nl = b.build();
  const double expected = f.nand.inputCap + f.inv.inputCap + 2 * wirePerFo +
                          outLoad;
  EXPECT_NEAR(nl.loadCap(g1), expected, 1e-21);
}

TEST(Netlist, MarkOutputIdempotent) {
  Fixture f;
  NetlistBuilder b;
  const int a = b.addInput();
  const int g = b.addGate(f.inv, {a});
  b.markOutput(g);
  b.markOutput(g);
  EXPECT_EQ(b.build().outputs().size(), 1u);
  EXPECT_THROW(b.markOutput(0), std::out_of_range);  // builder now empty
}

TEST(Netlist, ReplaceCellKeepsTopology) {
  Fixture f;
  NetlistBuilder b;
  const int a = b.addInput();
  const int g = b.addGate(f.inv, {a});
  b.markOutput(g);
  Netlist nl = b.build();
  const Cell big = f.lib.pick(CellFunction::Inv, 8.0);
  nl.replaceCell(g, big);
  EXPECT_DOUBLE_EQ(nl.node(g).cell.drive, 8.0);
  EXPECT_EQ(nl.gateDelay(g), big.delay(nl.loadCap(g)));
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, ReplaceCellRejectsFunctionChange) {
  Fixture f;
  NetlistBuilder b;
  const int a = b.addInput();
  const int g = b.addGate(f.inv, {a});
  Netlist nl = b.build();
  EXPECT_THROW(nl.replaceCell(g, f.nand), std::invalid_argument);
  EXPECT_THROW(nl.replaceCell(a, f.inv), std::invalid_argument);
  EXPECT_THROW(nl.replaceCell(7, f.inv), std::out_of_range);
}

TEST(Netlist, AddGateRejections) {
  Fixture f;
  NetlistBuilder b;
  const int a = b.addInput();
  EXPECT_THROW(b.addGate(f.nand, {a}), std::invalid_argument);  // arity
  EXPECT_THROW(b.addGate(f.inv, {5}), std::invalid_argument);   // bad id
  EXPECT_THROW(b.addGate(f.inv, {-1}), std::invalid_argument);
  EXPECT_THROW(b.addGate(f.inv, {1}), std::invalid_argument);   // itself
  EXPECT_THROW((void)NetlistBuilder(-1.0, 0.0), std::invalid_argument);
  EXPECT_EQ(b.nodeCount(), 1);  // rejected appends leave nothing behind
}

TEST(Netlist, ValidateRequiresOutputs) {
  Fixture f;
  NetlistBuilder b;
  const int a = b.addInput();
  b.addGate(f.inv, {a});
  EXPECT_THROW(b.build().validate(), std::logic_error);
}

TEST(Netlist, TotalAreaSumsGates) {
  Fixture f;
  NetlistBuilder b;
  const int a = b.addInput();
  const int g1 = b.addGate(f.inv, {a});
  b.addGate(f.inv, {g1});
  EXPECT_NEAR(b.build().totalArea(), 2.0 * f.inv.area, 1e-18);
}

TEST(Netlist, GateIdsSkipInputs) {
  Fixture f;
  NetlistBuilder b;
  b.addInput();
  const int a2 = b.addInput();
  const int g = b.addGate(f.inv, {a2});
  const auto ids = b.build().gateIds();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], g);
}

TEST(VddViolations, LowDrivingHighFlagged) {
  Fixture f;
  NetlistBuilder b;
  const int a = b.addInput();
  const Cell low = f.lib.pick(CellFunction::Inv, 1.0, VthClass::Low,
                              VddDomain::Low);
  const int gLow = b.addGate(low, {a});
  const int gHigh = b.addGate(f.inv, {gLow});
  b.markOutput(gHigh);
  const auto bad = b.build().vddViolations();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], gLow);
}

TEST(VddViolations, ConverterCuresCrossing) {
  Fixture f;
  NetlistBuilder b;
  const int a = b.addInput();
  const Cell low =
      f.lib.pick(CellFunction::Inv, 1.0, VthClass::Low, VddDomain::Low);
  const Cell lc = f.lib.pick(CellFunction::LevelConverter, 1.0, VthClass::Low,
                             VddDomain::High);
  const int gLow = b.addGate(low, {a});
  const int conv = b.addGate(lc, {gLow});
  const int gHigh = b.addGate(f.inv, {conv});
  b.markOutput(gHigh);
  EXPECT_TRUE(b.build().vddViolations().empty());
}

TEST(VddViolations, LowDrivingLowIsFine) {
  Fixture f;
  NetlistBuilder b;
  const int a = b.addInput();
  const Cell low =
      f.lib.pick(CellFunction::Inv, 1.0, VthClass::Low, VddDomain::Low);
  const int g1 = b.addGate(low, {a});
  const int g2 = b.addGate(low, {g1});
  b.markOutput(g2);
  EXPECT_TRUE(b.build().vddViolations().empty());
}

TEST(DefaultWireCap, HalfAvgWirePerFanout) {
  const auto& node = tech::nodeByFeature(100);
  EXPECT_NEAR(defaultWireCapPerFanout(node),
              0.5 * node.localWireCapPerM * node.avgLocalWireLength, 1e-21);
}

// loadCap is served from a cache that build() fills and replaceCell keeps
// valid; every path must leave it equal to the from-scratch sum.
TEST(LoadCapCache, ReplaceCellRefreshesFaninLoads) {
  Fixture f;
  NetlistBuilder b(1e-15, 0.0);
  const int a = b.addInput();
  const int g1 = b.addGate(f.inv, {a});
  const int g2 = b.addGate(f.inv, {g1});
  b.markOutput(g2);
  Netlist nl = b.build();
  const double before = nl.loadCap(g1);

  // Doubling g2's drive doubles its input cap; g1's cached load follows.
  Cell big = f.lib.generateCustom(CellFunction::Inv, 2.0);
  nl.replaceCell(g2, big);
  EXPECT_DOUBLE_EQ(nl.loadCap(g1), before - f.inv.inputCap + big.inputCap);
  // The swapped gate's own load is untouched by its cell swap.
  EXPECT_DOUBLE_EQ(nl.loadCap(g2), 1e-15 * 0 + nl.outputLoadCap());
}

TEST(LoadCapCache, AddGateAndMarkOutputRefreshDrivers) {
  Fixture f;
  NetlistBuilder b(1e-15, 3e-15);
  const int a = b.addInput();
  const int g1 = b.addGate(f.inv, {a});
  const int g2 = b.addGate(f.inv, {g1});  // a fanout of g1: cap + wire
  const int g3 = b.addGate(f.inv, {a});   // g3 drives nothing
  b.markOutput(g2);  // external load lands on the flagged node only
  const Netlist nl = b.build();
  EXPECT_DOUBLE_EQ(nl.loadCap(g3), 0.0);
  EXPECT_DOUBLE_EQ(nl.loadCap(g1), f.inv.inputCap + 1e-15);
  EXPECT_EQ(nl.loadCap(a), f.inv.inputCap + f.inv.inputCap + 2 * 1e-15);
  EXPECT_DOUBLE_EQ(nl.loadCap(g2), 3e-15);
}

// The endpoint-converter hook adds the converter as the last fanout and
// takes over the external load; clearing it restores the load bit for bit.
TEST(LoadCapCache, EndpointConverterHookRoundTrips) {
  Fixture f;
  NetlistBuilder b(1e-15, 3e-15);
  const int a = b.addInput();
  const int g1 = b.addGate(f.inv, {a});
  const int g2 = b.addGate(f.inv, {g1});
  b.markOutput(g1);
  b.markOutput(g2);
  Netlist nl = b.build();
  const double plain = nl.loadCap(g1);
  nl.setEndpointConverter(g1, 2e-15);
  EXPECT_TRUE(nl.hasEndpointConverter(g1));
  EXPECT_FALSE(nl.hasEndpointConverter(g2));
  EXPECT_EQ(nl.loadCap(g1), f.inv.inputCap + 2e-15 + 1e-15 * 2.0);
  nl.clearEndpointConverter(g1);
  EXPECT_FALSE(nl.hasEndpointConverter(g1));
  EXPECT_EQ(nl.loadCap(g1), plain);
  EXPECT_THROW(nl.setEndpointConverter(a, 1e-15), std::invalid_argument);
  EXPECT_THROW(nl.setEndpointConverter(g2, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace nano::circuit

// Property tests for the flat Netlist: on seeded random netlists at
// 100 / 1k / 10k / 100k gates, the arrays NetlistBuilder::build() derives
// (fanout CSR, load caps, timing operands) agree exactly with values
// recomputed from the node views, replaying a netlist through a builder
// reproduces it byte for byte, and the level schedule equals the
// levelize() oracle over the same fanin CSR element by element.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "circuit/generator.h"
#include "circuit/library.h"
#include "circuit/netlist.h"
#include "circuit/netlist_io.h"
#include "levelize.h"
#include "tech/itrs.h"
#include "util/rng.h"

namespace nano::circuit {
namespace {

const Library& lib() {
  static const Library instance(tech::nodeByFeature(35));
  return instance;
}

Netlist makeRandom(int gates, std::uint64_t seed) {
  util::Rng rng(seed);
  return pipelinedLogic(lib(), scaledConfig(gates), rng, 4);
}

/// levelize() over the netlist's fanin CSR: the oracle schedule.
LevelSchedule levelizeNetlist(const Netlist& nl) {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> fanins;
  offsets.reserve(static_cast<std::size_t>(nl.nodeCount()) + 1);
  for (int id = 0; id < nl.nodeCount(); ++id) {
    offsets.push_back(static_cast<std::uint32_t>(fanins.size()));
    for (const int f : nl.fanins(id)) {
      fanins.push_back(static_cast<std::uint32_t>(f));
    }
  }
  offsets.push_back(static_cast<std::uint32_t>(fanins.size()));
  return levelize(static_cast<std::uint32_t>(nl.nodeCount()), offsets,
                  fanins);
}

std::vector<std::uint32_t> asU32(std::span<const int> values) {
  return {values.begin(), values.end()};
}

void expectScheduleMatchesLevelize(const Netlist& nl) {
  const LevelSchedule ref = levelizeNetlist(nl);
  ASSERT_TRUE(ref.ok()) << ref.message;
  ASSERT_EQ(static_cast<std::uint32_t>(nl.levelCount()), ref.levelCount);
  std::vector<std::uint32_t> levelOf;
  for (int id = 0; id < nl.nodeCount(); ++id) {
    levelOf.push_back(static_cast<std::uint32_t>(nl.levelOf(id)));
  }
  EXPECT_EQ(levelOf, ref.levelOf);
  EXPECT_EQ(asU32(nl.levelOffsets()), ref.levelOffsets);
  EXPECT_EQ(asU32(nl.order()), ref.order);
}

std::string serialize(const Netlist& nl) {
  std::ostringstream os;
  writeNetlist(os, nl);
  return os.str();
}

/// A fresh builder fed the node views one by one.
Netlist replay(const Netlist& nl) {
  NetlistBuilder b(nl.wireCapPerFanout(), nl.outputLoadCap());
  for (int id = 0; id < nl.nodeCount(); ++id) {
    const Netlist::Node n = nl.node(id);
    if (n.kind == Netlist::NodeKind::Gate) {
      b.addGate(n.cell, n.fanins);
    } else {
      b.addInput();
    }
  }
  for (const int o : nl.outputs()) b.markOutput(o);
  return b.build();
}

class SoaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SoaPropertyTest, MirrorsCountsFlagsAndAdjacency) {
  const Netlist nl = makeRandom(GetParam(), 11u * GetParam());
  const auto n = static_cast<std::size_t>(nl.nodeCount());

  // Reference fanouts: the fanin edges transposed in consumer-id order,
  // one entry per edge.
  std::vector<std::vector<int>> fanouts(n);
  int gates = 0;
  for (int id = 0; id < nl.nodeCount(); ++id) {
    if (nl.node(id).kind == Netlist::NodeKind::Gate) ++gates;
    for (const int f : nl.node(id).fanins) {
      fanouts[static_cast<std::size_t>(f)].push_back(id);
    }
  }
  EXPECT_EQ(nl.gateCount(), gates);
  EXPECT_EQ(nl.inputCount(), nl.nodeCount() - gates);

  std::vector<bool> output(n, false);
  for (const int o : nl.outputs()) {
    ASSERT_FALSE(output[static_cast<std::size_t>(o)]) << "duplicate output";
    output[static_cast<std::size_t>(o)] = true;
  }

  for (int id = 0; id < nl.nodeCount(); ++id) {
    const Netlist::Node node = nl.node(id);
    const auto& expected = fanouts[static_cast<std::size_t>(id)];
    ASSERT_EQ(nl.isGate(id), node.kind == Netlist::NodeKind::Gate);
    ASSERT_EQ(nl.isOutput(id), node.isOutput);
    ASSERT_EQ(node.isOutput, output[static_cast<std::size_t>(id)]);
    ASSERT_EQ(node.fanouts.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(node.fanouts[k], expected[k]);
    }

    // The load cache is the from-scratch sum in fanout edge order.
    double load = 0.0;
    for (const int fo : expected) load += nl.node(fo).cell.inputCap;
    load += nl.wireCapPerFanout() * static_cast<double>(expected.size());
    if (node.isOutput) load += nl.outputLoadCap();
    ASSERT_EQ(nl.loadCap(id), load);

    // Timing operands are the cell's, so gateDelay matches Cell::delay.
    ASSERT_EQ(nl.gateDelay(id), node.kind == Netlist::NodeKind::Gate
                                    ? node.cell.delay(nl.loadCap(id))
                                    : 0.0);
  }
}

TEST_P(SoaPropertyTest, RoundTripSerializationIsByteIdentical) {
  const Netlist nl = makeRandom(GetParam(), 97u * GetParam() + 3);
  const std::string text = serialize(nl);
  const Netlist replayed = replay(nl);
  EXPECT_EQ(serialize(replayed), text);
  EXPECT_EQ(replayed.flatBytes(), nl.flatBytes());
  EXPECT_EQ(serialize(NetlistBuilder(nl).build()), text);
}

TEST_P(SoaPropertyTest, LevelScheduleCoversAndRespectsTopology) {
  const Netlist nl = makeRandom(GetParam(), 5u * GetParam() + 1);
  ASSERT_GT(nl.levelCount(), 0);
  const auto order = nl.order();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(nl.nodeCount()));
  std::vector<bool> seen(order.size(), false);
  for (const int id : order) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, nl.nodeCount());
    ASSERT_FALSE(seen[static_cast<std::size_t>(id)]);
    seen[static_cast<std::size_t>(id)] = true;
  }
  for (int id = 0; id < nl.nodeCount(); ++id) {
    for (const int f : nl.fanins(id)) {
      ASSERT_GT(nl.levelOf(id), nl.levelOf(f));
    }
  }
}

TEST_P(SoaPropertyTest, LevelScheduleMatchesLevelizeExactly) {
  expectScheduleMatchesLevelize(makeRandom(GetParam(), 13u * GetParam() + 7));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoaPropertyTest,
                         ::testing::Values(100, 1000, 10000, 100000));

TEST(NetlistSoATest, PrimaryInputOnlyScheduleIsOneLevel) {
  NetlistBuilder b(1e-15, 2e-15);
  for (int i = 0; i < 37; ++i) (void)b.addInput();
  const Netlist nl = b.build();
  EXPECT_EQ(nl.levelCount(), 1);
  expectScheduleMatchesLevelize(nl);
}

TEST(NetlistSoATest, EmptyNetlistHasNoLevels) {
  for (const Netlist& nl : {Netlist{}, NetlistBuilder().build()}) {
    EXPECT_EQ(nl.nodeCount(), 0);
    EXPECT_EQ(nl.levelCount(), 0);
    ASSERT_EQ(nl.levelOffsets().size(), 1u);
    EXPECT_EQ(nl.levelOffsets()[0], 0);
    EXPECT_TRUE(nl.order().empty());
    expectScheduleMatchesLevelize(nl);
  }
}

// replaceCell refreshes the load caches it touches in build()'s summation
// order: after any swap script, every cached value is bit-identical to a
// fresh build of the same cells.
TEST(NetlistBuildTest, ReplaceCellMatchesFreshBuildBitForBit) {
  Netlist nl = makeRandom(2000, 42);
  util::Rng rng(7);
  const auto gates = nl.gateIds();
  for (int trial = 0; trial < 200; ++trial) {
    const int g = gates[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(gates.size()) - 1))];
    const Cell& cell = nl.cell(g);
    nl.replaceCell(g, lib().generateCustom(cell.function,
                                           cell.drive * rng.uniform(0.5, 2.0),
                                           cell.vth, cell.vddDomain));
  }
  const Netlist fresh = replay(nl);
  for (int id = 0; id < nl.nodeCount(); ++id) {
    ASSERT_EQ(nl.loadCap(id), fresh.loadCap(id)) << "node " << id;
    ASSERT_EQ(nl.gateDelay(id), fresh.gateDelay(id)) << "node " << id;
  }
}

// A reopened builder continues after the existing nodes; the appended
// gates load their drivers in consumer-id order like any other fanout.
TEST(NetlistBuildTest, ReopenedBuilderAppendsAfterExistingNodes) {
  const Netlist base = makeRandom(300, 8);
  NetlistBuilder b(base);
  const int driver = base.outputs().front();
  const int extra = b.addGate(lib().pick(CellFunction::Inv, 1.0), {driver});
  b.markOutput(extra);
  const Netlist grown = b.build();
  ASSERT_EQ(grown.nodeCount(), base.nodeCount() + 1);
  EXPECT_EQ(grown.outputs().back(), extra);
  EXPECT_EQ(grown.fanouts(driver).back(), extra);
  EXPECT_GT(grown.loadCap(driver), base.loadCap(driver));
  expectScheduleMatchesLevelize(grown);
}

}  // namespace
}  // namespace nano::circuit

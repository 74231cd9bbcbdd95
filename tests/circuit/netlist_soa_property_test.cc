// Property tests for the NetlistSoA mirror: seeded random netlists at
// 100 / 1k / 10k / 100k gates round-trip object -> SoA -> object with
// byte-identical netlist_io serialization, the flat adjacency +
// timing-operand arrays agree with the object netlist exactly, and the
// mirror's own level schedule equals circuit::levelize() over the same
// fanin CSR element by element.
#include "circuit/netlist_soa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "circuit/generator.h"
#include "circuit/levelize.h"
#include "circuit/library.h"
#include "circuit/netlist.h"
#include "circuit/netlist_io.h"
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

/// levelize() over the mirror's fanin CSR: the oracle schedule.
LevelSchedule levelizeMirror(const NetlistSoA& soa) {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> fanins;
  offsets.reserve(static_cast<std::size_t>(soa.nodeCount()) + 1);
  for (std::uint32_t id = 0; id < soa.nodeCount(); ++id) {
    offsets.push_back(static_cast<std::uint32_t>(fanins.size()));
    const auto fi = soa.fanins(id);
    fanins.insert(fanins.end(), fi.begin(), fi.end());
  }
  offsets.push_back(static_cast<std::uint32_t>(fanins.size()));
  return levelize(soa.nodeCount(), offsets, fanins);
}

void expectScheduleMatchesLevelize(const NetlistSoA& soa) {
  const LevelSchedule ref = levelizeMirror(soa);
  ASSERT_TRUE(ref.ok()) << ref.message;
  ASSERT_EQ(soa.levelCount(), ref.levelCount);
  std::vector<std::uint32_t> levelOf(soa.nodeCount());
  for (std::uint32_t id = 0; id < soa.nodeCount(); ++id) {
    levelOf[id] = soa.levelOf(id);
  }
  EXPECT_EQ(levelOf, ref.levelOf);
  const auto offsets = soa.levelOffsets();
  EXPECT_EQ(std::vector<std::uint32_t>(offsets.begin(), offsets.end()),
            ref.levelOffsets);
  const auto order = soa.order();
  EXPECT_EQ(std::vector<std::uint32_t>(order.begin(), order.end()),
            ref.order);
}

std::string serialize(const Netlist& nl) {
  std::ostringstream os;
  writeNetlist(os, nl);
  return os.str();
}

class SoaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SoaPropertyTest, MirrorsCountsFlagsAndAdjacency) {
  const Netlist nl = makeRandom(GetParam(), 11u * GetParam());
  const NetlistSoA soa(nl);

  ASSERT_EQ(soa.nodeCount(), static_cast<std::uint32_t>(nl.nodeCount()));
  EXPECT_EQ(soa.gateCount(), static_cast<std::uint32_t>(nl.gateCount()));
  EXPECT_EQ(soa.inputCount(), static_cast<std::uint32_t>(nl.inputCount()));
  EXPECT_EQ(soa.wireCapPerFanout(), nl.wireCapPerFanout());
  EXPECT_EQ(soa.outputLoadCap(), nl.outputLoadCap());

  // Endpoint list in insertion order.
  ASSERT_EQ(soa.outputs().size(), nl.outputs().size());
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    EXPECT_EQ(static_cast<int>(soa.outputs()[i]), nl.outputs()[i]);
  }

  for (int id = 0; id < nl.nodeCount(); ++id) {
    const auto u = static_cast<std::uint32_t>(id);
    const auto& node = nl.node(id);
    ASSERT_EQ(soa.isGate(u), node.kind == Netlist::NodeKind::Gate);
    ASSERT_EQ(soa.isOutput(u), node.isOutput);

    // Edge lists preserve object order exactly (stronger than the multiset
    // equality the round-trip needs — and it implies it).
    const auto fi = soa.fanins(u);
    ASSERT_EQ(fi.size(), node.fanins.size());
    for (std::size_t k = 0; k < fi.size(); ++k) {
      ASSERT_EQ(static_cast<int>(fi[k]), node.fanins[k]);
    }
    const auto fo = soa.fanouts(u);
    ASSERT_EQ(fo.size(), node.fanouts.size());
    for (std::size_t k = 0; k < fo.size(); ++k) {
      ASSERT_EQ(static_cast<int>(fo[k]), node.fanouts[k]);
    }

    // Timing operands are bit-identical, so gateDelay matches Cell::delay.
    ASSERT_EQ(soa.loadCap(u), nl.loadCap(id));
    if (node.kind == Netlist::NodeKind::Gate) {
      ASSERT_EQ(soa.gateDelay(u), node.cell.delay(nl.loadCap(id)));
      ASSERT_EQ(soa.inputCap(u), node.cell.inputCap);
    } else {
      ASSERT_EQ(soa.gateDelay(u), 0.0);
    }
  }
}

TEST_P(SoaPropertyTest, RoundTripSerializationIsByteIdentical) {
  const Netlist nl = makeRandom(GetParam(), 97u * GetParam() + 3);
  const NetlistSoA soa(nl);  // keepCells defaults on
  ASSERT_TRUE(soa.hasCells());
  const Netlist back = soa.toNetlist();
  EXPECT_EQ(serialize(back), serialize(nl));
}

TEST_P(SoaPropertyTest, LevelScheduleCoversAndRespectsTopology) {
  const Netlist nl = makeRandom(GetParam(), 5u * GetParam() + 1);
  const NetlistSoA soa(nl, {.keepCells = false});
  ASSERT_GT(soa.levelCount(), 0u);
  const auto order = soa.order();
  ASSERT_EQ(order.size(), soa.nodeCount());
  std::vector<bool> seen(soa.nodeCount(), false);
  for (const std::uint32_t id : order) {
    ASSERT_LT(id, soa.nodeCount());
    ASSERT_FALSE(seen[id]);
    seen[id] = true;
  }
  for (std::uint32_t id = 0; id < soa.nodeCount(); ++id) {
    for (const std::uint32_t f : soa.fanins(id)) {
      ASSERT_GT(soa.levelOf(id), soa.levelOf(f));
    }
  }
}

TEST_P(SoaPropertyTest, LevelScheduleMatchesLevelizeExactly) {
  const Netlist nl = makeRandom(GetParam(), 13u * GetParam() + 7);
  expectScheduleMatchesLevelize(NetlistSoA(nl, {.keepCells = false}));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoaPropertyTest,
                         ::testing::Values(100, 1000, 10000, 100000));

TEST(NetlistSoATest, SetCellTracksReplaceCellBitForBit) {
  Netlist nl = makeRandom(2000, 42);
  NetlistSoA soa(nl);
  util::Rng rng(7);
  const auto gates = nl.gateIds();
  for (int trial = 0; trial < 200; ++trial) {
    const int g = gates[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(gates.size()) - 1))];
    const auto& node = nl.node(g);
    const Cell swapped = lib().generateCustom(
        node.cell.function, node.cell.drive * rng.uniform(0.5, 2.0),
        node.cell.vth, node.cell.vddDomain);
    nl.replaceCell(g, swapped);
    soa.setCell(static_cast<std::uint32_t>(g), swapped);
    const auto u = static_cast<std::uint32_t>(g);
    ASSERT_EQ(soa.gateDelay(u), nl.node(g).cell.delay(nl.loadCap(g)));
    for (int f : nl.node(g).fanins) {
      ASSERT_EQ(soa.loadCap(static_cast<std::uint32_t>(f)), nl.loadCap(f));
    }
  }
}

TEST(NetlistSoATest, RebuildReusesArenaAtSteadyState) {
  const Netlist nl = makeRandom(5000, 9);
  NetlistSoA soa(nl, {.keepCells = false});
  const std::int64_t growth = soa.arenaGrowthCount();
  ASSERT_GT(soa.arenaBytes(), 0u);
  for (int i = 0; i < 5; ++i) soa.rebuild(nl, {.keepCells = false});
  EXPECT_EQ(soa.arenaGrowthCount(), growth);
}

TEST(NetlistSoATest, PrimaryInputOnlyScheduleIsOneLevel) {
  Netlist nl(1e-15, 2e-15);
  for (int i = 0; i < 37; ++i) (void)nl.addInput();
  const NetlistSoA soa(nl, {.keepCells = false});
  EXPECT_EQ(soa.levelCount(), 1u);
  expectScheduleMatchesLevelize(soa);
}

TEST(NetlistSoATest, EmptyNetlistHasNoLevels) {
  const NetlistSoA soa(Netlist{}, {.keepCells = false});
  EXPECT_EQ(soa.nodeCount(), 0u);
  EXPECT_EQ(soa.levelCount(), 0u);
  ASSERT_EQ(soa.levelOffsets().size(), 1u);
  EXPECT_EQ(soa.levelOffsets()[0], 0u);
  EXPECT_TRUE(soa.order().empty());
  expectScheduleMatchesLevelize(soa);
}

// An in-place rebuild reuses arena memory that still holds the previous
// shape's schedule; nothing of it may leak into the new one.
TEST(NetlistSoATest, RebuildToDifferentShapesKeepsScheduleExact) {
  NetlistSoA soa(makeRandom(3000, 21), {.keepCells = false});
  expectScheduleMatchesLevelize(soa);
  soa.rebuild(makeRandom(700, 22), {.keepCells = false});
  expectScheduleMatchesLevelize(soa);
  soa.rebuild(makeRandom(20000, 23), {.keepCells = false});
  expectScheduleMatchesLevelize(soa);
  Netlist inputsOnly;
  for (int i = 0; i < 5; ++i) (void)inputsOnly.addInput();
  soa.rebuild(inputsOnly, {.keepCells = false});
  expectScheduleMatchesLevelize(soa);
  soa.rebuild(Netlist{}, {.keepCells = false});
  expectScheduleMatchesLevelize(soa);
  soa.rebuild(makeRandom(3000, 21));
  expectScheduleMatchesLevelize(soa);
}

// arenaBytes() is reported as soa_bytes by the sta service; the schedule
// build must take exactly the bytes the mirror's arrays need. Pinned to
// the value of the levelize()-driven build this one replaced.
TEST(NetlistSoATest, ArenaBytesArePinnedForAFixedNetlist) {
  const Netlist nl = makeRandom(1000, 2024);
  EXPECT_EQ(NetlistSoA(nl, {.keepCells = false}).arenaBytes(), 67268u);
  EXPECT_EQ(NetlistSoA(nl).arenaBytes(), 67268u);
}

TEST(NetlistSoATest, ToNetlistWithoutCellsThrows) {
  const Netlist nl = makeRandom(100, 1);
  const NetlistSoA soa(nl, {.keepCells = false});
  EXPECT_FALSE(soa.hasCells());
  EXPECT_THROW((void)soa.toNetlist(), std::logic_error);
}

}  // namespace
}  // namespace nano::circuit

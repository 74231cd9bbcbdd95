#include "circuit/netlist_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "circuit/generator.h"
#include "circuit/verilog_out.h"
#include "power/power_model.h"
#include "sta/sta.h"

namespace nano::circuit {
namespace {

const Library& lib() {
  static const Library instance(tech::nodeByFeature(100));
  return instance;
}

Netlist roundTrip(const Netlist& nl) {
  std::ostringstream os;
  writeNetlist(os, nl);
  std::istringstream is(os.str());
  return readNetlist(is, lib());
}

TEST(NetlistIo, RoundTripPreservesStructure) {
  util::Rng rng(99);
  GeneratorConfig cfg;
  cfg.gates = 300;
  const Netlist original = randomLogic(lib(), cfg, rng);
  const Netlist copy = roundTrip(original);
  ASSERT_EQ(copy.nodeCount(), original.nodeCount());
  ASSERT_EQ(copy.gateCount(), original.gateCount());
  ASSERT_EQ(copy.outputs().size(), original.outputs().size());
  for (int i = 0; i < original.nodeCount(); ++i) {
    EXPECT_EQ(copy.node(i).kind, original.node(i).kind);
    EXPECT_TRUE(
        std::ranges::equal(copy.node(i).fanins, original.node(i).fanins));
    EXPECT_EQ(copy.node(i).isOutput, original.node(i).isOutput);
  }
}

TEST(NetlistIo, RoundTripPreservesCells) {
  util::Rng rng(98);
  GeneratorConfig cfg;
  cfg.gates = 150;
  Netlist original = randomLogic(lib(), cfg, rng);
  // Mix in custom drives and corners so the corner encoding is exercised.
  const auto gates = original.gateIds();
  original.replaceCell(gates[0],
                       lib().generateCustom(original.node(gates[0]).cell.function,
                                            2.718, VthClass::High,
                                            VddDomain::Low));
  const Netlist copy = roundTrip(original);
  for (int g : original.gateIds()) {
    const Cell& a = original.node(g).cell;
    const Cell& b = copy.node(g).cell;
    EXPECT_EQ(a.function, b.function);
    EXPECT_EQ(a.vth, b.vth);
    EXPECT_EQ(a.vddDomain, b.vddDomain);
    EXPECT_NEAR(a.drive, b.drive, 1e-9);
    EXPECT_NEAR(a.inputCap, b.inputCap, 1e-12 * a.inputCap);
  }
}

TEST(NetlistIo, RoundTripPreservesTimingAndPower) {
  util::Rng rng(97);
  GeneratorConfig cfg;
  cfg.gates = 200;
  const Netlist original = randomLogic(lib(), cfg, rng);
  const Netlist copy = roundTrip(original);
  const auto t1 = sta::analyze(original);
  const auto t2 = sta::analyze(copy);
  EXPECT_NEAR(t2.criticalPathDelay, t1.criticalPathDelay,
              1e-9 * t1.criticalPathDelay);
  const auto p1 = power::computePower(original, 1e9);
  const auto p2 = power::computePower(copy, 1e9);
  EXPECT_NEAR(p2.total(), p1.total(), 1e-9 * p1.total());
}

TEST(NetlistIo, CommentsAndBlankLinesIgnored) {
  std::istringstream is(
      "# header comment\n"
      "\n"
      "netlist wirecap 1e-15 outload 2e-15\n"
      "input 0\n"
      "# mid comment\n"
      "gate 1 INV drive 1 vth low vdd high fanins 0\n"
      "output 1\n");
  const Netlist nl = readNetlist(is, lib());
  EXPECT_EQ(nl.gateCount(), 1);
  EXPECT_DOUBLE_EQ(nl.wireCapPerFanout(), 1e-15);
}

TEST(NetlistIo, NonContiguousFileIdsAccepted) {
  std::istringstream is(
      "netlist wirecap 0 outload 0\n"
      "input 10\n"
      "gate 20 INV drive 1 vth low vdd high fanins 10\n"
      "output 20\n");
  const Netlist nl = readNetlist(is, lib());
  EXPECT_EQ(nl.gateCount(), 1);
  EXPECT_EQ(nl.inputCount(), 1);
}

TEST(NetlistIo, ParseErrors) {
  const Library& l = lib();
  {
    std::istringstream is("input 0\n");
    EXPECT_THROW(readNetlist(is, l), std::runtime_error);  // before header
  }
  {
    std::istringstream is(
        "netlist wirecap 0 outload 0\n"
        "gate 1 BOGUS drive 1 vth low vdd high fanins 0\n");
    EXPECT_THROW(readNetlist(is, l), std::runtime_error);
  }
  {
    std::istringstream is(
        "netlist wirecap 0 outload 0\n"
        "input 0\n"
        "gate 1 INV drive 1 vth low vdd high fanins 7\n");
    EXPECT_THROW(readNetlist(is, l), std::runtime_error);  // unknown fanin
  }
  {
    std::istringstream is("");
    EXPECT_THROW(readNetlist(is, l), std::runtime_error);  // empty
  }
  {
    std::istringstream is(
        "netlist wirecap 0 outload 0\n"
        "frobnicate 1\n");
    EXPECT_THROW(readNetlist(is, l), std::runtime_error);  // keyword
  }
}

// write -> parse -> write must be byte-identical: the writer emits doubles
// at precision 17 (round-trip exact) and nodes in topological id order, so
// any second-generation diff means the parser dropped or renumbered
// something. Exercised at three sizes to cover fanin-list growth and
// multi-chunk stream buffering.
class NetlistIoIdentity : public ::testing::TestWithParam<int> {};

TEST_P(NetlistIoIdentity, SecondGenerationTextIsIdentical) {
  util::Rng rng(2026 + GetParam());
  GeneratorConfig cfg;
  cfg.gates = GetParam();
  const Netlist original = randomLogic(lib(), cfg, rng);
  std::ostringstream firstText;
  writeNetlist(firstText, original);
  std::istringstream is(firstText.str());
  const Netlist reread = readNetlist(is, lib());
  std::ostringstream secondText;
  writeNetlist(secondText, reread);
  EXPECT_EQ(secondText.str(), firstText.str())
      << "round-trip altered the serialized form at " << GetParam()
      << " gates";
}

INSTANTIATE_TEST_SUITE_P(Sizes, NetlistIoIdentity,
                         ::testing::Values(100, 1000, 10000));

TEST(NetlistIo, VerilogExportIsStableAcrossRoundTrip) {
  util::Rng rng(4242);
  GeneratorConfig cfg;
  cfg.gates = 500;
  const Netlist original = randomLogic(lib(), cfg, rng);
  std::ostringstream beforeV, afterV;
  writeVerilog(beforeV, original, "dut");
  writeVerilog(afterV, roundTrip(original), "dut");
  EXPECT_EQ(afterV.str(), beforeV.str());
  EXPECT_NE(beforeV.str().find("module dut"), std::string::npos);
}

TEST(NetlistIo, AdderRoundTripsThroughText) {
  const Netlist adder = rippleCarryAdder(lib(), 6);
  const Netlist copy = roundTrip(adder);
  EXPECT_EQ(copy.gateCount(), 9 * 6);
  EXPECT_EQ(copy.outputs().size(), 7u);
}

}  // namespace
}  // namespace nano::circuit

#include "circuit/verilog_out.h"

#include <gtest/gtest.h>

#include <sstream>

#include "circuit/generator.h"

namespace nano::circuit {
namespace {

const Library& lib() {
  static const Library instance(tech::nodeByFeature(100));
  return instance;
}

std::string emit(const Netlist& nl) {
  std::ostringstream os;
  writeVerilog(os, nl, "dut");
  return os.str();
}

TEST(VerilogOut, ModuleHeaderAndPorts) {
  circuit::NetlistBuilder builder;
  const int a = builder.addInput();
  const int g = builder.addGate(lib().pick(CellFunction::Inv, 1.0), {a});
  builder.markOutput(g);
  const Netlist nl = builder.build();
  const std::string v = emit(nl);
  EXPECT_NE(v.find("module dut (in0, out0);"), std::string::npos);
  EXPECT_NE(v.find("input in0;"), std::string::npos);
  EXPECT_NE(v.find("output out0;"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(VerilogOut, InstancesNamedAfterCells) {
  circuit::NetlistBuilder builder;
  const int a = builder.addInput();
  const int b = builder.addInput();
  const int g = builder.addGate(lib().pick(CellFunction::Nand2, 2.0), {a, b});
  builder.markOutput(g);
  const Netlist nl = builder.build();
  const std::string v = emit(nl);
  const std::string prim = verilogCellName(nl.node(g).cell);
  EXPECT_NE(v.find(prim + " g2 (.y(n2), .a(in0), .b(in1));"),
            std::string::npos);
  // The primitive stub exists with matching arity.
  EXPECT_NE(v.find("module " + prim + " (y, a, b);"), std::string::npos);
}

TEST(VerilogOut, CellNamesSanitized) {
  const Cell c = lib().generateCustom(CellFunction::Inv, 2.5);
  const std::string name = verilogCellName(c);
  for (char ch : name) {
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_')
        << name;
  }
  EXPECT_FALSE(std::isdigit(static_cast<unsigned char>(name[0])));
}

TEST(VerilogOut, OutputAliasesEmitted) {
  const Netlist nl = rippleCarryAdder(lib(), 2);
  const std::string v = emit(nl);
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    EXPECT_NE(v.find("assign out" + std::to_string(i) + " = "),
              std::string::npos);
  }
}

TEST(VerilogOut, InstanceCountMatchesGates) {
  util::Rng rng(55);
  GeneratorConfig cfg;
  cfg.gates = 120;
  const Netlist nl = randomLogic(lib(), cfg, rng);
  const std::string v = emit(nl);
  // Count instance lines "  <prim> g<id> (".
  int instances = 0;
  std::istringstream is(v);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find(" g") != std::string::npos &&
        line.find("(.y(") != std::string::npos) {
      ++instances;
    }
  }
  EXPECT_EQ(instances, nl.gateCount());
}

TEST(VerilogOut, BalancedModuleEndmodule) {
  const Netlist nl = koggeStoneAdder(lib(), 4);
  const std::string v = emit(nl);
  std::size_t modules = 0, ends = 0;
  for (std::size_t pos = v.find("module"); pos != std::string::npos;
       pos = v.find("module", pos + 1)) {
    if (pos == 0 || v[pos - 1] != 'd') ++modules;  // not "endmodule"
  }
  for (std::size_t pos = v.find("endmodule"); pos != std::string::npos;
       pos = v.find("endmodule", pos + 1)) {
    ++ends;
  }
  EXPECT_EQ(modules, ends);
  EXPECT_GT(modules, 1u);  // design + primitive stubs
}

}  // namespace
}  // namespace nano::circuit

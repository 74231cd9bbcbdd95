#include "opt/level_converter.h"

#include <stdexcept>

namespace nano::opt {

using circuit::CellFunction;
using circuit::Netlist;
using circuit::VddDomain;

ConversionReport insertLevelConverters(const Netlist& src,
                                       const circuit::Library& library,
                                       bool convertAtOutputs) {
  ConversionReport rep;
  circuit::NetlistBuilder built(src.wireCapPerFanout(), src.outputLoadCap());
  rep.nodeMap.assign(static_cast<std::size_t>(src.nodeCount()), -1);
  // Lazily created converter per low-domain driver (new-id space).
  std::vector<int> converterOf(static_cast<std::size_t>(src.nodeCount()), -1);

  auto isLowGate = [&](int id) {
    const auto& n = src.node(id);
    return n.kind == Netlist::NodeKind::Gate &&
           n.cell.vddDomain == VddDomain::Low &&
           n.cell.function != CellFunction::LevelConverter;
  };
  auto converterFor = [&](int srcId) {
    if (converterOf[static_cast<std::size_t>(srcId)] < 0) {
      const circuit::Cell lc = library.pick(CellFunction::LevelConverter, 1.0,
                                            circuit::VthClass::Low,
                                            VddDomain::High);
      const int mapped = rep.nodeMap[static_cast<std::size_t>(srcId)];
      converterOf[static_cast<std::size_t>(srcId)] = built.addGate(lc, {mapped});
      ++rep.convertersAdded;
    }
    return converterOf[static_cast<std::size_t>(srcId)];
  };

  for (int i = 0; i < src.nodeCount(); ++i) {
    const auto& n = src.node(i);
    if (n.kind == Netlist::NodeKind::PrimaryInput) {
      rep.nodeMap[static_cast<std::size_t>(i)] = built.addInput();
      continue;
    }
    const bool sinkIsHigh = n.cell.vddDomain == VddDomain::High;
    std::vector<int> fanins;
    fanins.reserve(n.fanins.size());
    for (int f : n.fanins) {
      const bool needsConversion =
          sinkIsHigh && isLowGate(f) &&
          n.cell.function != CellFunction::LevelConverter;
      fanins.push_back(needsConversion
                           ? converterFor(f)
                           : rep.nodeMap[static_cast<std::size_t>(f)]);
    }
    rep.nodeMap[static_cast<std::size_t>(i)] = built.addGate(n.cell, fanins);
  }

  for (int out : src.outputs()) {
    int mapped = rep.nodeMap[static_cast<std::size_t>(out)];
    if (convertAtOutputs && isLowGate(out)) {
      mapped = converterFor(out);
    }
    built.markOutput(mapped);
  }
  rep.netlist = built.build();
  rep.netlist.validate();
  if (!rep.netlist.vddViolations().empty()) {
    throw std::logic_error("insertLevelConverters: violations remain");
  }
  return rep;
}

}  // namespace nano::opt

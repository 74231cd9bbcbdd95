// Level-converter insertion for multi-Vdd netlists: rebuilds a netlist
// with a converting stage on every low-Vdd -> high-Vdd crossing and on
// low-Vdd -> primary-output boundaries (conversion at the register, as in
// clustered voltage scaling).
#pragma once

#include "circuit/library.h"
#include "circuit/netlist.h"

namespace nano::opt {

/// Result of conversion insertion.
struct ConversionReport {
  circuit::Netlist netlist;
  int convertersAdded = 0;
  /// Map from source node id to rebuilt node id.
  std::vector<int> nodeMap;
};

/// Rebuild `src` with level converters inserted. One converter is shared by
/// all high-domain sinks of a given low-domain driver. `convertAtOutputs`
/// adds a converter where a low-Vdd gate drives a primary output.
ConversionReport insertLevelConverters(const circuit::Netlist& src,
                                       const circuit::Library& library,
                                       bool convertAtOutputs = true);

}  // namespace nano::opt

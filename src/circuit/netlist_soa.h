// Compatibility view for callers written against the retired NetlistSoA
// mirror: circuit::Netlist is itself the flat structure of arrays now, so
// a NetlistSoA only refers to one and costs nothing to make. The benchmark
// program is the one user; nothing in the library depends on this header.
#pragma once

#include "circuit/netlist.h"
#include "sta/sta.h"

namespace nano::circuit {

/// Accepted and ignored: a Netlist always carries its cells.
struct SoABuildOptions {
  bool keepCells = true;
};

/// Non-owning view of a Netlist; the netlist must outlive it.
class NetlistSoA {
 public:
  explicit NetlistSoA(const Netlist& netlist, SoABuildOptions = {})
      : netlist_(&netlist) {}
  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }

 private:
  const Netlist* netlist_;
};

}  // namespace nano::circuit

namespace nano::sta {

inline TimingResult analyze(const circuit::NetlistSoA& soa,
                            double clockPeriod = -1.0) {
  return analyze(soa.netlist(), clockPeriod);
}

}  // namespace nano::sta

// Index-based structure-of-arrays mirror of a circuit::Netlist, built once
// and swept flat by the STA engines. Where the object netlist stores one
// heap-allocated Node per gate (cell struct, fanin/fanout vectors), the
// SoA form packs everything the timing hot path touches into arena-backed
// parallel arrays with 32-bit indices:
//
//   isGate / isOutput        per-node flags (uint8)
//   fanin CSR, fanout CSR    adjacency, object edge order preserved
//   loadCap / driveRes /     the exact operands of Cell::delay and the
//     selfCap / inputCap       load-cap cache, mirrored bit-for-bit
//   outputs                  endpoint list, insertion order preserved
//   level schedule           level buckets for level-parallel sweeps,
//                              computed in the build's forward pass
//
// The mirror is semantically lossless: with keepCells on (the default) the
// full Cell structs ride along in a cold std::vector and toNetlist()
// reconstructs an object netlist whose netlist_io serialization is
// byte-identical to the source's. rebuild() rewinds the arena and rebuilds
// in place, so a steady-state consumer re-mirroring a same-shaped netlist
// allocates nothing. A build writes every arena byte it hands out before
// reading it (arena blocks are not zeroed) and takes no scratch beyond
// the arrays listed above.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/netlist.h"
#include "util/arena.h"

namespace nano::circuit {

/// Build knobs for NetlistSoA (namespace scope so it is a complete type
/// when used as a default argument below).
struct SoABuildOptions {
  /// Keep per-node Cell structs (cold data) so cell()/toNetlist() work.
  /// Turn off for pure-timing mirrors (e.g. inside IncrementalSta) to
  /// skip the per-gate string copies.
  bool keepCells = true;
};

class NetlistSoA {
 public:
  using BuildOptions = SoABuildOptions;

  NetlistSoA() = default;
  explicit NetlistSoA(const Netlist& netlist, BuildOptions options = {});

  /// Rebuild from `netlist`, reusing the arena (zero heap growth when the
  /// new shape fits the high-water mark). Throws std::logic_error if a
  /// fanin does not precede its node (a corrupted netlist).
  void rebuild(const Netlist& netlist, BuildOptions options = {});

  [[nodiscard]] std::uint32_t nodeCount() const { return nodeCount_; }
  [[nodiscard]] std::uint32_t gateCount() const { return gateCount_; }
  [[nodiscard]] std::uint32_t inputCount() const { return inputCount_; }
  [[nodiscard]] bool isGate(std::uint32_t id) const { return isGate_[id] != 0; }
  [[nodiscard]] bool isOutput(std::uint32_t id) const {
    return isOutput_[id] != 0;
  }

  [[nodiscard]] std::span<const std::uint32_t> fanins(std::uint32_t id) const {
    return {faninIdx_ + faninOff_[id], faninOff_[id + 1] - faninOff_[id]};
  }
  [[nodiscard]] std::span<const std::uint32_t> fanouts(std::uint32_t id) const {
    return {fanoutIdx_ + fanoutOff_[id], fanoutOff_[id + 1] - fanoutOff_[id]};
  }
  [[nodiscard]] std::span<const std::uint32_t> outputs() const {
    return {outputs_, outputCount_};
  }

  /// Exact operands of the timing model, mirrored from the object netlist.
  [[nodiscard]] double loadCap(std::uint32_t id) const { return loadCap_[id]; }
  [[nodiscard]] double driveResistance(std::uint32_t id) const {
    return driveRes_[id];
  }
  [[nodiscard]] double selfCap(std::uint32_t id) const { return selfCap_[id]; }
  [[nodiscard]] double inputCap(std::uint32_t id) const {
    return inputCap_[id];
  }

  /// Gate delay driving its current load; bit-identical to
  /// node.cell.delay(netlist.loadCap(id)). Zero for primary inputs.
  [[nodiscard]] double gateDelay(std::uint32_t id) const {
    return isGate_[id] != 0
               ? 0.69 * driveRes_[id] * (loadCap_[id] + selfCap_[id])
               : 0.0;
  }

  // Level schedule: a primary input is level 0 and a gate one past its
  // deepest fanin; nodes of level L are
  // order()[levelOffsets()[L] .. levelOffsets()[L+1]), ascending id —
  // exactly what circuit::levelize() returns for the fanin CSR, built in
  // one forward pass because a Netlist's fanins precede their node.
  [[nodiscard]] std::uint32_t levelCount() const { return levelCount_; }
  [[nodiscard]] std::uint32_t levelOf(std::uint32_t id) const {
    return levelOf_[id];
  }
  [[nodiscard]] std::span<const std::uint32_t> levelOffsets() const {
    return {levelOffsets_, static_cast<std::size_t>(levelCount_) + 1};
  }
  [[nodiscard]] std::span<const std::uint32_t> order() const {
    return {order_, nodeCount_};
  }

  [[nodiscard]] double wireCapPerFanout() const { return wireCapPerFanout_; }
  [[nodiscard]] double outputLoadCap() const { return outputLoadCap_; }

  /// Cold cell data (requires keepCells). PI slots hold default cells.
  [[nodiscard]] const Cell& cell(std::uint32_t id) const;
  [[nodiscard]] bool hasCells() const { return keepCells_; }

  /// Mirror of Netlist::replaceCell: swap a gate's cell parameters and
  /// refresh the load-cap cache of its fanin drivers with the same
  /// summation order, so both representations stay bit-identical.
  void setCell(std::uint32_t gate, const Cell& cell);

  /// Load-cap hook for a level converter at output gate `id` (used by the
  /// converter-aware sta::IncrementalSta). While set, `id`'s load is the
  /// one its driver gets when opt::insertLevelConverters puts an output
  /// converter behind it: fanout input caps in edge order, then
  /// `converterInputCap`, then wire per fanout counting the converter,
  /// and no external output load (the converter drives that instead).
  void setEndpointConverter(std::uint32_t id, double converterInputCap);
  void clearEndpointConverter(std::uint32_t id);
  [[nodiscard]] bool hasEndpointConverter(std::uint32_t id) const {
    return converterCap_ != nullptr && converterCap_[id] >= 0.0;
  }

  /// Reconstruct an object netlist (requires keepCells). Node ids, edge
  /// order and output order are preserved, so writeNetlist() output is
  /// byte-identical to the source netlist's.
  [[nodiscard]] Netlist toNetlist() const;

  /// Arena footprint of the hot arrays, bytes.
  [[nodiscard]] std::size_t arenaBytes() const { return arena_.bytesUsed(); }
  /// Heap-growth events of the arena over this object's lifetime.
  [[nodiscard]] std::int64_t arenaGrowthCount() const {
    return arena_.growthCount();
  }

 private:
  util::Arena arena_;
  std::uint32_t nodeCount_ = 0;
  std::uint32_t gateCount_ = 0;
  std::uint32_t inputCount_ = 0;
  std::uint32_t outputCount_ = 0;
  std::uint32_t levelCount_ = 0;
  double wireCapPerFanout_ = 0.0;
  double outputLoadCap_ = 0.0;
  bool keepCells_ = false;

  std::uint8_t* isGate_ = nullptr;
  std::uint8_t* isOutput_ = nullptr;
  std::uint32_t* faninOff_ = nullptr;
  std::uint32_t* faninIdx_ = nullptr;
  std::uint32_t* fanoutOff_ = nullptr;
  std::uint32_t* fanoutIdx_ = nullptr;
  std::uint32_t* outputs_ = nullptr;
  double* loadCap_ = nullptr;
  double* driveRes_ = nullptr;
  double* selfCap_ = nullptr;
  double* inputCap_ = nullptr;
  std::uint32_t* levelOf_ = nullptr;
  std::uint32_t* levelOffsets_ = nullptr;
  std::uint32_t* order_ = nullptr;

  /// Endpoint-converter input cap per node, < 0 where none; allocated on
  /// the first setEndpointConverter.
  double* converterCap_ = nullptr;

  /// Recompute the load-cap cache of `id` from its fanouts.
  void refreshLoadCap(std::uint32_t id);

  std::vector<Cell> cells_;  ///< cold; empty unless keepCells
};

}  // namespace nano::circuit

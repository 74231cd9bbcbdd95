// Gate-level netlist: a DAG of characterized cells, stored flat. The
// substrate under STA, activity propagation, power analysis and the
// multi-Vdd / multi-Vth / sizing optimizers.
//
// One representation serves every reader. A Netlist packs what the timing
// hot path touches into parallel arrays indexed by node id (int):
//
//   isGate / isOutput        per-node flags (uint8)
//   fanin CSR, fanout CSR    adjacency; fanouts list one consumer per
//                              fanin edge, in consumer-id order
//   loadCap / driveRes /     the operands of Cell::delay and the load-cap
//     selfCap / inputCap       cache
//   outputs                  endpoint list, marking order
//   level schedule           level buckets for level-parallel sweeps
//
// plus one cold std::vector<Cell> (default cells in primary-input slots).
// node(id) is a by-value view over those arrays for the object-style
// callers. A NetlistBuilder assembles a netlist and derives everything
// else in build(), so a Netlist is always complete. Afterwards
// replaceCell (and the endpoint-converter load hook) are the only edits,
// and both keep the load-cap cache exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

#include "circuit/cell.h"

namespace nano::circuit {

class NetlistBuilder;

/// A combinational gate-level netlist. Nodes are primary inputs or gates;
/// gates reference earlier nodes as fanins, so the node order is
/// topological by construction. Outputs are flagged nodes (registered
/// endpoints with a fixed external load).
class Netlist {
 public:
  enum class NodeKind { PrimaryInput, Gate };

  /// By-value view of one node; valid while the netlist is alive and
  /// unchanged (a replaceCell of the node rebinds nothing but updates the
  /// referenced cell in place).
  struct Node {
    NodeKind kind;
    const Cell& cell;              ///< default Cell for primary inputs
    std::span<const int> fanins;   ///< node ids (gates only)
    std::span<const int> fanouts;  ///< gate ids consuming this node
    bool isOutput;                 ///< drives a primary output / register
  };

  /// The empty netlist; NetlistBuilder makes non-empty ones.
  Netlist() = default;

  [[nodiscard]] Node node(int id) const {
    if (id < 0 || id >= nodeCount()) {
      throw std::out_of_range("Netlist::node: id out of range");
    }
    return {isGate(id) ? NodeKind::Gate : NodeKind::PrimaryInput,
            cells_[idx(id)], fanins(id), fanouts(id), isOutput(id)};
  }
  [[nodiscard]] int nodeCount() const { return static_cast<int>(cells_.size()); }
  [[nodiscard]] int gateCount() const { return gateCount_; }
  [[nodiscard]] int inputCount() const { return nodeCount() - gateCount_; }
  [[nodiscard]] const std::vector<int>& outputs() const { return outputs_; }
  [[nodiscard]] double wireCapPerFanout() const { return wireCapPerFanout_; }
  [[nodiscard]] double outputLoadCap() const { return outputLoadCap_; }

  // Flat per-node access (ids unchecked), for the sweeps.
  [[nodiscard]] bool isGate(int id) const { return isGate_[idx(id)] != 0; }
  [[nodiscard]] bool isOutput(int id) const { return isOutput_[idx(id)] != 0; }
  [[nodiscard]] std::span<const int> fanins(int id) const {
    return csr(faninOff_, faninIdx_, id);
  }
  [[nodiscard]] std::span<const int> fanouts(int id) const {
    return csr(fanoutOff_, fanoutIdx_, id);
  }
  [[nodiscard]] const Cell& cell(int id) const { return cells_[idx(id)]; }

  /// Capacitive load a node drives: fanout input caps (in fanout edge
  /// order) + wire per fanout + the external load of an output. Cached;
  /// build() and replaceCell keep it exact.
  [[nodiscard]] double loadCap(int id) const { return loadCap_[idx(id)]; }
  /// Gate delay driving its current load; bit-identical to
  /// cell(id).delay(loadCap(id)). Zero for primary inputs.
  [[nodiscard]] double gateDelay(int id) const {
    const std::size_t i = idx(id);
    return isGate_[i] != 0 ? 0.69 * driveRes_[i] * (loadCap_[i] + selfCap_[i])
                           : 0.0;
  }

  // Level schedule: a primary input is level 0 and a gate one past its
  // deepest fanin; the nodes of level L are
  // order()[levelOffsets()[L] .. levelOffsets()[L+1]), ascending id.
  [[nodiscard]] int levelCount() const {
    return static_cast<int>(levelOffsets_.size()) - 1;
  }
  [[nodiscard]] int levelOf(int id) const { return levelOf_[idx(id)]; }
  [[nodiscard]] std::span<const int> levelOffsets() const {
    return levelOffsets_;
  }
  [[nodiscard]] std::span<const int> order() const { return order_; }

  /// Bytes of the hot arrays listed in the file comment (an empty array
  /// counts 1 byte); the cell table and converter hook are not counted.
  [[nodiscard]] std::size_t flatBytes() const;

  /// Swap the cell of a gate (resizing / recornering). The function and
  /// fanin count must be preserved. Refreshes the load of every fanin.
  void replaceCell(int id, Cell cell);

  /// Load-cap hook for a level converter at output gate `id` (set by the
  /// converter-aware sta::IncrementalSta). While set, `id`'s load is the
  /// one its driver gets when opt::insertLevelConverters puts an output
  /// converter behind it: fanout input caps in edge order, then
  /// `converterInputCap`, then wire per fanout counting the converter,
  /// and no external output load (the converter drives that instead).
  void setEndpointConverter(int id, double converterInputCap);
  void clearEndpointConverter(int id);
  [[nodiscard]] bool hasEndpointConverter(int id) const {
    return !converterCap_.empty() && converterCap_[idx(id)] >= 0.0;
  }

  /// Total cell area of the design, m^2.
  [[nodiscard]] double totalArea() const;

  /// Gate ids in topological (construction) order.
  [[nodiscard]] std::vector<int> gateIds() const;

  /// Throws std::logic_error if the netlist has no outputs. Fanin counts
  /// and topological order are guaranteed by NetlistBuilder.
  void validate() const;

  /// Multi-Vdd electrical legality: a low-Vdd gate may only drive low-Vdd
  /// gates or a LevelConverter (paper Section 2.4). Returns offending gate
  /// ids (drivers).
  [[nodiscard]] std::vector<int> vddViolations() const;

 private:
  friend class NetlistBuilder;

  static std::size_t idx(int id) { return static_cast<std::size_t>(id); }
  static std::span<const int> csr(const std::vector<int>& off,
                                  const std::vector<int>& items, int id) {
    const int b = off[idx(id)];
    return {items.data() + b, static_cast<std::size_t>(off[idx(id) + 1] - b)};
  }
  /// Recompute the load-cap cache of `id` from its fanouts.
  void refreshLoadCap(int id);

  double wireCapPerFanout_ = 0.0;
  double outputLoadCap_ = 0.0;
  int gateCount_ = 0;
  std::vector<std::uint8_t> isGate_;
  std::vector<std::uint8_t> isOutput_;
  std::vector<int> faninOff_{0};
  std::vector<int> faninIdx_;
  std::vector<int> fanoutOff_{0};
  std::vector<int> fanoutIdx_;
  std::vector<double> loadCap_;
  std::vector<double> driveRes_;
  std::vector<double> selfCap_;
  std::vector<double> inputCap_;
  std::vector<int> outputs_;
  std::vector<int> levelOf_;
  std::vector<int> levelOffsets_{0};
  std::vector<int> order_;
  /// Endpoint-converter input cap per node, < 0 where none; empty until
  /// the first setEndpointConverter.
  std::vector<double> converterCap_;
  std::vector<Cell> cells_;  ///< cold
};

/// Appends primary inputs and gates, marks outputs, then build()s the
/// Netlist. Every append is checked, so a built netlist is well formed.
class NetlistBuilder {
 public:
  /// `wireCapPerFanout`: net wiring load per fanout pin (from the node's
  /// average local wire); `outputLoadCap`: external load on each primary
  /// output.
  explicit NetlistBuilder(double wireCapPerFanout = 0.0,
                          double outputLoadCap = 0.0);
  /// Reopen `netlist`: its nodes, cells and outputs, ready for more
  /// appends (endpoint-converter hooks are not carried over).
  explicit NetlistBuilder(const Netlist& netlist);

  /// Pre-size the node storage (generators building million-gate netlists
  /// call this to avoid repeated vector regrowth).
  void reserve(int nodes);

  int addInput();
  /// Adds a gate; `fanins` must reference existing nodes and match the
  /// cell's fanin count.
  int addGate(Cell cell, std::span<const int> fanins);
  int addGate(Cell cell, std::initializer_list<int> fanins) {
    return addGate(std::move(cell),
                   std::span<const int>(fanins.begin(), fanins.size()));
  }
  /// Flags `id` as an output (idempotent; marking order is kept).
  void markOutput(int id);

  [[nodiscard]] int nodeCount() const { return net_.nodeCount(); }
  [[nodiscard]] const std::vector<int>& outputs() const {
    return net_.outputs_;
  }
  /// Whether some gate added so far consumes `id`.
  [[nodiscard]] bool hasFanouts(int id) const {
    return net_.fanoutOff_[Netlist::idx(id)] > 0;
  }

  /// Move the appended nodes into a Netlist and derive its fanout CSR (a
  /// stable transpose of the fanins in consumer-id order), load caps and
  /// level schedule. The builder is empty afterwards.
  [[nodiscard]] Netlist build();

 private:
  /// Under construction: flags, fanin CSR, operands, cells and outputs
  /// are final; fanoutOff_ holds one fanout count per node.
  Netlist net_;
};

/// Wire load per fanout derived from a node's average local wire (half the
/// average net length per sink).
double defaultWireCapPerFanout(const tech::TechNode& node);

}  // namespace nano::circuit

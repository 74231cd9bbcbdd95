#include "circuit/netlist.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/obs.h"

namespace nano::circuit {

namespace {

template <typename T>
std::size_t bytesOf(const std::vector<T>& v) {
  return std::max<std::size_t>(v.size() * sizeof(T), 1);
}

}  // namespace

std::size_t Netlist::flatBytes() const {
  return bytesOf(isGate_) + bytesOf(isOutput_) + bytesOf(faninOff_) +
         bytesOf(faninIdx_) + bytesOf(fanoutOff_) + bytesOf(fanoutIdx_) +
         bytesOf(loadCap_) + bytesOf(driveRes_) + bytesOf(selfCap_) +
         bytesOf(inputCap_) + bytesOf(outputs_) + bytesOf(levelOf_) +
         bytesOf(levelOffsets_) + bytesOf(order_);
}

void Netlist::replaceCell(int id, Cell cell) {
  if (id < 0 || id >= nodeCount()) {
    throw std::out_of_range("replaceCell: id out of range");
  }
  if (!isGate(id)) throw std::invalid_argument("replaceCell: not a gate");
  const std::size_t i = idx(id);
  if (cell.function != cells_[i].function) {
    throw std::invalid_argument("replaceCell: function change not allowed");
  }
  driveRes_[i] = cell.driveResistance;
  selfCap_[i] = cell.selfCap;
  inputCap_[i] = cell.inputCap;
  cells_[i] = std::move(cell);
  // The swapped cell's input cap loads every fanin net; its own load is a
  // function of its fanouts only and stays valid.
  for (const int f : fanins(id)) refreshLoadCap(f);
}

void Netlist::setEndpointConverter(int id, double converterInputCap) {
  if (id < 0 || id >= nodeCount() || !isGate(id) || !isOutput(id)) {
    throw std::invalid_argument(
        "Netlist::setEndpointConverter: not an output gate");
  }
  if (!(converterInputCap >= 0.0)) {
    throw std::invalid_argument(
        "Netlist::setEndpointConverter: negative input cap");
  }
  if (converterCap_.empty()) converterCap_.assign(cells_.size(), -1.0);
  converterCap_[idx(id)] = converterInputCap;
  refreshLoadCap(id);
}

void Netlist::clearEndpointConverter(int id) {
  if (!hasEndpointConverter(id)) return;
  converterCap_[idx(id)] = -1.0;
  refreshLoadCap(id);
}

void Netlist::refreshLoadCap(int id) {
  // build()'s summation order: fanout edge order, then wire, then the
  // external load. An endpoint converter is the node's last fanout in the
  // converted netlist and takes over the external load.
  double cap = 0.0;
  const auto consumers = fanouts(id);
  for (const int c : consumers) cap += inputCap_[idx(c)];
  std::size_t pins = consumers.size();
  const bool converted = hasEndpointConverter(id);
  if (converted) {
    cap += converterCap_[idx(id)];
    ++pins;
  }
  cap += wireCapPerFanout_ * static_cast<double>(pins);
  if (isOutput(id) && !converted) cap += outputLoadCap_;
  loadCap_[idx(id)] = cap;
}

double Netlist::totalArea() const {
  double area = 0.0;
  for (int i = 0; i < nodeCount(); ++i) {
    if (isGate(i)) area += cells_[idx(i)].area;
  }
  return area;
}

std::vector<int> Netlist::gateIds() const {
  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(gateCount_));
  for (int i = 0; i < nodeCount(); ++i) {
    if (isGate(i)) ids.push_back(i);
  }
  return ids;
}

void Netlist::validate() const {
  if (outputs_.empty()) throw std::logic_error("validate: no outputs");
}

std::vector<int> Netlist::vddViolations() const {
  std::vector<int> bad;
  for (int i = 0; i < nodeCount(); ++i) {
    const Cell& c = cell(i);
    if (!isGate(i) || c.vddDomain != VddDomain::Low) continue;
    if (c.function == CellFunction::LevelConverter) continue;
    for (const int fo : fanouts(i)) {
      const Cell& sink = cell(fo);
      if (sink.vddDomain == VddDomain::High &&
          sink.function != CellFunction::LevelConverter) {
        bad.push_back(i);
        break;
      }
    }
    // A low-Vdd gate driving a primary output directly also needs
    // conversion at the register boundary; CVS accounts for that in the
    // converter count, so it is not flagged here.
  }
  return bad;
}

NetlistBuilder::NetlistBuilder(double wireCapPerFanout, double outputLoadCap) {
  if (wireCapPerFanout < 0 || outputLoadCap < 0) {
    throw std::invalid_argument("Netlist: negative load parameter");
  }
  net_.wireCapPerFanout_ = wireCapPerFanout;
  net_.outputLoadCap_ = outputLoadCap;
  net_.fanoutOff_.clear();
}

NetlistBuilder::NetlistBuilder(const Netlist& netlist) : net_(netlist) {
  // Back to the appended state: fanout counts, nothing derived.
  std::vector<int>& off = net_.fanoutOff_;
  for (std::size_t i = 0; i + 1 < off.size(); ++i) off[i] = off[i + 1] - off[i];
  off.pop_back();
  net_.fanoutIdx_.clear();
  net_.loadCap_.clear();
  net_.levelOf_.clear();
  net_.levelOffsets_ = {0};
  net_.order_.clear();
  net_.converterCap_.clear();
}

void NetlistBuilder::reserve(int nodes) {
  if (nodes <= 0) return;
  const auto n = static_cast<std::size_t>(nodes);
  Netlist& nl = net_;
  nl.isGate_.reserve(n);
  nl.isOutput_.reserve(n);
  nl.faninOff_.reserve(n + 1);
  nl.fanoutOff_.reserve(n + 1);
  nl.driveRes_.reserve(n);
  nl.selfCap_.reserve(n);
  nl.inputCap_.reserve(n);
  nl.cells_.reserve(n);
}

int NetlistBuilder::addInput() {
  Netlist& nl = net_;
  const int id = nl.nodeCount();
  if (id == std::numeric_limits<int>::max() - 1) {
    throw std::length_error("addInput: node count out of int range");
  }
  nl.isGate_.push_back(0);
  nl.isOutput_.push_back(0);
  nl.faninOff_.push_back(nl.faninOff_.back());
  nl.fanoutOff_.push_back(0);
  nl.driveRes_.push_back(0.0);
  nl.selfCap_.push_back(0.0);
  nl.inputCap_.push_back(0.0);
  nl.cells_.emplace_back();
  return id;
}

int NetlistBuilder::addGate(Cell cell, std::span<const int> fanins) {
  if (static_cast<int>(fanins.size()) != cell.fanin()) {
    throw std::invalid_argument("addGate: fanin count mismatch for " + cell.name);
  }
  Netlist& nl = net_;
  const int id = nl.nodeCount();
  for (const int f : fanins) {
    if (f < 0 || f >= id) throw std::invalid_argument("addGate: bad fanin id");
  }
  if (id == std::numeric_limits<int>::max() - 1 ||
      nl.faninIdx_.size() + fanins.size() >
          static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::length_error("addGate: netlist size out of int range");
  }
  nl.faninIdx_.insert(nl.faninIdx_.end(), fanins.begin(), fanins.end());
  for (const int f : fanins) ++nl.fanoutOff_[Netlist::idx(f)];
  nl.isGate_.push_back(1);
  nl.isOutput_.push_back(0);
  nl.faninOff_.push_back(static_cast<int>(nl.faninIdx_.size()));
  nl.fanoutOff_.push_back(0);
  nl.driveRes_.push_back(cell.driveResistance);
  nl.selfCap_.push_back(cell.selfCap);
  nl.inputCap_.push_back(cell.inputCap);
  nl.cells_.push_back(std::move(cell));
  ++nl.gateCount_;
  return id;
}

void NetlistBuilder::markOutput(int id) {
  if (id < 0 || id >= nodeCount()) {
    throw std::out_of_range("markOutput: id out of range");
  }
  std::uint8_t& flag = net_.isOutput_[Netlist::idx(id)];
  if (flag == 0) {
    flag = 1;
    net_.outputs_.push_back(id);
  }
}

Netlist NetlistBuilder::build() {
  Netlist nl = std::move(net_);
  net_ = Netlist{};
  net_.fanoutOff_.clear();
  const std::size_t n = nl.cells_.size();

  // Fanout offsets from the per-node counts (exclusive scan).
  std::vector<int>& off = nl.fanoutOff_;
  off.push_back(0);
  int edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int count = off[i];
    off[i] = edges;
    edges += count;
  }
  off[n] = edges;

  // One forward pass in consumer-id order: scatter each fanin edge into
  // its driver's fanout list (off[f] is the fill cursor), accumulate the
  // consumer's input cap into the driver's load in that same edge order,
  // and take the node's level from its fanins, which precede it.
  nl.fanoutIdx_.resize(static_cast<std::size_t>(edges));
  nl.loadCap_.assign(n, 0.0);
  nl.levelOf_.resize(n);
  int maxLevel = -1;
  for (std::size_t i = 0; i < n; ++i) {
    int level = 0;
    for (const int f : nl.fanins(static_cast<int>(i))) {
      const std::size_t u = Netlist::idx(f);
      nl.fanoutIdx_[Netlist::idx(off[u]++)] = static_cast<int>(i);
      nl.loadCap_[u] += nl.inputCap_[i];
      level = std::max(level, nl.levelOf_[u] + 1);
    }
    nl.levelOf_[i] = level;
    maxLevel = std::max(maxLevel, level);
  }
  // Each cursor stopped at the next node's start: shift them back.
  for (std::size_t i = n; i > 0; --i) off[i] = off[i - 1];
  off[0] = 0;

  // Wire per fanout, then the external load: refreshLoadCap's order.
  for (std::size_t i = 0; i < n; ++i) {
    nl.loadCap_[i] += nl.wireCapPerFanout_ * static_cast<double>(off[i + 1] - off[i]);
    if (nl.isOutput_[i] != 0) nl.loadCap_[i] += nl.outputLoadCap_;
  }

  // Level schedule: a counting sort of the ids by level, ascending id
  // inside a level. levelOffsets_ doubles as the fill cursor and is
  // shifted back the same way.
  const std::size_t levels = static_cast<std::size_t>(maxLevel + 1);
  std::vector<int>& lo = nl.levelOffsets_;
  lo.assign(levels + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++lo[Netlist::idx(nl.levelOf_[i]) + 1];
  for (std::size_t l = 0; l < levels; ++l) lo[l + 1] += lo[l];
  nl.order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    nl.order_[Netlist::idx(lo[Netlist::idx(nl.levelOf_[i])]++)] =
        static_cast<int>(i);
  }
  for (std::size_t l = levels; l > 0; --l) lo[l] = lo[l - 1];
  lo[0] = 0;

  NANO_OBS_COUNT("circuit/soa_builds", 1);
  NANO_OBS_GAUGE("circuit/soa_bytes", static_cast<double>(nl.flatBytes()));
  NANO_OBS_GAUGE("circuit/soa_levels", static_cast<double>(levels));
  return nl;
}

double defaultWireCapPerFanout(const tech::TechNode& node) {
  return node.localWireCapPerM * node.avgLocalWireLength * 0.5;
}

}  // namespace nano::circuit

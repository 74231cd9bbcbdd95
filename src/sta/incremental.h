// Incremental static timing: arrival/required/slack state over a
// circuit::Netlist that repropagates only the affected cones when a gate's
// cell is swapped. A cell swap at gate g changes the delay of g and of g's
// fanin drivers (their load includes g's input cap); arrivals then change
// only inside the fanout cones of those gates, and required times only
// inside their fanin cones. Both cones are walked in topological order
// with early termination the moment a recomputed value stops changing, so
// a trial move costs O(cone) instead of the O(gates) of a full
// sta::analyze — the difference between O(n^2) and near-O(n) optimizer
// passes (paper Sections 2.3-3.3).
//
// Storage: the engine walks the netlist's own flat CSR adjacency and
// delay-operand arrays, and applies every cell swap to the netlist
// (Netlist::replaceCell keeps its load-cap cache exact). Steady-state
// trials allocate nothing but the swapped cell's copy: the worklist,
// journal and epoch arrays persist across trials.
//
// Every per-node recomputation uses the same operations and summation
// order as sta::analyze, and the default epsilon of 0 terminates on exact
// equality, so the engine's state is bit-identical to a fresh full
// analysis at all times. The optimizers rely on this: porting them onto
// trial()/commit()/rollback() changes their wall time, not their results.
//
// Endpoint level converters (enableEndpointConverters): the engine can
// instead time the netlist as opt::insertLevelConverters(netlist, library,
// true) would convert it, as long as no Vdd,l gate drives a Vdd,h gate
// that is not a converter (checked; a trial that would break it throws).
// Then the only converters are output converters, the converted netlist
// keeps every node id, and an output gate g at Vdd,l differs from the
// unconverted netlist in three places, all computed with analyze's
// operations on the converted netlist:
//   load      fanout input caps in edge order, then the converter's input
//             cap, then wire x (fanouts + 1), and no external output load;
//   required  min over the fanouts, then clock - d_LC (the converter C is
//             g's last fanout; C itself is the endpoint, at the clock);
//   check     C's slack clock - (arrival(g) + d_LC) against -d_LC: the
//             level-converting capture stage absorbs one conversion
//             latency. An output that is itself a converter gets the same
//             allowance; any other output must have slack >= 0.
// Setting or clearing a converter rides along with the cell swap that
// moves g across domains, so it is journaled and rolled back with it, and
// failingEndpoints() is kept over the touched set: a converter-aware
// trial is verified in O(cone), not by converting and re-timing a copy.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "sta/sta.h"

namespace nano::sta {

/// Levelized timing engine with O(cone) cell-swap repropagation and
/// trial/commit/rollback. Binds to a netlist by reference: the caller
/// keeps the netlist alive and routes all cell swaps through the engine
/// (external edits require rebuild()).
class IncrementalSta {
 public:
  /// Times `netlist` against `clockPeriod`; pass <= 0 to freeze the clock
  /// at the initial critical-path delay (like sta::analyze, but the clock
  /// then stays fixed across subsequent swaps). `epsilon`: arrival /
  /// required changes with |new - old| <= epsilon stop propagating; the
  /// default 0 keeps the state exactly equal to a full reanalysis.
  explicit IncrementalSta(circuit::Netlist& netlist, double clockPeriod = -1.0,
                          double epsilon = 0.0);

  /// Seed from an already computed full analysis of `netlist` (same
  /// netlist, same clock) instead of re-running one — the optimizers hand
  /// over their timingBefore. The seed must cover every node.
  IncrementalSta(circuit::Netlist& netlist, const TimingResult& seed,
                 double epsilon = 0.0);

  [[nodiscard]] double clockPeriod() const { return clock_; }
  [[nodiscard]] double arrival(int id) const {
    return arrival_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double required(int id) const {
    return required_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] double slack(int id) const {
    return slack_[static_cast<std::size_t>(id)];
  }
  /// Minimum endpoint slack (infinity when the netlist has no outputs).
  [[nodiscard]] double worstSlack() const;
  [[nodiscard]] bool meetsTiming(double tolerance = 1e-15) const {
    return worstSlack() >= -tolerance;
  }

  /// Switch on the endpoint level-converter model (see the file comment)
  /// with `converter` as the level-converter cell; every Vdd,l output gate
  /// gets its converter now, one committed trial each. Per-node values
  /// then describe each node of the converted netlist (converter nodes
  /// have none of their own; worstSlack() and exportResult() still read
  /// the original endpoints). The converters are set on the netlist's
  /// load-cap hook (Netlist::setEndpointConverter), so the bound netlist
  /// times as the converted one from then on: give the engine a netlist
  /// of its own. Throws std::invalid_argument if some Vdd,l gate drives a
  /// Vdd,h gate that is not a converter.
  void enableEndpointConverters(const circuit::Cell& converter);
  [[nodiscard]] bool hasEndpointConverter(int id) const {
    return netlist_->hasEndpointConverter(id);
  }
  /// Endpoints failing their check (slack below minus the allowance, less
  /// 1e-15: the converter allowance above, 0 otherwise). Kept up to date
  /// by every trial and rollback; O(1) to read.
  [[nodiscard]] int failingEndpoints() const { return failing_; }

  /// Swap `gate`'s cell and repropagate the affected cones, journaling
  /// every touched value. Exactly one trial may be pending at a time.
  void trial(int gate, circuit::Cell cell);
  /// Keep the pending trial.
  void commit();
  /// Undo the pending trial: restores the cell (and the netlist's load-cap
  /// cache) and every journaled timing value.
  void rollback();
  /// trial + commit for unconditional moves.
  void apply(int gate, circuit::Cell cell);
  [[nodiscard]] bool hasPendingTrial() const { return pending_; }

  /// Critical path (input -> endpoint) with sta::analyze's tie-breaking:
  /// the last maximum wins among endpoints and among fanins.
  [[nodiscard]] std::vector<int> criticalPath() const;

  /// Snapshot as a full TimingResult, bit-identical to
  /// sta::analyze(netlist, clockPeriod()) on the current netlist.
  [[nodiscard]] TimingResult exportResult() const;

  /// Recompute everything from scratch (after netlist edits that bypassed
  /// the engine, e.g. an assignment of a new netlist).
  void rebuild();

  /// Nodes repropagated over this engine's lifetime — the incremental
  /// work metric (compare against nodeCount() x trials for the full-STA
  /// equivalent).
  [[nodiscard]] std::int64_t nodesRepropagated() const { return repropagated_; }

 private:
  void bindState(std::vector<double> arrival, std::vector<double> required,
                 std::vector<double> slack);
  void propagateDelayChange(int requiredChanged);
  /// Journal (id, arrival, required, slack) once per trial.
  void save(int id);
  [[nodiscard]] double recomputeArrival(int id) const;
  [[nodiscard]] double recomputeRequired(int id) const;
  /// Throws if swapping `cell` in at `gate` would let a Vdd,l gate drive
  /// a Vdd,h gate that is not a converter.
  void checkDomains(int gate, const circuit::Cell& cell) const;
  /// Endpoint check of output `id` given its arrival / slack and whether
  /// it carries a converter.
  [[nodiscard]] bool endpointFails(int id, double arrival, double slack,
                                   bool converted) const;
  [[nodiscard]] int countFailing() const;
  void setConverter(int gate, bool on);
  /// Throws std::invalid_argument naming the first Vdd,l gate that
  /// drives a Vdd,h gate other than a converter.
  void requireNoViolations() const;
  /// Set the converter of every Vdd,l output gate that lacks one.
  void applyDueConverters();

  circuit::Netlist* netlist_;
  double clock_ = 0.0;
  double epsilon_ = 0.0;
  std::vector<double> arrival_;
  std::vector<double> required_;
  std::vector<double> slack_;

  // Pending-trial journal.
  struct Saved {
    int id;
    double arrival, required, slack;
  };
  std::vector<Saved> journal_;
  std::vector<std::uint32_t> mark_;  ///< == epoch_ if journaled this trial
  std::uint32_t epoch_ = 0;
  bool pending_ = false;
  int pendingGate_ = -1;
  circuit::Cell savedCell_;
  bool converterToggled_ = false;  ///< pending trial set/cleared one
  int failingBefore_ = 0;          ///< failing_ when the trial began

  // Endpoint level-converter model (off until enableEndpointConverters).
  bool converters_ = false;
  double converterInputCap_ = 0.0;
  double converterDelay_ = 0.0;  ///< d_LC, driving one output load
  int failing_ = 0;

  // Worklist scratch (kept allocated across trials).
  std::vector<int> delayChanged_;
  std::vector<int> heap_;
  std::vector<std::uint32_t> queued_;  ///< == queueEpoch_ if in worklist
  std::uint32_t queueEpoch_ = 0;

  std::int64_t repropagated_ = 0;
};

}  // namespace nano::sta

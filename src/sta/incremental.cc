#include "sta/incremental.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/obs.h"

namespace nano::sta {

using circuit::CellFunction;
using circuit::Netlist;
using circuit::VddDomain;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Endpoint check tolerance, meetsTiming()'s default.
constexpr double kTolerance = 1e-15;

/// A gate carrying `cell` at Vdd,l needs conversion before a Vdd,h sink
/// or an output (converters themselves never do).
bool isLowLogic(const circuit::Cell& cell) {
  return cell.vddDomain == VddDomain::Low &&
         cell.function != CellFunction::LevelConverter;
}

[[noreturn]] void throwCrossing(const char* who, int driver) {
  std::string msg = who;
  msg += ": Vdd,l gate ";
  msg += std::to_string(driver);
  msg += " drives a Vdd,h gate without a level converter";
  throw std::invalid_argument(msg);
}
}  // namespace

IncrementalSta::IncrementalSta(Netlist& netlist, double clockPeriod,
                               double epsilon)
    : netlist_(&netlist), clock_(clockPeriod), epsilon_(epsilon) {
  if (epsilon < 0) {
    throw std::invalid_argument("IncrementalSta: negative epsilon");
  }
  rebuild();
}

IncrementalSta::IncrementalSta(Netlist& netlist, const TimingResult& seed,
                               double epsilon)
    : netlist_(&netlist), clock_(seed.clockPeriod), epsilon_(epsilon) {
  if (epsilon < 0) {
    throw std::invalid_argument("IncrementalSta: negative epsilon");
  }
  if (seed.clockPeriod <= 0) {
    throw std::invalid_argument("IncrementalSta: seed has no clock period");
  }
  const auto n = static_cast<std::size_t>(netlist.nodeCount());
  if (seed.arrival.size() != n || seed.required.size() != n ||
      seed.slack.size() != n) {
    throw std::invalid_argument(
        "IncrementalSta: seed result does not cover the netlist");
  }
  soa_.rebuild(*netlist_, {.keepCells = false});
  bindState(seed.arrival, seed.required, seed.slack);
}

void IncrementalSta::rebuild() {
  if (pending_) {
    throw std::logic_error("IncrementalSta::rebuild: trial pending");
  }
  if (converters_) requireNoViolations();
  soa_.rebuild(*netlist_, {.keepCells = false});
  TimingResult r = analyze(soa_, clock_ > 0 ? clock_ : -1.0);
  clock_ = r.clockPeriod;  // resolved to the critical delay when <= 0
  bindState(std::move(r.arrival), std::move(r.required), std::move(r.slack));
  if (converters_) applyDueConverters();
}

void IncrementalSta::enableEndpointConverters(const circuit::Cell& converter) {
  if (pending_) {
    throw std::logic_error(
        "IncrementalSta::enableEndpointConverters: trial pending");
  }
  if (converters_) {
    throw std::logic_error(
        "IncrementalSta::enableEndpointConverters: already enabled");
  }
  requireNoViolations();
  converters_ = true;
  converterInputCap_ = converter.inputCap;
  // The converter drives one output load and nothing else, so its load
  // cache in the converted netlist is exactly outputLoadCap.
  converterDelay_ = converter.delay(netlist_->outputLoadCap());
  failing_ = countFailing();  // converter outputs now get their allowance
  applyDueConverters();
}

void IncrementalSta::requireNoViolations() const {
  const std::vector<int> bad = netlist_->vddViolations();
  if (!bad.empty()) throwCrossing("IncrementalSta", bad.front());
}

void IncrementalSta::applyDueConverters() {
  for (const std::uint32_t o : soa_.outputs()) {
    if (!soa_.isGate(o) || soa_.hasEndpointConverter(o)) continue;
    const circuit::Cell& cell = netlist_->node(static_cast<int>(o)).cell;
    if (!isLowLogic(cell)) continue;
    trial(static_cast<int>(o), cell);
    commit();
  }
}

void IncrementalSta::bindState(std::vector<double> arrival,
                               std::vector<double> required,
                               std::vector<double> slack) {
  arrival_ = std::move(arrival);
  required_ = std::move(required);
  slack_ = std::move(slack);
  const std::size_t n = arrival_.size();
  mark_.assign(n, 0);
  queued_.assign(n, 0);
  epoch_ = 0;
  queueEpoch_ = 0;
  journal_.clear();
  pending_ = false;
  pendingGate_ = -1;
  failing_ = countFailing();
}

int IncrementalSta::countFailing() const {
  int failing = 0;
  for (const std::uint32_t o : soa_.outputs()) {
    if (endpointFails(static_cast<int>(o), arrival_[o], slack_[o],
                      soa_.hasEndpointConverter(o))) {
      ++failing;
    }
  }
  return failing;
}

bool IncrementalSta::endpointFails(int id, double arrival, double slack,
                                   bool converted) const {
  if (converted) {
    // The converter C is the endpoint: analyze's clamped arrival of its
    // one fanin plus d_LC, required at the clock, one d_LC of allowance.
    double worst = 0.0;
    if (arrival >= worst) worst = arrival;
    return clock_ - (worst + converterDelay_) <
           -converterDelay_ - kTolerance;
  }
  const auto u = static_cast<std::uint32_t>(id);
  const bool capture = converters_ && soa_.isGate(u) &&
                       netlist_->node(id).cell.function ==
                           CellFunction::LevelConverter;
  const double allowance = capture ? converterDelay_ : 0.0;
  return slack < -allowance - kTolerance;
}

double IncrementalSta::recomputeArrival(int id) const {
  const auto u = static_cast<std::uint32_t>(id);
  if (!soa_.isGate(u)) return 0.0;
  // Same clamp-at-zero max as sta::analyze's forward pass.
  double worst = 0.0;
  for (const std::uint32_t f : soa_.fanins(u)) {
    const double a = arrival_[f];
    if (a >= worst) worst = a;
  }
  return worst + soa_.gateDelay(u);
}

double IncrementalSta::recomputeRequired(int id) const {
  const auto u = static_cast<std::uint32_t>(id);
  const bool converted = soa_.hasEndpointConverter(u);
  double req = soa_.isOutput(u) && !converted ? clock_ : kInf;
  for (const std::uint32_t fo : soa_.fanouts(u)) {
    req = std::min(req, required_[fo] - soa_.gateDelay(fo));
  }
  // The endpoint converter is the last fanout, required at the clock.
  if (converted) req = std::min(req, clock_ - converterDelay_);
  return req;
}

double IncrementalSta::worstSlack() const {
  double worst = kInf;
  for (const std::uint32_t id : soa_.outputs()) {
    worst = std::min(worst, slack_[id]);
  }
  return worst;
}

void IncrementalSta::save(int id) {
  auto& m = mark_[static_cast<std::size_t>(id)];
  if (m == epoch_) return;
  m = epoch_;
  const auto i = static_cast<std::size_t>(id);
  journal_.push_back({id, arrival_[i], required_[i], slack_[i]});
}

void IncrementalSta::trial(int gate, circuit::Cell cell) {
  if (pending_) {
    throw std::logic_error(
        "IncrementalSta::trial: a trial is already pending; commit or "
        "rollback first");
  }
  const auto& node = netlist_->node(gate);
  if (node.kind != Netlist::NodeKind::Gate) {
    throw std::invalid_argument("IncrementalSta::trial: not a gate");
  }
  const auto g = static_cast<std::uint32_t>(gate);
  bool toggle = false;
  if (converters_) {
    checkDomains(gate, cell);
    toggle = soa_.isOutput(g) &&
             isLowLogic(cell) != soa_.hasEndpointConverter(g);
  }

  // Object netlist first (replaceCell validates the swap and throws
  // before mutating), then the mirror — both refresh the fanin load caps
  // with the same summation order, so they stay bit-identical.
  savedCell_ = node.cell;
  netlist_->replaceCell(gate, cell);
  soa_.setCell(g, cell);
  pending_ = true;
  pendingGate_ = gate;
  converterToggled_ = toggle;
  failingBefore_ = failing_;
  ++epoch_;
  if (epoch_ == 0) {  // epoch wrapped: stale marks could collide
    std::fill(mark_.begin(), mark_.end(), 0u);
    epoch_ = 1;
  }
  journal_.clear();

  // Delay changes at the swapped gate and at its fanin drivers, whose
  // load includes the swapped cell's input cap.
  delayChanged_.clear();
  for (const std::uint32_t f : soa_.fanins(g)) {
    if (soa_.isGate(f)) delayChanged_.push_back(static_cast<int>(f));
  }
  delayChanged_.push_back(gate);

  // A converter set or cleared at the gate changes its own load and its
  // required seed; journal it even if no value ends up moving, so the
  // endpoint check is redone.
  if (toggle) {
    save(gate);
    setConverter(g, !soa_.hasEndpointConverter(g));
  }
  const std::int64_t before = repropagated_;
  propagateDelayChange(toggle ? gate : -1);
  NANO_OBS_COUNT("sta/incremental_trials", 1);
  NANO_OBS_COUNT("sta/incremental_nodes_repropagated", repropagated_ - before);
}

void IncrementalSta::checkDomains(int gate, const circuit::Cell& cell) const {
  const auto& node = netlist_->node(gate);
  if (isLowLogic(cell)) {
    for (int fo : node.fanouts) {
      const auto& sink = netlist_->node(fo).cell;
      if (sink.vddDomain == VddDomain::High &&
          sink.function != CellFunction::LevelConverter) {
        throwCrossing("IncrementalSta::trial", gate);
      }
    }
  } else if (cell.function != CellFunction::LevelConverter) {
    for (int f : node.fanins) {
      const auto& driver = netlist_->node(f);
      if (driver.kind == Netlist::NodeKind::Gate && isLowLogic(driver.cell)) {
        throwCrossing("IncrementalSta::trial", f);
      }
    }
  }
}

void IncrementalSta::setConverter(std::uint32_t gate, bool on) {
  if (on) {
    soa_.setEndpointConverter(gate, converterInputCap_);
  } else {
    soa_.clearEndpointConverter(gate);
  }
}

void IncrementalSta::propagateDelayChange(int requiredChanged) {
  auto bumpQueueEpoch = [&] {
    ++queueEpoch_;
    if (queueEpoch_ == 0) {
      std::fill(queued_.begin(), queued_.end(), 0u);
      queueEpoch_ = 1;
    }
  };

  // Forward: arrivals through the fanout cones. A min-heap over node ids
  // is a topological order (fanins always have smaller ids), so each node
  // is finalized in one visit; propagation stops where the recomputed
  // arrival matches the stored one within epsilon.
  bumpQueueEpoch();
  heap_.clear();
  auto pushForward = [&](int id) {
    auto& q = queued_[static_cast<std::size_t>(id)];
    if (q == queueEpoch_) return;
    q = queueEpoch_;
    heap_.push_back(id);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<int>());
  };
  for (int id : delayChanged_) pushForward(id);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<int>());
    const int id = heap_.back();
    heap_.pop_back();
    ++repropagated_;
    const double updated = recomputeArrival(id);
    const double old = arrival_[static_cast<std::size_t>(id)];
    if (std::abs(updated - old) > epsilon_) {
      save(id);
      arrival_[static_cast<std::size_t>(id)] = updated;
      for (const std::uint32_t fo :
           soa_.fanouts(static_cast<std::uint32_t>(id))) {
        pushForward(static_cast<int>(fo));
      }
    }
  }

  // Backward: required times through the fanin cones (required depends on
  // gate delays and the clock, not on arrivals, so the two passes are
  // independent). A max-heap over ids is reverse-topological.
  bumpQueueEpoch();
  heap_.clear();
  auto pushBackward = [&](int id) {
    auto& q = queued_[static_cast<std::size_t>(id)];
    if (q == queueEpoch_) return;
    q = queueEpoch_;
    heap_.push_back(id);
    std::push_heap(heap_.begin(), heap_.end());
  };
  if (requiredChanged >= 0) pushBackward(requiredChanged);
  for (int d : delayChanged_) {
    for (const std::uint32_t f : soa_.fanins(static_cast<std::uint32_t>(d))) {
      pushBackward(static_cast<int>(f));
    }
  }
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const int id = heap_.back();
    heap_.pop_back();
    ++repropagated_;
    const double updated = recomputeRequired(id);
    const double old = required_[static_cast<std::size_t>(id)];
    // Infinities (unconstrained nodes) compare exactly; inf - inf is NaN.
    const bool changed = (updated == kInf || old == kInf)
                             ? updated != old
                             : std::abs(updated - old) > epsilon_;
    if (changed) {
      save(id);
      required_[static_cast<std::size_t>(id)] = updated;
      for (const std::uint32_t f :
           soa_.fanins(static_cast<std::uint32_t>(id))) {
        pushBackward(static_cast<int>(f));
      }
    }
  }

  // Slack changes exactly where arrival or required changed — the
  // journaled set — and so does the endpoint check.
  for (const Saved& s : journal_) {
    const auto i = static_cast<std::size_t>(s.id);
    slack_[i] = (required_[i] == kInf) ? clock_ : required_[i] - arrival_[i];
    if (!soa_.isOutput(static_cast<std::uint32_t>(s.id))) continue;
    const bool converted =
        soa_.hasEndpointConverter(static_cast<std::uint32_t>(s.id));
    const bool wasConverted =
        converterToggled_ && s.id == pendingGate_ ? !converted : converted;
    failing_ += static_cast<int>(
                    endpointFails(s.id, arrival_[i], slack_[i], converted)) -
                static_cast<int>(
                    endpointFails(s.id, s.arrival, s.slack, wasConverted));
  }
}

void IncrementalSta::commit() {
  if (!pending_) {
    throw std::logic_error("IncrementalSta::commit: no pending trial");
  }
  journal_.clear();
  pending_ = false;
  pendingGate_ = -1;
}

void IncrementalSta::rollback() {
  if (!pending_) {
    throw std::logic_error("IncrementalSta::rollback: no pending trial");
  }
  // Restoring the cell also restores both load-cap caches (same recompute
  // path), so engine, mirror and netlist rewind together.
  const auto g = static_cast<std::uint32_t>(pendingGate_);
  netlist_->replaceCell(pendingGate_, savedCell_);
  soa_.setCell(g, savedCell_);
  if (converterToggled_) setConverter(g, !soa_.hasEndpointConverter(g));
  for (const Saved& s : journal_) {
    const auto i = static_cast<std::size_t>(s.id);
    arrival_[i] = s.arrival;
    required_[i] = s.required;
    slack_[i] = s.slack;
  }
  failing_ = failingBefore_;
  journal_.clear();
  pending_ = false;
  pendingGate_ = -1;
}

void IncrementalSta::apply(int gate, circuit::Cell cell) {
  trial(gate, std::move(cell));
  commit();
}

std::vector<int> IncrementalSta::criticalPath() const {
  // Mirrors sta::analyze exactly: last maximum wins (>=) among endpoints
  // and among fanins, walk stops at a primary input.
  double critical = 0.0;
  int end = -1;
  for (const std::uint32_t id : soa_.outputs()) {
    if (arrival_[id] >= critical) {
      critical = arrival_[id];
      end = static_cast<int>(id);
    }
  }
  std::vector<int> path;
  if (end < 0) return path;
  for (int cur = end; cur >= 0;) {
    path.push_back(cur);
    const auto u = static_cast<std::uint32_t>(cur);
    if (!soa_.isGate(u)) break;
    double worst = 0.0;
    int worstId = -1;
    for (const std::uint32_t f : soa_.fanins(u)) {
      if (arrival_[f] >= worst) {
        worst = arrival_[f];
        worstId = static_cast<int>(f);
      }
    }
    cur = worstId;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

TimingResult IncrementalSta::exportResult() const {
  TimingResult r;
  r.clockPeriod = clock_;
  r.arrival = arrival_;
  r.required = required_;
  r.slack = slack_;
  double critical = 0.0;
  for (const std::uint32_t id : soa_.outputs()) {
    critical = std::max(critical, arrival_[id]);
  }
  r.criticalPathDelay = critical;
  r.worstSlack = worstSlack();
  r.criticalPath = criticalPath();
  return r;
}

}  // namespace nano::sta

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
  bindState(seed.arrival, seed.required, seed.slack);
}

void IncrementalSta::rebuild() {
  if (pending_) {
    throw std::logic_error("IncrementalSta::rebuild: trial pending");
  }
  if (converters_) {
    requireNoViolations();
    // Time the unconverted netlist; the converters come back below, one
    // committed trial each.
    for (const int o : netlist_->outputs()) {
      netlist_->clearEndpointConverter(o);
    }
  }
  TimingResult r = analyze(*netlist_, clock_ > 0 ? clock_ : -1.0);
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
  for (const int o : netlist_->outputs()) {
    if (!netlist_->isGate(o) || netlist_->hasEndpointConverter(o)) continue;
    const circuit::Cell& cell = netlist_->cell(o);
    if (!isLowLogic(cell)) continue;
    trial(o, cell);
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
  for (const int o : netlist_->outputs()) {
    const auto i = static_cast<std::size_t>(o);
    if (endpointFails(o, arrival_[i], slack_[i],
                      netlist_->hasEndpointConverter(o))) {
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
  const bool capture =
      converters_ && netlist_->isGate(id) &&
      netlist_->cell(id).function == CellFunction::LevelConverter;
  const double allowance = capture ? converterDelay_ : 0.0;
  return slack < -allowance - kTolerance;
}

double IncrementalSta::recomputeArrival(int id) const {
  if (!netlist_->isGate(id)) return 0.0;
  // Same clamp-at-zero max as sta::analyze's forward pass.
  double worst = 0.0;
  for (const int f : netlist_->fanins(id)) {
    const double a = arrival_[static_cast<std::size_t>(f)];
    if (a >= worst) worst = a;
  }
  return worst + netlist_->gateDelay(id);
}

double IncrementalSta::recomputeRequired(int id) const {
  const bool converted = netlist_->hasEndpointConverter(id);
  double req = netlist_->isOutput(id) && !converted ? clock_ : kInf;
  for (const int fo : netlist_->fanouts(id)) {
    req = std::min(req, required_[static_cast<std::size_t>(fo)] -
                            netlist_->gateDelay(fo));
  }
  // The endpoint converter is the last fanout, required at the clock.
  if (converted) req = std::min(req, clock_ - converterDelay_);
  return req;
}

double IncrementalSta::worstSlack() const {
  double worst = kInf;
  for (const int id : netlist_->outputs()) {
    worst = std::min(worst, slack_[static_cast<std::size_t>(id)]);
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
  if (gate < 0 || gate >= netlist_->nodeCount() || !netlist_->isGate(gate)) {
    throw std::invalid_argument("IncrementalSta::trial: not a gate");
  }
  bool toggle = false;
  if (converters_) {
    checkDomains(gate, cell);
    toggle = netlist_->isOutput(gate) &&
             isLowLogic(cell) != netlist_->hasEndpointConverter(gate);
  }

  // replaceCell validates the swap and throws before mutating.
  savedCell_ = netlist_->cell(gate);
  netlist_->replaceCell(gate, std::move(cell));
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
  for (const int f : netlist_->fanins(gate)) {
    if (netlist_->isGate(f)) delayChanged_.push_back(f);
  }
  delayChanged_.push_back(gate);

  // A converter set or cleared at the gate changes its own load and its
  // required seed; journal it even if no value ends up moving, so the
  // endpoint check is redone.
  if (toggle) {
    save(gate);
    setConverter(gate, !netlist_->hasEndpointConverter(gate));
  }
  const std::int64_t before = repropagated_;
  propagateDelayChange(toggle ? gate : -1);
  NANO_OBS_COUNT("sta/incremental_trials", 1);
  NANO_OBS_COUNT("sta/incremental_nodes_repropagated", repropagated_ - before);
}

void IncrementalSta::checkDomains(int gate, const circuit::Cell& cell) const {
  if (isLowLogic(cell)) {
    for (const int fo : netlist_->fanouts(gate)) {
      const circuit::Cell& sink = netlist_->cell(fo);
      if (sink.vddDomain == VddDomain::High &&
          sink.function != CellFunction::LevelConverter) {
        throwCrossing("IncrementalSta::trial", gate);
      }
    }
  } else if (cell.function != CellFunction::LevelConverter) {
    for (const int f : netlist_->fanins(gate)) {
      if (netlist_->isGate(f) && isLowLogic(netlist_->cell(f))) {
        throwCrossing("IncrementalSta::trial", f);
      }
    }
  }
}

void IncrementalSta::setConverter(int gate, bool on) {
  if (on) {
    netlist_->setEndpointConverter(gate, converterInputCap_);
  } else {
    netlist_->clearEndpointConverter(gate);
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
      for (const int fo : netlist_->fanouts(id)) pushForward(fo);
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
  for (const int d : delayChanged_) {
    for (const int f : netlist_->fanins(d)) pushBackward(f);
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
      for (const int f : netlist_->fanins(id)) pushBackward(f);
    }
  }

  // Slack changes exactly where arrival or required changed — the
  // journaled set — and so does the endpoint check.
  for (const Saved& s : journal_) {
    const auto i = static_cast<std::size_t>(s.id);
    slack_[i] = (required_[i] == kInf) ? clock_ : required_[i] - arrival_[i];
    if (!netlist_->isOutput(s.id)) continue;
    const bool converted = netlist_->hasEndpointConverter(s.id);
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
  // Restoring the cell also restores the fanin load caps (same recompute
  // path, same summation order).
  const int g = pendingGate_;
  netlist_->replaceCell(g, std::move(savedCell_));
  if (converterToggled_) setConverter(g, !netlist_->hasEndpointConverter(g));
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
  for (const int id : netlist_->outputs()) {
    if (arrival_[static_cast<std::size_t>(id)] >= critical) {
      critical = arrival_[static_cast<std::size_t>(id)];
      end = id;
    }
  }
  std::vector<int> path;
  if (end < 0) return path;
  for (int cur = end; cur >= 0;) {
    path.push_back(cur);
    if (!netlist_->isGate(cur)) break;
    double worst = 0.0;
    int worstId = -1;
    for (const int f : netlist_->fanins(cur)) {
      if (arrival_[static_cast<std::size_t>(f)] >= worst) {
        worst = arrival_[static_cast<std::size_t>(f)];
        worstId = f;
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
  for (const int id : netlist_->outputs()) {
    critical = std::max(critical, arrival_[static_cast<std::size_t>(id)]);
  }
  r.criticalPathDelay = critical;
  r.worstSlack = worstSlack();
  r.criticalPath = criticalPath();
  return r;
}

}  // namespace nano::sta

#include "mix.h"

#include <stdexcept>
#include <utility>

#include "svc/json.h"

namespace nano::perf {

namespace {

constexpr int kNodes[] = {180, 130, 100, 70, 50, 35};

svc::Request make(svc::RequestKind kind, svc::Params params) {
  svc::Request r;
  r.kind = kind;
  r.params = std::move(params);
  return r;
}

}  // namespace

std::vector<MixClass> mixClasses() {
  using svc::RequestKind;
  std::vector<MixClass> out;

  // The shares, Zipf exponents and pool sizes are unverified assumptions,
  // not fitted to any client trace; perf/README.md gives the reason for
  // each. Cheap analytic kinds: 9726 keys, ~2.4x the default result cache.
  MixClass point{0.65, false, 0.9, 6, {}};
  for (const int node : kNodes) {
    for (const double activity : {0.05, 0.1, 0.2}) {
      for (int v = 0; v < 20; ++v) {
        for (int t = 0; t < 25; ++t) {
          svc::DesignPointParams p;
          p.nodeNm = node;
          p.activity = activity;
          p.vdd = 0.5 + 0.05 * v;
          p.vth = 0.05 + 0.01 * t;
          point.keys.push_back(make(RequestKind::DesignPoint, p));
        }
      }
    }
  }
  out.push_back(std::move(point));

  MixClass repeater{0.06, false, 0.9, 6, {}};
  MixClass wire{0.06, false, 0.9, 6, {}};
  for (const int node : kNodes) {
    for (int w = 0; w < 40; ++w) {
      const double width = 1.0 + 0.25 * w;
      svc::RepeaterParams rp;
      rp.nodeNm = node;
      rp.widthMultiple = width;
      repeater.keys.push_back(make(RequestKind::Repeater, rp));
      for (const bool match : {true, false}) {
        svc::WireParams wp;
        wp.nodeNm = node;
        wp.widthMultiple = width;
        wp.matchSpacing = match;
        wire.keys.push_back(make(RequestKind::Wire, wp));
      }
    }
  }
  out.push_back(std::move(repeater));
  out.push_back(std::move(wire));

  MixClass summary{0.03, false, 0.9, 1, {}};
  for (const int node : kNodes) {
    svc::NodeSummaryParams p;
    p.nodeNm = node;
    summary.keys.push_back(make(RequestKind::NodeSummary, p));
  }
  out.push_back(std::move(summary));

  // Medium kinds: 20% of the stream, from flatter pools so many miss.
  MixClass sta{0.06, true, 0.6, 3, {}};
  for (const int gates : {5000, 10000, 20000}) {
    for (int seed = 1; seed <= 400; ++seed) {
      svc::StaParams p;
      p.gates = gates;
      p.seed = seed;
      sta.keys.push_back(make(RequestKind::Sta, p));
    }
  }
  out.push_back(std::move(sta));

  MixClass scenario{0.06, true, 0.6, 3, {}};
  for (const char* name : {"dtm", "dvfs", "wakeup"}) {
    for (int seed = 1; seed <= 100; ++seed) {
      svc::ScenarioParams p;
      p.scenario = name;
      p.seed = seed;
      scenario.keys.push_back(make(RequestKind::Scenario, p));
    }
  }
  out.push_back(std::move(scenario));

  MixClass grid{0.04, true, 0.6, 6, {}};
  for (const int node : kNodes) {
    for (int a = 0; a < 40; ++a) {
      svc::DesignGridParams p;
      p.nodeNm = node;
      p.activity = 0.05 + 0.01 * a;
      grid.keys.push_back(make(RequestKind::DesignGrid, p));
    }
  }
  out.push_back(std::move(grid));

  // Mesh size sets the cost of a solve: one stratum per subdivision count.
  MixClass solve{0.04, true, 0.6, 3, {}};
  for (const int sub : {8, 16, 32}) {
    for (const int node : kNodes) {
      for (const double width : {2.0, 3.0, 4.0, 5.0, 6.0, 8.0}) {
        svc::GridSolveParams p;
        p.nodeNm = node;
        p.widthMultiple = width;
        p.subdivisions = sub;
        solve.keys.push_back(make(RequestKind::GridSolve, p));
      }
    }
  }
  out.push_back(std::move(solve));
  return out;
}

MixGenerator::MixGenerator(std::uint64_t seed, std::uint64_t stream,
                           std::string idPrefix, bool cheapOnly)
    : classes_(mixClasses()),
      draws_(seed * 0x2545f4914f6cdd1dULL + stream + 1),
      idPrefix_(std::move(idPrefix)) {
  if (cheapOnly) {
    double cheapShare = 0.0;
    for (const MixClass& c : classes_) cheapShare += c.medium ? 0.0 : c.share;
    for (MixClass& c : classes_) c.share = c.medium ? 0.0 : c.share / cheapShare;
  }
  // The seed picks which keys are hot: a Fisher-Yates shuffle of each
  // stratum, then rank r takes the next key of stratum r mod strata.
  SeedStream ranks(seed);
  for (MixClass& c : classes_) {
    if (c.strata == 0 || c.keys.size() % c.strata != 0) {
      throw std::logic_error("MixGenerator: a pool's strata must be equal");
    }
    const std::size_t block = c.keys.size() / c.strata;
    std::vector<svc::Request> ranked;
    ranked.reserve(c.keys.size());
    for (std::size_t b = 0; b < c.strata; ++b) {
      const auto first = c.keys.begin() + static_cast<std::ptrdiff_t>(b * block);
      for (std::size_t i = block; i > 1; --i) {
        std::swap(first[static_cast<std::ptrdiff_t>(i - 1)],
                  first[static_cast<std::ptrdiff_t>(ranks.below(i))]);
      }
    }
    for (std::size_t i = 0; i < block; ++i) {
      for (std::size_t b = 0; b < c.strata; ++b) {
        ranked.push_back(c.keys[b * block + i]);
      }
    }
    c.keys = std::move(ranked);
    zipf_.emplace_back(c.keys.size(), c.zipfExponent);
  }
}

MixRequest MixGenerator::next() {
  double u = draws_.unit();
  std::size_t k = 0;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].share <= 0.0) continue;
    k = i;  // rounding can leave u past the last share: keep the last class
    if (u < classes_[i].share) break;
    u -= classes_[i].share;
  }
  const MixClass& c = classes_[k];
  MixRequest out;
  out.request = c.keys[zipf_[k].draw(draws_)];
  out.request.id = idPrefix_ + std::to_string(index_++);
  out.line = requestLine(out.request);
  out.medium = c.medium;
  return out;
}

std::string requestLine(const svc::Request& request) {
  svc::JsonValue v = svc::JsonValue::object();
  v.set("id", request.id);
  v.set("kind", svc::kindName(request.kind));
  v.set("params", svc::paramsJson(request.params));
  return v.write();
}

}  // namespace nano::perf

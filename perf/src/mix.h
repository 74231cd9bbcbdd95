// Seeded request stream of the svc_mix workload: mostly cheap analytic
// kinds drawn with Zipf-like popularity from a key space ~2.4x the
// service's default 4096-entry result cache (so hits, misses and
// evictions all happen), plus a medium share of sta / scenario /
// design_grid / grid_solve requests from smaller Zipf pools (so
// concurrent connections also join one another's in-flight computes).
//
// Each kind has a fixed share of the stream and its own key pool; the
// seed permutes which keys are popular and drives every draw. It permutes
// within cost strata only, so the r-th most popular key costs about the
// same on every seed and the work of a window does not hinge on the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "svc/request.h"

namespace nano::perf {

struct MixRequest {
  svc::Request request;
  std::string line;  ///< JSONL wire form, no newline
  bool medium = false;
};

/// One kind's slice of the mix.
struct MixClass {
  double share = 0.0;
  bool medium = false;
  double zipfExponent = 0.0;  ///< popularity skew within the pool
  /// Equal, contiguous blocks of `keys` (in mixClasses() order) whose keys
  /// cost about the same to evaluate, e.g. one block per netlist size.
  std::size_t strata = 1;
  std::vector<svc::Request> keys;  ///< popularity-rank order (0 = hottest)
};

/// The kind pools in their canonical order, before any seeded
/// permutation. Cheap kinds first.
std::vector<MixClass> mixClasses();

class MixGenerator {
 public:
  /// `stream` selects an independent draw sequence of the seed (warm-up,
  /// timed window); popularity ranks depend on the seed alone. Ids are
  /// "<prefix><index>". `cheapOnly` draws from the cheap kinds alone (the
  /// cache warm-up, whose cost then does not hinge on which medium keys a
  /// seed makes hot).
  MixGenerator(std::uint64_t seed, std::uint64_t stream, std::string idPrefix,
               bool cheapOnly = false);

  MixRequest next();

  [[nodiscard]] const std::vector<MixClass>& classes() const {
    return classes_;
  }

 private:
  std::vector<MixClass> classes_;
  std::vector<Zipf> zipf_;
  SeedStream draws_;
  std::string idPrefix_;
  std::size_t index_ = 0;};

/// The wire line of a request: {"id":..,"kind":..,"params":{..}}.
std::string requestLine(const svc::Request& request);

}  // namespace nano::perf

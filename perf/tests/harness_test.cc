// Tests of the benchmark's own machinery: the svc_mix generator is a pure
// function of its seed and permutes keys only within cost strata, every
// key it can draw evaluates cleanly, tail percentiles follow the "ten
// samples beyond" rule, and BENCHMARK.json lists exactly the per-layer
// metrics the traced run prints.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "harness.h"
#include "mix.h"
#include "svc/eval.h"
#include "svc/json.h"

namespace nano::perf {
namespace {

std::vector<std::string> lines(std::uint64_t seed, std::uint64_t stream,
                               std::size_t n) {
  MixGenerator gen(seed, stream, "r");
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(gen.next().line);
  return out;
}

TEST(MixGenerator, SameSeedSameStream) {
  EXPECT_EQ(lines(1, 2, 5000), lines(1, 2, 5000));
  EXPECT_EQ(lines(77, 1, 5000), lines(77, 1, 5000));
}

TEST(MixGenerator, SeedAndStreamChangeTheStream) {
  EXPECT_NE(lines(1, 2, 200), lines(2, 2, 200));
  EXPECT_NE(lines(1, 1, 200), lines(1, 2, 200));
}

TEST(MixGenerator, SharesAndKeySpace) {
  MixGenerator gen(5, 2, "r");
  std::size_t cheapKeys = 0;
  for (const MixClass& c : gen.classes()) {
    if (!c.medium) cheapKeys += c.keys.size();
  }
  // The cheap key space is 2-3x the service's default 4096-entry cache.
  EXPECT_GE(cheapKeys, 2u * 4096u);
  EXPECT_LE(cheapKeys, 3u * 4096u);
  constexpr std::size_t kDraws = 40000;
  std::size_t medium = 0;
  std::set<std::string> distinct;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const MixRequest r = gen.next();
    medium += r.medium ? 1 : 0;
    distinct.insert(r.request.canonicalKey());
  }
  const double share = static_cast<double>(medium) / kDraws;
  EXPECT_GT(share, 0.18);
  EXPECT_LT(share, 0.22);
  // Enough distinct keys that a 4096-entry cache must evict.
  EXPECT_GT(distinct.size(), 4096u);
}

TEST(MixGenerator, SeedsPermuteWithinCostStrata) {
  // Rank r of every pool falls in the same stratum on every seed, so the
  // cost profile of the popular keys does not depend on the seed.
  const std::vector<MixClass> canonical = mixClasses();
  const MixGenerator a(1, 2, "r"), b(7, 2, "r");
  for (std::size_t k = 0; k < canonical.size(); ++k) {
    const MixClass& c = canonical[k];
    const std::size_t block = c.keys.size() / c.strata;
    std::map<std::string, std::size_t> stratum;
    for (std::size_t i = 0; i < c.keys.size(); ++i) {
      stratum[c.keys[i].canonicalKey()] = i / block;
    }
    bool permuted = c.strata == c.keys.size();
    for (std::size_t r = 0; r < c.keys.size(); ++r) {
      const std::string ka = a.classes()[k].keys[r].canonicalKey();
      const std::string kb = b.classes()[k].keys[r].canonicalKey();
      EXPECT_EQ(stratum.at(ka), stratum.at(kb)) << "pool " << k << " rank " << r;
      EXPECT_EQ(stratum.at(ka), r % c.strata) << "pool " << k << " rank " << r;
      permuted = permuted || ka != kb;
    }
    EXPECT_TRUE(permuted) << "pool " << k << " is not seeded";
  }
}

TEST(MixGenerator, EveryKeyEvaluatesOk) {
  // A workload on which no operation fails: every key the generator can
  // draw must evaluate to an ok outcome.
  for (const MixClass& c : mixClasses()) {
    for (const svc::Request& r : c.keys) {
      const svc::Outcome o = svc::evaluate(r);
      ASSERT_EQ(o.status, svc::ResponseStatus::Ok)
          << r.canonicalKey() << ": " << o.error;
    }
  }
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Percentile p90 = percentile(v, 0.9);
  EXPECT_DOUBLE_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.reportable());
  v.pop_back();
  EXPECT_FALSE(percentile(v, 0.9).reportable());
  EXPECT_DOUBLE_EQ(percentile(v, 0.5).value, 51.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Digest, FnvAndBitPatterns) {
  Digest d;
  d.bytes("a");
  EXPECT_EQ(d.value(), 0xaf63dc4c8601ec8cULL);
  Digest pos, neg;
  pos.f64(0.0);
  neg.f64(-0.0);
  EXPECT_NE(pos.value(), neg.value());
}

TEST(SeedStream, Deterministic) {
  SeedStream a(9), b(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.below(1000), b.below(1000));
  }
  SeedStream c(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(c.unit(), 1.0);
}

TEST(Zipf, RankZeroIsHottest) {
  const Zipf z(100, 0.9);
  SeedStream rng(3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.draw(rng)];
  for (int r = 1; r < 100; ++r) EXPECT_GE(counts[0], counts[r]);
}

TEST(BenchmarkJson, PerLayerNamesMatchTheTracedRun) {
  std::ifstream in(NANOBENCH_JSON);
  ASSERT_TRUE(in.good()) << NANOBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const svc::JsonValue doc = svc::parseJson(text.str());
  std::vector<std::pair<std::string, std::string>> listed;
  for (const svc::JsonValue& m : doc.find("per_layer")->items()) {
    listed.emplace_back(m.find("name")->asString(), m.find("unit")->asString());
  }
  std::vector<std::pair<std::string, std::string>> printed;
  for (const LayerMetricSpec& s : layerMetricSpecs()) {
    printed.emplace_back(s.name, s.unit);
  }
  EXPECT_EQ(listed, printed);
}

}  // namespace
}  // namespace nano::perf

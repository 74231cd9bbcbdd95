// util::Memo: the one bounded LRU + in-flight-dedup mechanism behind the
// svc result cache, the scenario plant cache and the grid-topology cache.
// The ResultCache cases exercise it as the service instantiates it
// (string keys hashed by fnv1a64, Outcome values, obs counters under the
// svc/ names); the Memo cases cover what only the generic form shows.
#include "util/memo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "svc/request.h"

namespace nano::util {
namespace {

using svc::Outcome;
using svc::ResponseStatus;

struct KeyHash {
  std::size_t operator()(const std::string& key) const {
    return svc::fnv1a64(key);
  }
};

constexpr MemoNames kSvcNames{.hits = "svc/cache_hits",
                              .misses = "svc/cache_misses",
                              .evictions = "svc/cache_evictions",
                              .joins = "svc/dedup_joins"};

/// The service's result memo with `capacity` entries over `shards`.
class ResultMemo : public Memo<std::string, Outcome, KeyHash> {
 public:
  explicit ResultMemo(std::size_t capacity, std::size_t shards = 8)
      : Memo(capacity, shards, kSvcNames) {}

  Outcome getOrCompute(const std::string& key,
                       const std::function<Outcome()>& compute) {
    return *get(key, [&] { return std::make_shared<const Outcome>(compute()); });
  }
};

Outcome okOutcome(const std::string& payload) {
  Outcome o;
  o.status = ResponseStatus::Ok;
  o.data = payload;
  return o;
}

/// Enables obs with a clean registry for one test; restores on exit.
class ObsScope {
 public:
  ObsScope() : was_(obs::enabled()) {
    obs::MetricsRegistry::instance().reset();
    obs::setEnabled(true);
  }
  ~ObsScope() {
    obs::setEnabled(was_);
    obs::MetricsRegistry::instance().reset();
  }
  static std::int64_t counter(const char* name) {
    return obs::MetricsRegistry::instance().counter(name).value();
  }

 private:
  bool was_;
};

TEST(ResultCache, MissComputesThenHitsServeCached) {
  ResultMemo cache(16, 1);
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return okOutcome("payload");
  };
  EXPECT_EQ(cache.getOrCompute("k", compute).data, "payload");
  EXPECT_EQ(cache.getOrCompute("k", compute).data, "payload");
  EXPECT_EQ(cache.getOrCompute("k", compute).data, "payload");
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, DistinctKeysComputeSeparately) {
  ResultMemo cache(16, 4);
  int computes = 0;
  for (const char* key : {"a", "b", "c", "a", "b"}) {
    cache.getOrCompute(key, [&] {
      ++computes;
      return okOutcome(key);
    });
  }
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(cache.getOrCompute("c", [] { return okOutcome("wrong"); }).data,
            "c");
}

TEST(ResultCache, LruEvictsColdestWithinShard) {
  ResultMemo cache(2, 1);  // one shard, two entries
  int computes = 0;
  auto computeNamed = [&](const std::string& key) {
    return cache.getOrCompute(key, [&] {
      ++computes;
      return okOutcome(key);
    });
  };
  computeNamed("a");
  computeNamed("b");
  computeNamed("a");  // touch a: b is now coldest
  computeNamed("c");  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(computes, 3);
  computeNamed("a");  // still cached
  EXPECT_EQ(computes, 3);
  computeNamed("b");  // recomputes
  EXPECT_EQ(computes, 4);
}

TEST(ResultCache, ZeroCapacityDisablesCaching) {
  ResultMemo cache(0);
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return okOutcome("x");
  };
  cache.getOrCompute("k", compute);
  cache.getOrCompute("k", compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, ClearForgetsEverything) {
  ResultMemo cache(16);
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return okOutcome("x");
  };
  cache.getOrCompute("k", compute);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.getOrCompute("k", compute);
  EXPECT_EQ(computes, 2);
}

TEST(ResultCache, ErrorOutcomesAreCachedToo) {
  ResultMemo cache(16);
  int computes = 0;
  auto compute = [&] {
    ++computes;
    Outcome o;
    o.status = ResponseStatus::Error;
    o.error = "deterministically bad";
    return o;
  };
  EXPECT_EQ(cache.getOrCompute("bad", compute).status, ResponseStatus::Error);
  EXPECT_EQ(cache.getOrCompute("bad", compute).error, "deterministically bad");
  EXPECT_EQ(computes, 1);
}

TEST(ResultCache, ConcurrentSameKeyComputesOnce) {
  ResultMemo cache(64, 8);
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> results(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache
                       .getOrCompute("shared",
                                     [&] {
                                       // Widen the race window so joiners
                                       // actually wait on the in-flight slot.
                                       std::this_thread::sleep_for(
                                           std::chrono::milliseconds(20));
                                       computes.fetch_add(1);
                                       return okOutcome("one-true-payload");
                                     })
                       .data;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), 1);
  for (const std::string& r : results) EXPECT_EQ(r, "one-true-payload");
}

TEST(ResultCache, ObsCountersTrackHitsMissesDedup) {
  const ObsScope scope;
  {
    ResultMemo cache(16, 2);
    auto compute = [] { return okOutcome("x"); };
    cache.getOrCompute("a", compute);
    cache.getOrCompute("a", compute);
    cache.getOrCompute("b", compute);
  }
  EXPECT_EQ(ObsScope::counter("svc/cache_misses"), 2);
  EXPECT_EQ(ObsScope::counter("svc/cache_hits"), 1);
}

// ------------------------------------------------------------ generic memo

using IntMemo = Memo<int, int>;

constexpr MemoNames kTestNames{.hits = "test/memo_hits",
                               .misses = "test/memo_misses",
                               .evictions = "test/memo_evictions",
                               .joins = "test/memo_joins"};

TEST(Memo, LookupReportsHitMissAndEvictions) {
  const ObsScope scope;
  IntMemo memo(2, 1, kTestNames);
  auto value = [](int v) { return [v] { return std::make_shared<const int>(v); }; };
  EXPECT_EQ(memo.lookup(1, value(10)).source, IntMemo::Source::Miss);
  const IntMemo::Lookup hit = memo.lookup(1, value(99));
  EXPECT_EQ(hit.source, IntMemo::Source::Hit);
  EXPECT_EQ(*hit.value, 10);
  EXPECT_EQ(hit.joinNs, 0);
  (void)memo.lookup(2, value(20));
  (void)memo.lookup(3, value(30));  // evicts 1, the coldest
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(ObsScope::counter("test/memo_hits"), 1);
  EXPECT_EQ(ObsScope::counter("test/memo_misses"), 3);
  EXPECT_EQ(ObsScope::counter("test/memo_evictions"), 1);
  EXPECT_EQ(ObsScope::counter("test/memo_joins"), 0);
}

TEST(Memo, EvictedValueStaysAliveForItsHolder) {
  IntMemo memo(1, 1, kTestNames);
  const std::shared_ptr<const int> held =
      memo.get(1, [] { return std::make_shared<const int>(7); });
  (void)memo.get(2, [] { return std::make_shared<const int>(8); });
  EXPECT_EQ(*held, 7);
  EXPECT_EQ(memo.lookup(1, [] { return std::make_shared<const int>(9); }).source,
            IntMemo::Source::Miss);
}

TEST(Memo, ThrowingComputePoisonsJoinersAndCachesNothing) {
  const ObsScope scope;
  IntMemo memo(8, 1, kTestNames);
  std::atomic<bool> computing{false};
  std::atomic<int> computes{0};
  auto failing = [&]() -> std::shared_ptr<const int> {
    computes.fetch_add(1);
    computing.store(true);
    // Hold the in-flight slot until the joiners have registered.
    while (ObsScope::counter("test/memo_joins") < 3) std::this_thread::yield();
    throw std::runtime_error("compute failed");
  };
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    try {
      (void)memo.get(5, failing);
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()) == "compute failed") failures.fetch_add(1);
    }
  });
  while (!computing.load()) std::this_thread::yield();
  for (int t = 1; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        (void)memo.get(5, failing);
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "compute failed") failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_EQ(memo.size(), 0u);

  // Nothing was cached: the next call computes again, and succeeds.
  const IntMemo::Lookup next =
      memo.lookup(5, [] { return std::make_shared<const int>(55); });
  EXPECT_EQ(next.source, IntMemo::Source::Miss);
  EXPECT_EQ(*next.value, 55);
}

TEST(Memo, JoinersReportJoinedAndShareTheValue) {
  const ObsScope scope;
  IntMemo memo(8, 1, kTestNames);
  std::atomic<bool> computing{false};
  auto slow = [&] {
    computing.store(true);
    while (ObsScope::counter("test/memo_joins") < 1) std::this_thread::yield();
    return std::make_shared<const int>(42);
  };
  IntMemo::Lookup first;
  std::thread owner([&] { first = memo.lookup(1, slow); });
  while (!computing.load()) std::this_thread::yield();
  const IntMemo::Lookup joined = memo.lookup(1, slow);
  owner.join();
  EXPECT_EQ(first.source, IntMemo::Source::Miss);
  EXPECT_EQ(joined.source, IntMemo::Source::Joined);
  EXPECT_EQ(joined.value.get(), first.value.get());
  EXPECT_GT(joined.joinBeginNs, 0);  // obs is on, so the wait is timed
  EXPECT_GE(joined.joinNs, 0);
}

TEST(Memo, ComputeMayCallAnotherMemo) {
  IntMemo inner(4, 1, kTestNames);
  IntMemo outer(4, 1, kTestNames);
  const auto v = outer.get(1, [&] {
    return std::make_shared<const int>(
        *inner.get(2, [] { return std::make_shared<const int>(3); }) + 1);
  });
  EXPECT_EQ(*v, 4);
  EXPECT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer.size(), 1u);
}

}  // namespace
}  // namespace nano::util

// Bounded, sharded LRU memo with in-flight deduplication — the one
// mechanism behind every process-wide cache (svc results, scenario
// plants, power-grid topologies). A key lives in shard
// `Hash(key) & (shards - 1)`, an LRU of capacity/shards entries. Of
// several concurrent callers for one key, exactly one computes and the
// rest block on its shared future. The compute runs outside every lock,
// so it may call another memo (a plant build solves a power grid); if it
// throws, every joiner gets the exception and nothing is cached. Values
// are shared_ptr<const V>, so V need not be movable and a holder keeps
// its value past eviction. The owner names the obs counters.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"

namespace nano::util {

/// obs counter names of one memo. A joiner is a caller that waited on
/// another caller's in-flight compute; owners whose callers cannot tell
/// a join from a hit pass the hit name for both.
struct MemoNames {
  const char* hits;
  const char* misses;
  const char* evictions;
  const char* joins;
};

template <class K, class V, class Hash = std::hash<K>>
class Memo {
 public:
  enum class Source { Hit, Miss, Joined };

  /// What one lookup returned and how.
  struct Lookup {
    std::shared_ptr<const V> value;
    Source source = Source::Miss;
    /// Joined only, and only while obs timing is on (obs::timingNowNs()
    /// is 0 otherwise): when the wait began and how long it took.
    std::int64_t joinBeginNs = 0;
    std::int64_t joinNs = 0;
  };

  /// `capacity` is the total entry count across shards; 0 caches and
  /// deduplicates nothing (every lookup is a miss that computes).
  /// `shards` is rounded up to a power of two; each shard holds
  /// capacity/shards entries, at least 1.
  Memo(std::size_t capacity, std::size_t shards, MemoNames names)
      : names_(names) {
    std::size_t n = 1;
    while (n < shards) n <<= 1;
    perShard_ = capacity == 0 ? 0 : std::max<std::size_t>(1, capacity / n);
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// The value for `key`, computing it with `compute()` (returning
  /// shared_ptr<const V>) on a miss.
  template <class Compute>
  Lookup lookup(const K& key, Compute&& compute) {
    if (perShard_ == 0) {
      count(names_.misses);
      return {compute(), Source::Miss};
    }
    Shard& shard = *shards_[Hash{}(key) & (shards_.size() - 1)];
    std::promise<Value> promise;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      if (auto hit = shard.index.find(key); hit != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, hit->second);
        Value value = hit->second->second;
        lock.unlock();
        count(names_.hits);
        return {std::move(value), Source::Hit};
      }
      if (auto flight = shard.inflight.find(key);
          flight != shard.inflight.end()) {
        std::shared_future<Value> future = flight->second;
        lock.unlock();
        count(names_.joins);
        Lookup joined{nullptr, Source::Joined, obs::timingNowNs()};
        joined.value = future.get();
        if (joined.joinBeginNs > 0) {
          joined.joinNs = obs::timingNowNs() - joined.joinBeginNs;
        }
        return joined;
      }
      shard.inflight.emplace(key, promise.get_future().share());
    }

    count(names_.misses);
    Value value;
    try {
      value = compute();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.inflight.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    std::size_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.inflight.erase(key);
      // This caller owned the in-flight slot, so no other insert of `key`
      // can have raced in; a clear() meanwhile just leaves it uncached.
      shard.lru.emplace_front(key, value);
      shard.index.emplace(key, shard.lru.begin());
      while (shard.lru.size() > perShard_) {
        shard.index.erase(shard.lru.back().first);
        shard.lru.pop_back();
        ++evicted;
      }
    }
    promise.set_value(value);
    count(names_.evictions, evicted);
    return {std::move(value), Source::Miss};
  }

  /// lookup(key, compute).value.
  template <class Compute>
  std::shared_ptr<const V> get(const K& key, Compute&& compute) {
    return lookup(key, std::forward<Compute>(compute)).value;
  }

  /// Entries currently cached, summed over the shards.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->lru.size();
    }
    return total;
  }

  /// Drop every cached entry; in-flight computes are unaffected.
  void clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->lru.clear();
      shard->index.clear();
    }
  }

 private:
  using Value = std::shared_ptr<const V>;
  using LruList = std::list<std::pair<K, Value>>;  ///< front = most recent

  struct Shard {
    std::mutex mutex;
    LruList lru;
    std::unordered_map<K, typename LruList::iterator, Hash> index;
    std::unordered_map<K, std::shared_future<Value>, Hash> inflight;
  };

  static void count(const char* name, std::size_t n = 1) {
    if (n > 0 && obs::enabled()) {
      obs::MetricsRegistry::instance().counter(name).add(
          static_cast<std::int64_t>(n));
    }
  }

  std::size_t perShard_ = 0;
  MemoNames names_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nano::util

// Bump-pointer arena allocator for flat-array scratch storage (the STA
// engine's sweep scratch). One Arena owns a chain of geometrically grown
// blocks; allocation is a pointer bump, and reset() rewinds to the start
// of the chain WITHOUT returning memory to the system, so a steady-state
// consumer (rerun an analysis) that stays within the high-water mark
// performs zero heap allocations. growthCount() counts the malloc
// events over the arena's lifetime — the counter the scale smoke test
// asserts stops moving once a workload reaches steady state.
//
// Only trivially copyable/destructible element types are supported: the
// arena never runs destructors (reset and destruction just drop the
// memory), which is exactly right for the index/double arrays it backs.
// Blocks are not zeroed either: allocateArray hands out uninitialized
// memory that its caller must write before it reads, and
// allocateZeroedArray is the one way to get zeros.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace nano::util {

class Arena {
 public:
  /// `firstBlockBytes`: capacity of the first block (rounded up to the
  /// minimum block size); later blocks double until `maxBlockBytes`.
  explicit Arena(std::size_t firstBlockBytes = 1 << 16);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw aligned allocation. Alignment must be a power of two.
  void* allocate(std::size_t bytes, std::size_t alignment);

  /// Typed array allocation, uninitialized (block memory is never
  /// pre-zeroed, not even on a fresh block).
  template <typename T>
  T* allocateArray(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Arena holds trivial types only (no destructors run)");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Typed array allocation, zero-initialized.
  template <typename T>
  T* allocateZeroedArray(std::size_t count);

  /// Rewind to empty, keeping every block for reuse. Allocations after a
  /// reset that fit the existing blocks cost no heap traffic.
  void reset();

  /// Number of fresh-block heap allocations over the arena's lifetime.
  /// Flat between two points in time == zero heap allocations between
  /// them.
  [[nodiscard]] std::int64_t growthCount() const { return growthCount_; }

  /// Bytes handed out since construction / the last reset().
  [[nodiscard]] std::size_t bytesUsed() const { return bytesUsed_; }

  /// Total block capacity owned (the high-water footprint).
  [[nodiscard]] std::size_t bytesReserved() const { return bytesReserved_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  /// Ensure blocks_[cursor_] can take `bytes` more (aligned worst case).
  void ensure(std::size_t bytes);

  std::vector<Block> blocks_;
  std::size_t cursor_ = 0;  ///< block currently being bumped
  std::size_t nextBlockBytes_;
  std::size_t bytesUsed_ = 0;
  std::size_t bytesReserved_ = 0;
  std::int64_t growthCount_ = 0;
};

template <typename T>
T* Arena::allocateZeroedArray(std::size_t count) {
  T* p = allocateArray<T>(count);
  for (std::size_t i = 0; i < count; ++i) p[i] = T{};
  return p;
}

}  // namespace nano::util

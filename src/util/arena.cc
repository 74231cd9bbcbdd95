#include "util/arena.h"

#include <algorithm>
#include <stdexcept>

namespace nano::util {

namespace {
constexpr std::size_t kMinBlockBytes = 4096;
constexpr std::size_t kMaxBlockBytes = std::size_t{64} << 20;  // 64 MiB
}  // namespace

Arena::Arena(std::size_t firstBlockBytes)
    : nextBlockBytes_(std::max(firstBlockBytes, kMinBlockBytes)) {}

void* Arena::allocate(std::size_t bytes, std::size_t alignment) {
  if (alignment == 0 || (alignment & (alignment - 1)) != 0) {
    throw std::invalid_argument("Arena::allocate: alignment not a power of 2");
  }
  if (bytes == 0) bytes = 1;  // distinct non-null result, keeps the math simple
  // Walk forward from the cursor block; most calls fit immediately.
  for (;;) {
    if (cursor_ < blocks_.size()) {
      Block& b = blocks_[cursor_];
      const std::size_t aligned =
          (b.used + alignment - 1) & ~(alignment - 1);
      if (aligned + bytes <= b.capacity) {
        b.used = aligned + bytes;
        bytesUsed_ += bytes;
        return b.data.get() + aligned;
      }
      // Block full for this request: move on (its tail stays unused until
      // the next reset; fine for the large, few-allocation pattern here).
      ++cursor_;
      continue;
    }
    ensure(bytes + alignment);
  }
}

void Arena::ensure(std::size_t bytes) {
  std::size_t cap = std::max(nextBlockBytes_, bytes);
  Block b;
  // Uninitialized on purpose: zero-filling would touch every page of a
  // block the first allocations may use only a fraction of.
  b.data = std::make_unique_for_overwrite<std::byte[]>(cap);
  b.capacity = cap;
  blocks_.push_back(std::move(b));
  bytesReserved_ += cap;
  ++growthCount_;
  nextBlockBytes_ = std::min(cap * 2, kMaxBlockBytes);
  cursor_ = blocks_.size() - 1;
}

void Arena::reset() {
  for (Block& b : blocks_) b.used = 0;
  cursor_ = 0;
  bytesUsed_ = 0;
}

}  // namespace nano::util

#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace nano::util {
namespace {

TEST(ArenaTest, StartsEmpty) {
  Arena a;
  EXPECT_EQ(a.bytesUsed(), 0u);
  EXPECT_EQ(a.bytesReserved(), 0u);
  EXPECT_EQ(a.growthCount(), 0);
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena a;
  auto* d = a.allocateArray<double>(13);
  auto* u8 = a.allocateArray<std::uint8_t>(3);
  auto* u32 = a.allocateArray<std::uint32_t>(7);
  ASSERT_NE(d, nullptr);
  ASSERT_NE(u8, nullptr);
  ASSERT_NE(u32, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u32) % alignof(std::uint32_t), 0u);
  // Write patterns; no overlap means they all read back intact.
  for (int i = 0; i < 13; ++i) d[i] = 1.5 * i;
  for (int i = 0; i < 3; ++i) u8[i] = static_cast<std::uint8_t>(0xA0 + i);
  for (int i = 0; i < 7; ++i) u32[i] = 0xDEAD0000u + static_cast<std::uint32_t>(i);
  for (int i = 0; i < 13; ++i) EXPECT_EQ(d[i], 1.5 * i);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(u8[i], 0xA0 + i);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(u32[i], 0xDEAD0000u + static_cast<std::uint32_t>(i));
  }
}

TEST(ArenaTest, ZeroedArrayIsZero) {
  Arena a;
  auto* z = a.allocateZeroedArray<std::uint64_t>(257);
  for (int i = 0; i < 257; ++i) ASSERT_EQ(z[i], 0u);
}

TEST(ArenaTest, ZeroedArrayIsZeroOnReusedMemory) {
  // Blocks are not pre-zeroed, and reused memory holds the last round's
  // bytes; allocateZeroedArray must still hand back zeros.
  Arena a;
  auto* dirty = a.allocateArray<std::uint64_t>(1024);
  for (int i = 0; i < 1024; ++i) dirty[i] = ~std::uint64_t{0};
  a.reset();
  auto* z = a.allocateZeroedArray<std::uint64_t>(1024);
  EXPECT_EQ(static_cast<void*>(z), static_cast<void*>(dirty));
  for (int i = 0; i < 1024; ++i) ASSERT_EQ(z[i], 0u);
}

TEST(ArenaTest, ResetRewindsWithoutReleasing) {
  Arena a;
  (void)a.allocateArray<double>(10000);
  const std::size_t reserved = a.bytesReserved();
  const std::int64_t growth = a.growthCount();
  EXPECT_GT(reserved, 0u);
  EXPECT_GT(growth, 0);

  a.reset();
  EXPECT_EQ(a.bytesUsed(), 0u);
  EXPECT_EQ(a.bytesReserved(), reserved);  // blocks kept

  // Same-shaped reallocation reuses the kept blocks: zero heap growth.
  (void)a.allocateArray<double>(10000);
  EXPECT_EQ(a.growthCount(), growth);
}

TEST(ArenaTest, SteadyStateLoopNeverGrows) {
  Arena a;
  std::int64_t growthAfterFirst = -1;
  for (int round = 0; round < 50; ++round) {
    a.reset();
    (void)a.allocateArray<std::uint32_t>(1000);
    (void)a.allocateArray<double>(500);
    (void)a.allocateArray<std::uint8_t>(1237);
    if (round == 0) growthAfterFirst = a.growthCount();
  }
  EXPECT_EQ(a.growthCount(), growthAfterFirst);
}

TEST(ArenaTest, GrowsGeometrically) {
  Arena a;
  // ~16 MiB in 4 KiB chunks: block doubling keeps growth events
  // logarithmic, far below the 4096 appends a fixed block size would need.
  for (int i = 0; i < 4096; ++i) (void)a.allocateArray<std::uint8_t>(4096);
  EXPECT_LE(a.growthCount(), 20);
  EXPECT_GE(a.bytesReserved(), a.bytesUsed());
}

TEST(ArenaTest, ZeroCountAllocationIsValid) {
  Arena a;
  auto* p = a.allocateArray<double>(0);
  EXPECT_NE(p, nullptr);
}

}  // namespace
}  // namespace nano::util

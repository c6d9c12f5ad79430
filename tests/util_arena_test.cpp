#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace spr {
namespace {

TEST(Arena, AllocationsAreDisjointAndAligned) {
  Arena arena(128);
  char* a = static_cast<char*>(arena.allocate(10, 1));
  char* b = static_cast<char*>(arena.allocate(10, 1));
  EXPECT_NE(a, b);
  std::memset(a, 0xAA, 10);
  std::memset(b, 0xBB, 10);
  EXPECT_EQ(static_cast<unsigned char>(a[9]), 0xAA);  // no overlap

  void* d = arena.allocate(1, 1);
  void* aligned = arena.allocate(8, 64);
  EXPECT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(aligned) % 64, 0u);
  EXPECT_GE(arena.bytes_allocated(), 29u);
}

TEST(Arena, GrowsBeyondTheFirstBlock) {
  Arena arena(64);
  // Far more than the first block; every allocation must still succeed
  // and be writable.
  for (int i = 0; i < 100; ++i) {
    void* p = arena.allocate(100, 8);
    std::memset(p, i, 100);
  }
  EXPECT_GE(arena.capacity(), 100u * 100u);
}

TEST(Arena, ResetKeepsTheHighWaterBlock) {
  Arena arena(64);
  for (int i = 0; i < 50; ++i) arena.allocate(200, 8);
  std::size_t grown = arena.capacity();
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  std::size_t kept = arena.capacity();
  EXPECT_GT(kept, 0u);
  EXPECT_LE(kept, grown);
  // A second identical pass must fit the kept block: capacity is stable.
  for (int i = 0; i < 50; ++i) arena.allocate(200, 8);
  EXPECT_EQ(arena.capacity(), kept);
}

TEST(Arena, VectorGrowsThroughTheArena) {
  Arena arena;
  ArenaVector<int> v{ArenaAllocator<int>(arena)};
  for (int i = 0; i < 10000; ++i) v.push_back(i);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(v[i], i);
  EXPECT_GE(arena.bytes_allocated(), 10000u * sizeof(int));
}

}  // namespace
}  // namespace spr

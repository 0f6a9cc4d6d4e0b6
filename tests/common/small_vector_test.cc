#include "common/small_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

namespace csfc {
namespace {

// The priority-vector shape: 12 inline slots and a one-byte count.
using Vec12 = SmallVector<uint32_t, 12>;

static_assert(std::is_trivially_copyable_v<Vec12>);
static_assert(sizeof(Vec12) == 12 * sizeof(uint32_t) + sizeof(uint32_t),
              "12 slots plus the count, padded to the element alignment");

Vec12 Full() {
  Vec12 v;
  for (uint32_t i = 0; i < 12; ++i) v.push_back(i + 1);
  return v;
}

TEST(SmallVectorTest, StartsEmpty) {
  Vec12 v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
}

TEST(SmallVectorTest, PushWithinInlineCapacity) {
  Vec12 v;
  for (uint32_t i = 0; i < 12; ++i) v.push_back(i * 10);
  EXPECT_EQ(v.size(), 12u);
  for (uint32_t i = 0; i < 12; ++i) EXPECT_EQ(v[i], i * 10);
}

TEST(SmallVectorTest, InitializerList) {
  Vec12 v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_EQ(v.size(), 12u);
  EXPECT_EQ(v[11], 12u);
}

TEST(SmallVectorTest, CountValueConstructor) {
  Vec12 v(12, 9u);
  EXPECT_EQ(v.size(), 12u);
  for (size_t i = 0; i < 12; ++i) EXPECT_EQ(v[i], 9u);
}

TEST(SmallVectorTest, PopBackAcrossBoundary) {
  Vec12 v = Full();
  v.pop_back();  // leaves the full state
  v.pop_back();
  v.pop_back();
  EXPECT_EQ(v.size(), 9u);
  EXPECT_EQ(v.back(), 9u);
  v.push_back(40);  // a popped slot is reusable
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.back(), 40u);
}

TEST(SmallVectorTest, ResizeGrowsWithFill) {
  Vec12 v{1};
  v.resize(12, 42u);
  EXPECT_EQ(v.size(), 12u);
  EXPECT_EQ(v[0], 1u);
  for (size_t i = 1; i < 12; ++i) EXPECT_EQ(v[i], 42u);
}

TEST(SmallVectorTest, ResizeShrinks) {
  Vec12 v = Full();
  v.resize(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2u);
  v.resize(4);  // regrowing fills with T(), not the stale values
  EXPECT_EQ(v[2], 0u);
  EXPECT_EQ(v[3], 0u);
}

TEST(SmallVectorTest, CopyPreservesContents) {
  Vec12 a = Full();
  Vec12 b(a);
  EXPECT_EQ(a, b);
  b.pop_back();
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.size(), 12u);  // the copy owns its own slots
  EXPECT_EQ(a.back(), 12u);
}

TEST(SmallVectorTest, AssignmentReplacesContents) {
  Vec12 a{1, 2};
  const Vec12 b = Full();
  a = b;
  EXPECT_EQ(a, b);
}

TEST(SmallVectorTest, SelfAssignmentIsNoop) {
  Vec12 a{1, 2, 3};
  a = *&a;
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2], 3u);
}

TEST(SmallVectorTest, IterationCoversInlineAndHeap) {
  // Every slot up to the capacity is iterated, and nothing past size().
  Vec12 v = Full();
  uint32_t sum = 0;
  for (uint32_t x : v) sum += x;
  EXPECT_EQ(sum, 78u);
  v.resize(5);
  sum = 0;
  for (uint32_t x : v) sum += x;
  EXPECT_EQ(sum, 15u);
}

TEST(SmallVectorTest, MutableIteration) {
  Vec12 v = Full();
  for (auto it = v.begin(); it != v.end(); ++it) *it += 1;
  EXPECT_EQ(v[0], 2u);
  EXPECT_EQ(v[11], 13u);
}

TEST(SmallVectorTest, ClearResets) {
  Vec12 v = Full();
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  EXPECT_EQ(v[0], 1u);
}

TEST(SmallVectorTest, EqualityChecksSizeFirst) {
  Vec12 a{1, 2, 3};
  Vec12 b{1, 2};
  EXPECT_FALSE(a == b);
  b.push_back(3);
  EXPECT_TRUE(a == b);
}

// Overflow aborts in every build (not only where asserts are on):
// dropping a priority level would silently change scheduling results.
TEST(SmallVectorDeathTest, PushPastCapacityAborts) {
  Vec12 v = Full();
  EXPECT_DEATH(v.push_back(13), "more than 12 elements");
}

TEST(SmallVectorDeathTest, ResizePastCapacityAborts) {
  Vec12 v;
  EXPECT_DEATH(v.resize(13), "more than 12 elements");
}

}  // namespace
}  // namespace csfc

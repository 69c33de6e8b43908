// Tests for the bucket priority structures (MinBucketQueue,
// EpochBucketList).

#include <gtest/gtest.h>

#include <queue>

#include "core/bucket_list.h"
#include "util/bucket_queue.h"
#include "util/rng.h"

namespace locs {
namespace {

TEST(MinBucketQueueTest, PopsInKeyOrder) {
  MinBucketQueue queue({3, 1, 4, 1, 5, 9, 2, 6});
  uint32_t prev = 0;
  while (!queue.Empty()) {
    const uint32_t key = queue.MinKey();
    EXPECT_GE(key, prev);
    prev = key;
    queue.PopMin();
  }
}

TEST(MinBucketQueueTest, DecrementMovesElementEarlier) {
  MinBucketQueue queue({5, 5, 5, 0});
  EXPECT_EQ(queue.PopMin(), 3u);  // the key-0 element
  queue.DecrementKey(1);
  queue.DecrementKey(1);
  EXPECT_EQ(queue.Key(1), 3u);
  EXPECT_EQ(queue.PopMin(), 1u);
}

TEST(MinBucketQueueTest, PoppedFlag) {
  MinBucketQueue queue({1, 2});
  EXPECT_FALSE(queue.Popped(0));
  EXPECT_EQ(queue.PopMin(), 0u);
  EXPECT_TRUE(queue.Popped(0));
  EXPECT_FALSE(queue.Popped(1));
}

TEST(MinBucketQueueTest, StressAgainstHeap) {
  Rng rng(31);
  std::vector<uint32_t> keys(200);
  for (auto& k : keys) k = static_cast<uint32_t>(rng.Below(50));
  MinBucketQueue queue(keys);
  // Interleave decrements and pops; mirror with a recomputed reference.
  std::vector<uint32_t> live = keys;
  std::vector<bool> popped(keys.size(), false);
  for (int round = 0; round < 300; ++round) {
    if (rng.Chance(0.5) && !queue.Empty()) {
      const uint32_t min_key = queue.MinKey();
      uint32_t expect = ~0u;
      for (size_t i = 0; i < live.size(); ++i) {
        if (!popped[i]) expect = std::min(expect, live[i]);
      }
      EXPECT_EQ(min_key, expect);
      const uint32_t v = queue.PopMin();
      EXPECT_EQ(live[v], expect);
      popped[v] = true;
    } else {
      // Pick a random unpopped element with positive key to decrement.
      for (int tries = 0; tries < 20; ++tries) {
        const auto v = static_cast<uint32_t>(rng.Below(keys.size()));
        if (!popped[v] && live[v] > 0 && live[v] > queue.MinKey()) {
          queue.DecrementKey(v);
          --live[v];
          break;
        }
      }
    }
  }
}

TEST(EpochBucketListTest, FifoWithinBucket) {
  EpochBucketList list(8, 8);
  list.Insert(3, 1);
  list.Insert(5, 1);
  list.Insert(1, 1);
  EXPECT_EQ(list.PopMax(), 3u);  // first inserted pops first
  EXPECT_EQ(list.PopMax(), 5u);
  EXPECT_EQ(list.PopMax(), 1u);
}

TEST(EpochBucketListTest, NewEpochResetsInO1) {
  EpochBucketList list(8, 8);
  list.Insert(0, 4);
  list.Insert(1, 2);
  list.NewEpoch();
  EXPECT_TRUE(list.Empty());
  EXPECT_FALSE(list.Contains(0));
  list.Insert(0, 1);
  EXPECT_EQ(list.PopMax(), 0u);
  EXPECT_TRUE(list.Empty());
}

TEST(EpochBucketListTest, MinAndMaxTracking) {
  EpochBucketList list(10, 16);
  list.Insert(0, 5);
  list.Insert(1, 2);
  list.Insert(2, 9);
  EXPECT_EQ(list.MinKey(), 2u);
  EXPECT_EQ(list.MaxKey(), 9u);
  list.Erase(1);
  EXPECT_EQ(list.MinKey(), 5u);
  list.Increment(0);
  EXPECT_EQ(list.Key(0), 6u);
  EXPECT_EQ(list.PopMax(), 2u);
  EXPECT_EQ(list.PopMax(), 0u);
}

TEST(EpochBucketListTest, BucketIterationViaHeadNext) {
  EpochBucketList list(8, 4);
  list.Insert(2, 3);
  list.Insert(4, 3);
  list.Insert(6, 3);
  std::vector<uint32_t> seen;
  for (uint32_t v = list.Head(3); v != EpochBucketList::kNil;
       v = list.Next(v)) {
    seen.push_back(v);
  }
  EXPECT_EQ(seen, (std::vector<uint32_t>{2, 4, 6}));
}

TEST(EpochBucketListTest, ReinsertAfterErase) {
  EpochBucketList list(4, 4);
  list.Insert(1, 2);
  list.Erase(1);
  EXPECT_FALSE(list.Contains(1));
  list.Insert(1, 3);
  EXPECT_TRUE(list.Contains(1));
  EXPECT_EQ(list.Key(1), 3u);
}

TEST(EpochBucketListTest, StressAgainstMultiset) {
  Rng rng(41);
  constexpr uint32_t kCap = 64;
  constexpr uint32_t kMaxKey = 32;
  EpochBucketList list(kCap, kMaxKey);
  std::vector<int> key(kCap, -1);  // -1 = absent
  for (int round = 0; round < 5000; ++round) {
    const auto v = static_cast<uint32_t>(rng.Below(kCap));
    const double dice = rng.NextDouble();
    if (dice < 0.35 && key[v] < 0) {
      const auto k = static_cast<uint32_t>(rng.Below(kMaxKey - 1));
      list.Insert(v, k);
      key[v] = static_cast<int>(k);
    } else if (dice < 0.55 && key[v] >= 0 &&
               key[v] + 1 < static_cast<int>(kMaxKey)) {
      list.Increment(v);
      ++key[v];
    } else if (dice < 0.7 && key[v] >= 0) {
      list.Erase(v);
      key[v] = -1;
    } else if (!list.Empty()) {
      int expect_max = -1;
      for (int k : key) expect_max = std::max(expect_max, k);
      EXPECT_EQ(static_cast<int>(list.MaxKey()), expect_max);
      const uint32_t popped = list.PopMax();
      EXPECT_EQ(key[popped], expect_max);
      key[popped] = -1;
    }
    // Size invariant.
    uint32_t present = 0;
    for (int k : key) present += k >= 0;
    ASSERT_EQ(list.Size(), present);
  }
}

}  // namespace
}  // namespace locs

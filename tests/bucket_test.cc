// Tests for the bucket priority structures (MinBucketQueue,
// LazyBucketQueue).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/lazy_bucket_queue.h"
#include "util/bucket_queue.h"
#include "util/rng.h"

namespace locs {

/// Test-only access to the epoch counters, so a test can reach the wrap
/// without running ~4G epochs.
class EpochTestPeer {
 public:
  static void SetEpoch(LazyBucketQueue& queue, uint32_t epoch) {
    queue.epoch_ = epoch;
  }
};

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

TEST(LazyBucketQueueTest, FifoWithinKeyAndMaxFirst) {
  LazyBucketQueue queue(8, 4, 16);
  queue.NewEpoch();
  const auto admit = [] { return true; };
  EXPECT_TRUE(queue.IncrementOrInsert(3, admit));   // key 1
  EXPECT_TRUE(queue.IncrementOrInsert(5, admit));   // key 1
  EXPECT_TRUE(queue.IncrementOrInsert(1, admit));   // key 1
  EXPECT_FALSE(queue.IncrementOrInsert(5, admit));  // key 2, a stale record
  EXPECT_FALSE(queue.IncrementOrInsert(3, admit));  // key 2, behind 5
  EXPECT_EQ(queue.Size(), 3u);
  EXPECT_EQ(queue.PopMax(), 5u);
  EXPECT_EQ(queue.PopMax(), 3u);
  EXPECT_EQ(queue.PopMax(), 1u);  // the stale key-1 records are skipped
  EXPECT_TRUE(queue.Empty());
  // Popped and tombstoned vertices are never admitted again this epoch,
  // and a refused vertex stays unseen.
  queue.Tombstone(6);
  EXPECT_FALSE(queue.IncrementOrInsert(6, admit));
  EXPECT_FALSE(queue.IncrementOrInsert(3, admit));
  EXPECT_FALSE(queue.IncrementOrInsert(2, [] { return false; }));
  EXPECT_TRUE(queue.IncrementOrInsert(2, admit));
  EXPECT_EQ(queue.PopMax(), 2u);
  EXPECT_TRUE(queue.Empty());
  queue.NewEpoch();
  EXPECT_TRUE(queue.IncrementOrInsert(6, admit));
  EXPECT_EQ(queue.PopMax(), 6u);
}

TEST(LazyBucketQueueTest, NewEpochResetsInO1) {
  LazyBucketQueue queue(8, 8, 16);
  queue.NewEpoch();
  queue.Insert(0, 4);
  queue.Insert(1, 2);
  queue.NewEpoch();
  EXPECT_TRUE(queue.Empty());
  queue.Insert(0, 0);  // unseen again; key 0 first, like lg's first seed
  queue.Insert(2, 1);
  EXPECT_EQ(queue.MinElement(), 0u);
  EXPECT_EQ(queue.PopMax(), 2u);
  EXPECT_EQ(queue.PopMax(), 0u);
  EXPECT_TRUE(queue.Empty());
}

TEST(LazyBucketQueueTest, MinAndMaxTracking) {
  LazyBucketQueue queue(10, 16, 16);
  queue.NewEpoch();
  queue.Insert(0, 5);
  queue.Insert(1, 2);
  queue.Insert(2, 9);
  EXPECT_EQ(queue.MinElement(), 1u);
  queue.Tombstone(1);
  EXPECT_EQ(queue.MinElement(), 0u);
  queue.IncrementIfPresent(1);  // tombstoned: no effect
  queue.IncrementIfPresent(3);  // unseen: no effect
  queue.Insert(3, 6);
  queue.IncrementIfPresent(0);  // key 6, behind 3
  EXPECT_EQ(queue.MinElement(), 3u);
  queue.Insert(4, 0);  // the min cursor moves back down
  EXPECT_EQ(queue.MinElement(), 4u);
  EXPECT_EQ(queue.Size(), 4u);
  EXPECT_EQ(queue.PopMax(), 2u);
  EXPECT_EQ(queue.PopMax(), 3u);
  EXPECT_EQ(queue.PopMax(), 0u);
  EXPECT_EQ(queue.MinElement(), 4u);
  EXPECT_EQ(queue.PopMax(), 4u);
  EXPECT_TRUE(queue.Empty());
}

// The min side of Figure 5's lists: vertices inserted at one key leave it
// in insertion order, seen from MinElement and from PopMax alike.
TEST(LazyBucketQueueTest, FifoWithinBucket) {
  LazyBucketQueue queue(8, 8, 16);
  queue.NewEpoch();
  queue.Insert(3, 1);
  queue.Insert(5, 1);
  queue.Insert(1, 1);
  EXPECT_EQ(queue.MinElement(), 3u);  // first inserted comes first
  EXPECT_EQ(queue.PopMax(), 3u);
  EXPECT_EQ(queue.MinElement(), 5u);
  EXPECT_EQ(queue.PopMax(), 5u);
  EXPECT_EQ(queue.MinElement(), 1u);
  EXPECT_EQ(queue.PopMax(), 1u);
  EXPECT_TRUE(queue.Empty());
}

// Keys alone, against a plain per-vertex key table: whatever PopMax
// returns holds the maximal key, MinElement's vertex the minimal one, and
// Size counts the present vertices.
TEST(LazyBucketQueueTest, StressAgainstMultiset) {
  Rng rng(41);
  constexpr uint32_t kCap = 64;
  constexpr uint32_t kMaxKey = 32;
  LazyBucketQueue queue(kCap, kMaxKey, 6000);
  queue.NewEpoch();
  std::vector<int> key(kCap, -1);  // -1 = unseen, -2 = popped or tombstoned
  uint64_t pops = 0;
  int epochs = 1;
  for (int round = 0; round < 5000; ++round) {
    const auto v = static_cast<uint32_t>(rng.Below(kCap));
    const double dice = rng.NextDouble();
    if (dice < 0.35 && key[v] == -1) {
      const auto k = static_cast<uint32_t>(rng.Below(kMaxKey - 1));
      queue.Insert(v, k);
      key[v] = static_cast<int>(k);
    } else if (dice < 0.55 && key[v] + 1 < static_cast<int>(kMaxKey)) {
      queue.IncrementIfPresent(v);
      if (key[v] >= 0) ++key[v];
    } else if (dice < 0.65 && key[v] >= 0) {
      queue.Tombstone(v);
      key[v] = -2;
    } else if (!queue.Empty()) {
      int expect_max = -1;
      int expect_min = static_cast<int>(kMaxKey) + 1;
      for (int k : key) {
        if (k < 0) continue;
        expect_max = std::max(expect_max, k);
        expect_min = std::min(expect_min, k);
      }
      EXPECT_EQ(key[queue.MinElement()], expect_min);
      const uint32_t popped = queue.PopMax();
      EXPECT_EQ(key[popped], expect_max);
      key[popped] = -2;
      ++pops;
    }
    uint32_t present = 0;
    for (int k : key) present += k >= 0;
    ASSERT_EQ(queue.Size(), present);
    // Every vertex has been popped or tombstoned: open a new epoch.
    if (std::count(key.begin(), key.end(), -1) == 0 && queue.Empty()) {
      queue.NewEpoch();
      key.assign(kCap, -1);
      ++epochs;
    }
  }
  EXPECT_GT(pops, 300u);
  EXPECT_GT(epochs, 3);
}

/// Figure 5's order written down: a present vertex holds its key and the
/// time it reached that key. PopMax takes the maximal key and MinElement
/// the minimal one, each the earliest arrival at that key.
class NaiveBuckets {
 public:
  explicit NaiveBuckets(uint32_t capacity) : cells_(capacity) {}

  bool Unseen(uint32_t v) const { return cells_[v].state == kUnseen; }
  bool Present(uint32_t v) const { return cells_[v].state == kPresent; }
  uint32_t Key(uint32_t v) const { return cells_[v].key; }
  uint32_t Size() const { return size_; }
  void Insert(uint32_t v, uint32_t key) {
    cells_[v] = {kPresent, key, ++clock_};
    ++size_;
  }
  void IncrementIfPresent(uint32_t v) {
    if (Present(v)) cells_[v] = {kPresent, Key(v) + 1, ++clock_};
  }
  void Tombstone(uint32_t v) {
    size_ -= Present(v) ? 1 : 0;
    cells_[v].state = kBarred;
  }
  uint32_t PopMax() {
    const uint32_t v = Select(true);
    Tombstone(v);
    return v;
  }
  uint32_t MinElement() const { return Select(false); }

 private:
  enum State { kUnseen, kPresent, kBarred };
  struct Cell {
    State state = kUnseen;
    uint32_t key = 0;
    uint64_t arrival = 0;
  };

  uint32_t Select(bool max) const {
    uint32_t best = ~uint32_t{0};
    for (uint32_t v = 0; v < cells_.size(); ++v) {
      if (!Present(v)) continue;
      const Cell& c = cells_[v];
      if (best == ~uint32_t{0} ||
          (max ? c.key > Key(best) : c.key < Key(best)) ||
          (c.key == Key(best) && c.arrival < cells_[best].arrival)) {
        best = v;
      }
    }
    return best;
  }

  std::vector<Cell> cells_;
  uint32_t size_ = 0;
  uint64_t clock_ = 0;
};

// Random streams of every operation drive the queue and the naive model
// side by side over many epochs on one instance, across the 32-bit epoch
// wrap: IncrementOrInsert (with admission refusals), Insert at keys from 0
// up, IncrementIfPresent, Tombstone, PopMax and MinElement.
TEST(LazyBucketQueueTest, MatchesNaiveFigure5Order) {
  constexpr uint32_t kCap = 256;
  constexpr uint32_t kMaxKey = 48;
  // Every step appends at most one record.
  LazyBucketQueue queue(kCap, kMaxKey, 4000);
  EpochTestPeer::SetEpoch(queue, UINT32_MAX - 3);
  Rng rng(2014);
  uint64_t pops = 0;
  uint64_t mins = 0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    queue.NewEpoch();
    NaiveBuckets model(kCap);
    if (epoch % 2 == 0) {  // open at key 0, as lg does
      queue.Insert(epoch, 0);
      model.Insert(epoch, 0);
    }
    const int steps = 200 + static_cast<int>(rng.Below(3000));
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("epoch " + std::to_string(epoch) + " step " +
                   std::to_string(step));
      const auto v = static_cast<uint32_t>(rng.Below(kCap));
      const double dice = rng.NextDouble();
      if (model.Present(v) && model.Key(v) == kMaxKey && dice < 0.6) continue;
      if (dice < 0.35) {
        const bool admit = rng.Chance(0.8);
        int asked = 0;
        const bool inserted = queue.IncrementOrInsert(v, [&] {
          ++asked;
          return admit;
        });
        ASSERT_EQ(asked, model.Unseen(v) ? 1 : 0);
        ASSERT_EQ(inserted, model.Unseen(v) && admit);
        if (inserted) {
          model.Insert(v, 1);
        } else {
          model.IncrementIfPresent(v);
        }
      } else if (dice < 0.45) {
        if (!model.Unseen(v)) continue;
        const auto key = static_cast<uint32_t>(rng.Below(kMaxKey / 2));
        queue.Insert(v, key);
        model.Insert(v, key);
      } else if (dice < 0.6) {
        queue.IncrementIfPresent(v);
        model.IncrementIfPresent(v);
      } else if (dice < 0.67) {
        queue.Tombstone(v);
        model.Tombstone(v);
      } else if (model.Size() == 0) {
        continue;
      } else if (dice < 0.85) {
        ASSERT_EQ(queue.PopMax(), model.PopMax());
        ++pops;
      } else {
        ASSERT_EQ(queue.MinElement(), model.MinElement());
        ++mins;
      }
      ASSERT_EQ(queue.Size(), model.Size());
      ASSERT_EQ(queue.Empty(), model.Size() == 0);
    }
    // Drain: the rest of both orders agrees too.
    while (model.Size() > 0) {
      ASSERT_EQ(queue.MinElement(), model.MinElement()) << "epoch " << epoch;
      ASSERT_EQ(queue.PopMax(), model.PopMax()) << "epoch " << epoch;
      ++pops;
    }
    ASSERT_TRUE(queue.Empty());
  }
  EXPECT_GT(pops, 5000u);
  EXPECT_GT(mins, 2000u);
}

}  // namespace
}  // namespace locs

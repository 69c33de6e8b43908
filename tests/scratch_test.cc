// Tests for the solvers' scratch storage: ZeroPageArray (residency,
// ownership, failure and bounds) and the epoch wrap of the three epoch
// types built on it (EpochFlags, EpochU32Array, LazyBucketQueue).

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "core/epoch.h"
#include "core/lazy_bucket_queue.h"
#include "util/zero_page_array.h"

namespace locs {

/// Test-only access to the epoch counters, so a test can reach the wrap
/// without running ~4G epochs, and to the arrays behind them.
class EpochTestPeer {
 public:
  static void SetEpoch(EpochFlags& flags, uint32_t epoch) {
    flags.epoch_ = epoch;
  }
  static void SetEpoch(EpochU32Array& array, uint32_t epoch) {
    array.epoch_ = epoch;
  }
  static void SetEpoch(LazyBucketQueue& queue, uint32_t epoch) {
    queue.epoch_ = epoch;
  }
  static const ZeroPageArray<uint32_t>& Stamps(const EpochFlags& flags) {
    return flags.stamp_;
  }
  static const ZeroPageArray<uint64_t>& Cells(const EpochU32Array& array) {
    return array.cell_;
  }
  static const ZeroPageArray<uint64_t>& Keys(const LazyBucketQueue& queue) {
    return queue.key_;
  }
};

namespace {

size_t PageSize() { return static_cast<size_t>(::sysconf(_SC_PAGESIZE)); }

/// Pages of `array`'s data that mincore reports resident.
template <typename T>
size_t ResidentPages(const ZeroPageArray<T>& array) {
  const size_t page = PageSize();
  const size_t pages = (array.size() * sizeof(T) + page - 1) / page;
  std::vector<unsigned char> vec(pages);
  EXPECT_EQ(::mincore(const_cast<T*>(array.data()), pages * page, vec.data()),
            0);
  size_t resident = 0;
  for (const unsigned char bit : vec) resident += bit & 1u;
  return resident;
}

/// True while `address` lies inside some mapping of this process.
bool IsMapped(const void* address) {
  unsigned char bit = 0;
  const auto page_mask = ~static_cast<uintptr_t>(PageSize() - 1);
  void* page = reinterpret_cast<void*>(
      reinterpret_cast<uintptr_t>(address) & page_mask);
  if (::mincore(page, 1, &bit) == 0) return true;
  EXPECT_EQ(errno, ENOMEM);
  return false;
}

TEST(ZeroPageArrayTest, ContentsAreZeroAfterConstruction) {
  const ZeroPageArray<uint64_t> array(10000);
  ASSERT_EQ(array.size(), 10000u);
  for (size_t i = 0; i < array.size(); ++i) EXPECT_EQ(array[i], 0u) << i;
}

TEST(ZeroPageArrayTest, OnlyWrittenPagesBecomeResident) {
  // Four pages of data: too small for a transparent huge page.
  ZeroPageArray<uint32_t> array(4 * PageSize() / sizeof(uint32_t));
  EXPECT_EQ(ResidentPages(array), 0u);
  array[array.size() / 2] = 42;
  EXPECT_EQ(ResidentPages(array), 1u);
  EXPECT_EQ(array[array.size() / 2], 42u);
}

TEST(ZeroPageArrayTest, LargeArraysSitOnAlignedHugePages) {
  constexpr size_t kHugePage = size_t{2} << 20;
  // 1.6 MB: a per-vertex uint64 array of a 200,000-vertex graph.
  ZeroPageArray<uint64_t> array(200000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(array.data()) % kHugePage, 0u);
  EXPECT_EQ(ResidentPages(array), 0u);
  array[123456] = 7;
  // One fault: one small page where THP is off, else a huge page, which
  // here covers the whole array.
  const size_t array_pages = (array.size() * sizeof(uint64_t) +
                              PageSize() - 1) / PageSize();
  const size_t resident = ResidentPages(array);
  EXPECT_TRUE(resident == 1 || resident == array_pages) << resident;
  EXPECT_EQ(array[123456], 7u);
  EXPECT_EQ(array[0], 0u);
  EXPECT_EQ(array[array.size() - 1], 0u);
}

TEST(ZeroPageArrayTest, ZeroReturnsThePagesWithoutTouchingThem) {
  ZeroPageArray<uint32_t> array(4 * PageSize() / sizeof(uint32_t));
  array[0] = 1;
  array[array.size() - 1] = 2;
  ASSERT_EQ(ResidentPages(array), 2u);
  array.Zero();
  EXPECT_EQ(ResidentPages(array), 0u);
  EXPECT_EQ(array[0], 0u);
  EXPECT_EQ(array[array.size() - 1], 0u);
}

TEST(ZeroPageArrayTest, MoveLeavesTheSourceEmptyAndUnmapsOnce) {
  const uint32_t* mapping = nullptr;
  {
    ZeroPageArray<uint32_t> target;
    {
      ZeroPageArray<uint32_t> source(100);
      source[7] = 7;
      mapping = source.data();
      target = std::move(source);
      EXPECT_EQ(source.data(), nullptr);  // NOLINT(bugprone-use-after-move)
      EXPECT_EQ(source.size(), 0u);       // NOLINT(bugprone-use-after-move)
    }
    // The moved-from source's destructor left the mapping alone.
    EXPECT_EQ(target.data(), mapping);
    EXPECT_EQ(target.size(), 100u);
    EXPECT_TRUE(IsMapped(mapping));
    EXPECT_EQ(target[7], 7u);

    ZeroPageArray<uint32_t> constructed(std::move(target));
    EXPECT_EQ(target.data(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(constructed.data(), mapping);
    EXPECT_EQ(constructed[7], 7u);
  }
  EXPECT_FALSE(IsMapped(mapping));
}

TEST(ZeroPageArrayTest, MoveAssignmentUnmapsTheOldMapping) {
  ZeroPageArray<uint32_t> array(100);
  const uint32_t* old_mapping = array.data();
  array = ZeroPageArray<uint32_t>(200);
  EXPECT_EQ(array.size(), 200u);
  EXPECT_FALSE(IsMapped(old_mapping));
}

TEST(ZeroPageArrayTest, SizeZeroMapsNothing) {
  ZeroPageArray<uint64_t> empty(0);
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.size(), 0u);
  empty.Zero();  // a no-op, not a madvise on nullptr
  const ZeroPageArray<uint64_t> defaulted;
  EXPECT_EQ(defaulted.data(), nullptr);
}

TEST(ZeroPageArrayTest, FailedMappingThrowsBadAlloc) {
  // 2^61 bytes is beyond any x86-64 or AArch64 user address space.
  EXPECT_THROW(ZeroPageArray<uint64_t>(size_t{1} << 58), std::bad_alloc);
  // A byte count that would overflow is refused before the kernel sees it.
  EXPECT_THROW(ZeroPageArray<uint64_t>(SIZE_MAX / 4), std::bad_alloc);
}

TEST(ZeroPageArrayDeathTest, WritePastThePageRoundedEndDies) {
  ZeroPageArray<uint32_t> array(10);
  // The first element of the guard page that ends every mapping.
  volatile uint32_t* past = array.data() + PageSize() / sizeof(uint32_t);
  EXPECT_DEATH(*past = 1, "");
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ZeroPageArrayDeathTest, AsanCatchesTheSlackBeforeThePageEnd) {
  ZeroPageArray<uint32_t> array(10);
  volatile uint32_t* slack = array.data() + array.size();
  EXPECT_DEATH(*slack = 1, "use-after-poison");
}
#endif

// --- epoch wrap ----------------------------------------------------------

// Enough entries to span several pages, so a wrap that filled the arrays
// would show up as resident pages.
constexpr uint32_t kWrapEntries = 20000;

TEST(EpochWrapTest, EpochFlagsWrapClearsEveryStamp) {
  EpochFlags flags(kWrapEntries);
  flags.Set(7);  // stamped with epoch 1, which the wrap brings back
  EpochTestPeer::SetEpoch(flags, UINT32_MAX);
  flags.Set(9);
  flags.Set(kWrapEntries - 1);
  ASSERT_TRUE(flags.Test(9));
  flags.NewEpoch();
  EXPECT_EQ(ResidentPages(EpochTestPeer::Stamps(flags)), 0u);
  for (uint32_t i = 0; i < kWrapEntries; ++i) EXPECT_FALSE(flags.Test(i)) << i;
  EXPECT_TRUE(flags.TestAndSet(7));
  EXPECT_FALSE(flags.TestAndSet(7));
  flags.Set(kWrapEntries - 1);
  EXPECT_TRUE(flags.Test(kWrapEntries - 1));
  EXPECT_FALSE(flags.Test(9));
}

TEST(EpochWrapTest, EpochU32ArrayWrapReadsZero) {
  EpochU32Array array(kWrapEntries);
  array.Set(7, 70);  // epoch 1
  EpochTestPeer::SetEpoch(array, UINT32_MAX);
  array.Set(9, 90);
  array.Set(kWrapEntries - 1, 5);
  ASSERT_EQ(array.Get(9), 90u);
  array.NewEpoch();
  EXPECT_EQ(ResidentPages(EpochTestPeer::Cells(array)), 0u);
  for (uint32_t i = 0; i < kWrapEntries; ++i) {
    EXPECT_FALSE(array.Fresh(i)) << i;
    EXPECT_EQ(array.Get(i), 0u) << i;
  }
  array.Set(7, 3);
  EXPECT_TRUE(array.Fresh(7));
  EXPECT_EQ(array.Get(7), 3u);
  EXPECT_EQ(array.Get(9), 0u);
}

TEST(EpochWrapTest, LazyBucketQueueWrapEmptiesEveryKey) {
  constexpr uint32_t kMaxKey = 8;
  LazyBucketQueue queue(kWrapEntries, kMaxKey, 64);
  queue.Insert(7, 2);  // epoch 1, which the wrap brings back
  queue.Insert(8, 5);
  queue.Tombstone(8);  // a tombstone stamped 1
  queue.NewEpoch();
  EpochTestPeer::SetEpoch(queue, UINT32_MAX);
  queue.Insert(9, 3);
  queue.Insert(kWrapEntries - 1, 3);
  ASSERT_EQ(queue.PopMax(), 9u);
  queue.NewEpoch();
  EXPECT_EQ(ResidentPages(EpochTestPeer::Keys(queue)), 0u);
  EXPECT_TRUE(queue.Empty());
  // Every vertex is unseen again: each one is admitted, even those
  // popped or tombstoned before the wrap, and keys of the old epochs do
  // not leak into the new one.
  for (uint32_t v = 0; v < kWrapEntries; ++v) {
    int asked = 0;
    EXPECT_FALSE(queue.IncrementOrInsert(v, [&] {
      ++asked;
      return false;
    }));
    EXPECT_EQ(asked, 1) << v;
  }
  EXPECT_TRUE(queue.Empty());
  // Inserts work again, FIFO within a key.
  queue.Insert(8, 2);
  queue.Insert(7, 2);
  queue.Insert(kWrapEntries - 1, 6);
  queue.IncrementIfPresent(7);
  EXPECT_EQ(queue.Size(), 3u);
  EXPECT_EQ(queue.MinElement(), 8u);
  EXPECT_EQ(queue.PopMax(), kWrapEntries - 1);
  EXPECT_EQ(queue.PopMax(), 7u);
  EXPECT_EQ(queue.PopMax(), 8u);
  EXPECT_TRUE(queue.Empty());
}

}  // namespace
}  // namespace locs

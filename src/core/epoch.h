// Epoch-stamped per-vertex scratch arrays.
//
// Local search must not pay O(|V|) per query (that would erase its whole
// advantage over global search), so per-vertex scratch state is validated
// by an epoch stamp instead of being cleared: bumping the epoch invalidates
// every entry in O(1).
//
// It must not pay O(|V|) per bind either. The cells live on a
// ZeroPageArray (util/zero_page_array.h), so they start as zero bytes
// without a fill, and since live epochs start at 1 a zero cell is already
// stale. Construction is O(1), and only the pages a query writes become
// resident. The rare epoch wrap re-zeroes the cells by handing the pages
// back to the kernel, which again touches none of them.

#ifndef LOCS_CORE_EPOCH_H_
#define LOCS_CORE_EPOCH_H_

#include <cstdint>

#include "util/check.h"
#include "util/prefetch.h"
#include "util/zero_page_array.h"

namespace locs {

class EpochTestPeer;

/// Stamp-only membership set: an index is "set" iff its stamp equals the
/// current epoch, so there is no separate value byte to touch. One aligned
/// 4-byte load per test and one store per set, a single cache line per 16
/// vertices.
class EpochFlags {
 public:
  explicit EpochFlags(size_t capacity) : stamp_(capacity) {}

  /// Invalidates all entries in O(1) (amortized: the 32-bit epoch wraps
  /// once per ~4G queries and then re-zeroes the stamps' pages).
  void NewEpoch() {
    if (++epoch_ == 0) {
      stamp_.Zero();
      epoch_ = 1;
    }
  }

  bool Test(uint32_t i) const { return stamp_[i] == epoch_; }

  void Set(uint32_t i) { stamp_[i] = epoch_; }

  /// Sets the flag; returns true iff it was previously unset.
  bool TestAndSet(uint32_t i) {
    if (stamp_[i] == epoch_) return false;
    stamp_[i] = epoch_;
    return true;
  }

  /// Hints an upcoming Test/Set of entry `i` to the hardware prefetcher.
  void Prefetch(uint32_t i) const { LOCS_PREFETCH(stamp_.data() + i); }

  size_t capacity() const { return stamp_.size(); }

 private:
  friend class EpochTestPeer;

  ZeroPageArray<uint32_t> stamp_;
  uint32_t epoch_ = 1;
};

/// Epoch-validated uint32 array with the stamp and the value packed into a
/// single aligned 8-byte cell, so validity and value cost one cache-line
/// touch (separate stamp and value vectors would need two).
/// Freshness doubles as a membership bit for the solvers: a vertex is in
/// the tracked set iff its cell was written this epoch.
class EpochU32Array {
 public:
  explicit EpochU32Array(size_t capacity) : cell_(capacity) {}

  /// Invalidates all entries in O(1) (amortized across epoch wraps).
  void NewEpoch() {
    if (++epoch_ == 0) {
      cell_.Zero();
      epoch_ = 1;
    }
  }

  /// Read: 0 for entries not written this epoch.
  uint32_t Get(uint32_t i) const {
    const uint64_t c = cell_[i];
    return (c >> 32) == epoch_ ? static_cast<uint32_t>(c) : 0u;
  }

  /// Writes `value` and freshens the entry.
  void Set(uint32_t i, uint32_t value) {
    cell_[i] = (uint64_t{epoch_} << 32) | value;
  }

  /// True if the entry was written during the current epoch.
  bool Fresh(uint32_t i) const { return (cell_[i] >> 32) == epoch_; }

  /// Hints an upcoming Get/Set of entry `i` to the hardware prefetcher.
  void Prefetch(uint32_t i) const { LOCS_PREFETCH(cell_.data() + i); }

  size_t capacity() const { return cell_.size(); }

 private:
  friend class EpochTestPeer;

  ZeroPageArray<uint64_t> cell_;
  uint32_t epoch_ = 1;
};

}  // namespace locs

#endif  // LOCS_CORE_EPOCH_H_

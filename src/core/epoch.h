// Epoch-stamped per-vertex scratch arrays.
//
// Local search must not pay O(|V|) per query (that would erase its whole
// advantage over global search), so per-vertex scratch state is validated
// by an epoch stamp instead of being cleared: bumping the epoch invalidates
// every entry in O(1).

#ifndef LOCS_CORE_EPOCH_H_
#define LOCS_CORE_EPOCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/prefetch.h"

namespace locs {

/// Stamp-only membership set: an index is "set" iff its stamp equals the
/// current epoch, so there is no separate value byte to touch. One aligned
/// 4-byte load per test and one store per set, a single cache line per 16
/// vertices.
class EpochFlags {
 public:
  explicit EpochFlags(size_t capacity) : stamp_(capacity, 0) {}

  /// Invalidates all entries in O(1) (amortized: the 32-bit epoch wraps
  /// once per ~4G queries, paying one O(n) clear).
  void NewEpoch() {
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  bool Test(uint32_t i) const {
    LOCS_DCHECK(i < stamp_.size());
    return stamp_[i] == epoch_;
  }

  void Set(uint32_t i) {
    LOCS_DCHECK(i < stamp_.size());
    stamp_[i] = epoch_;
  }

  /// Sets the flag; returns true iff it was previously unset.
  bool TestAndSet(uint32_t i) {
    LOCS_DCHECK(i < stamp_.size());
    if (stamp_[i] == epoch_) return false;
    stamp_[i] = epoch_;
    return true;
  }

  /// Hints an upcoming Test/Set of entry `i` to the hardware prefetcher.
  void Prefetch(uint32_t i) const { LOCS_PREFETCH(stamp_.data() + i); }

  size_t capacity() const { return stamp_.size(); }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 1;
};

/// Epoch-validated uint32 array with the stamp and the value packed into a
/// single aligned 8-byte cell, so validity and value cost one cache-line
/// touch (separate stamp and value vectors would need two).
/// Freshness doubles as a membership bit for the solvers: a vertex is in
/// the tracked set iff its cell was written this epoch.
class EpochU32Array {
 public:
  explicit EpochU32Array(size_t capacity) : cell_(capacity, 0) {}

  /// Invalidates all entries in O(1) (amortized across epoch wraps).
  void NewEpoch() {
    if (++epoch_ == 0) {
      std::fill(cell_.begin(), cell_.end(), uint64_t{0});
      epoch_ = 1;
    }
  }

  /// Read: 0 for entries not written this epoch.
  uint32_t Get(uint32_t i) const {
    LOCS_DCHECK(i < cell_.size());
    const uint64_t c = cell_[i];
    return (c >> 32) == epoch_ ? static_cast<uint32_t>(c) : 0u;
  }

  /// Writes `value` and freshens the entry.
  void Set(uint32_t i, uint32_t value) {
    LOCS_DCHECK(i < cell_.size());
    cell_[i] = (uint64_t{epoch_} << 32) | value;
  }

  /// True if the entry was written during the current epoch.
  bool Fresh(uint32_t i) const {
    LOCS_DCHECK(i < cell_.size());
    return (cell_[i] >> 32) == epoch_;
  }

  /// Hints an upcoming Get/Set of entry `i` to the hardware prefetcher.
  void Prefetch(uint32_t i) const { LOCS_PREFETCH(cell_.data() + i); }

  size_t capacity() const { return cell_.size(); }

 private:
  std::vector<uint64_t> cell_;
  uint32_t epoch_ = 1;
};

}  // namespace locs

#endif  // LOCS_CORE_EPOCH_H_

// Monotone bucket priority queue used by k-core peeling
// (Batagelj–Zaversnik): pop the vertex with the minimum key; keys only
// decrease, one unit at a time, so every operation is O(1) amortized.
// The paper's Figure-5 structure, whose keys only grow, is the lazy
// bucket queue of core/lazy_bucket_queue.h.

#ifndef LOCS_UTIL_BUCKET_QUEUE_H_
#define LOCS_UTIL_BUCKET_QUEUE_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace locs {

/// Min-oriented bucket queue over dense uint32 element ids with uint32 keys.
/// Built once from an initial key assignment; supports DecreaseKey and
/// PopMin. Standard structure behind O(n+m) core decomposition.
class MinBucketQueue {
 public:
  /// Builds the queue over elements 0..keys.size()-1 with the given keys.
  explicit MinBucketQueue(const std::vector<uint32_t>& keys) { Reset(keys); }

  void Reset(const std::vector<uint32_t>& keys) {
    const auto n = static_cast<uint32_t>(keys.size());
    uint32_t max_key = 0;
    for (uint32_t k : keys) max_key = k > max_key ? k : max_key;
    key_ = keys;
    // Counting sort into position arrays.
    bucket_start_.assign(max_key + 2, 0);
    for (uint32_t k : keys) ++bucket_start_[k + 1];
    for (size_t i = 1; i < bucket_start_.size(); ++i) {
      bucket_start_[i] += bucket_start_[i - 1];
    }
    order_.resize(n);
    position_.resize(n);
    std::vector<uint32_t> cursor(bucket_start_.begin(),
                                 bucket_start_.end() - 1);
    for (uint32_t v = 0; v < n; ++v) {
      const uint32_t pos = cursor[key_[v]]++;
      order_[pos] = v;
      position_[v] = pos;
    }
    head_ = 0;
    n_ = n;
  }

  bool Empty() const { return head_ >= n_; }

  /// Current key of `v` (valid while v is still queued).
  uint32_t Key(uint32_t v) const { return key_[v]; }

  /// True if `v` has already been popped.
  bool Popped(uint32_t v) const { return position_[v] < head_; }

  /// Pops an element with the globally minimal key.
  uint32_t PopMin() {
    LOCS_DCHECK(!Empty());
    const uint32_t v = order_[head_];
    ++head_;
    return v;
  }

  /// Key of the next element PopMin would return.
  uint32_t MinKey() const {
    LOCS_DCHECK(!Empty());
    return key_[order_[head_]];
  }

  /// Decrements the key of a still-queued element by one (no-op guard: key
  /// must be positive). Swaps `v` to the front of its bucket, then shifts the
  /// bucket boundary — the classic O(1) trick.
  void DecrementKey(uint32_t v) {
    LOCS_DCHECK(!Popped(v));
    const uint32_t k = key_[v];
    LOCS_DCHECK(k > 0);
    const uint32_t bucket_first =
        bucket_start_[k] > head_ ? bucket_start_[k] : head_;
    const uint32_t pos = position_[v];
    const uint32_t other = order_[bucket_first];
    // Swap v with the first element of its bucket.
    order_[bucket_first] = v;
    order_[pos] = other;
    position_[v] = bucket_first;
    position_[other] = pos;
    // Grow bucket k-1 by one slot.
    bucket_start_[k] = bucket_first + 1;
    key_[v] = k - 1;
  }

 private:
  std::vector<uint32_t> key_;
  std::vector<uint32_t> order_;        // elements sorted by current key
  std::vector<uint32_t> position_;     // inverse of order_
  std::vector<uint32_t> bucket_start_; // first position of each key's bucket
  uint32_t head_ = 0;
  uint32_t n_ = 0;
};

}  // namespace locs

#endif  // LOCS_UTIL_BUCKET_QUEUE_H_

// Epoch-stamped bucket structure of Figure 5.
//
// A collection of doubly-linked lists, one per key value, over dense vertex
// ids. The paper uses it for the `li` heuristic; local CST's li frontier is
// the lazy queue of core/lazy_bucket_queue.h, which pops in this order for
// less work. This one backs the `lg` heuristic's minimum-degree sources
// and local CSM's frontier B (§5.1). All operations are O(1) amortized; a
// query reset is O(1) thanks to epoch stamping on both the vertex entries
// and the bucket heads.
//
// Layout is flattened for the solvers' inner loops: each entry packs its
// epoch stamp and key into one aligned 8-byte cell (likewise each bucket
// head), so the membership test and the key read that every frontier probe
// needs cost a single cache-line touch. Erasure leaves a same-epoch
// tombstone instead of rolling the stamp back, which lets the stamp double
// as the solvers' "discovered at least once this query" bit — the
// single-probe IncrementOrInsert / IncrementIfPresent ops below are the
// specialized inner loops of local CSM's frontier and of `lg`.
//
// Every array sits on a ZeroPageArray (util/zero_page_array.h), so the
// structure is built in O(1) with no fill: a zero entry or head cell
// carries epoch 0, which is stale because live epochs start at 1, and
// the links and `tail_` are written by Link before anything reads them.
// Pages become resident only as queries write them. The epoch wrap
// re-zeroes the stamped cells by handing their pages back to the kernel.

#ifndef LOCS_CORE_BUCKET_LIST_H_
#define LOCS_CORE_BUCKET_LIST_H_

#include <cstdint>

#include "util/check.h"
#include "util/prefetch.h"
#include "util/zero_page_array.h"

namespace locs {

class EpochTestPeer;

/// Keyed doubly-linked bucket lists with epoch-based O(1) reset.
class EpochBucketList {
 public:
  static constexpr uint32_t kNil = ~uint32_t{0};

  /// What a single-probe frontier op did.
  enum class Probe { kIncremented, kInserted, kSkipped };

  /// `capacity` bounds element ids, `max_key` bounds key values (so kNil
  /// is never a valid key and can serve as the erasure tombstone).
  EpochBucketList(uint32_t capacity, uint32_t max_key)
      : head_(static_cast<size_t>(max_key) + 1),
        tail_(static_cast<size_t>(max_key) + 1),
        links_(capacity),
        entry_(capacity) {}

  /// Invalidates the whole structure in O(1) (amortized: the 32-bit epoch
  /// wraps once per ~4G queries and then re-zeroes the stamped cells'
  /// pages).
  void NewEpoch() {
    if (++epoch_ == 0) {
      entry_.Zero();
      head_.Zero();
      epoch_ = 1;
    }
    size_ = 0;
    max_bucket_ = 0;
    min_bucket_ = 0;
  }

  bool Contains(uint32_t v) const {
    const uint64_t c = entry_[v];
    return (c >> 32) == epoch_ && static_cast<uint32_t>(c) != kNil;
  }

  /// True if `v` was inserted at least once this epoch, whether or not it
  /// has since been erased (tombstones keep the stamp current).
  bool Seen(uint32_t v) const { return (entry_[v] >> 32) == epoch_; }

  bool Empty() const { return size_ == 0; }
  uint32_t Size() const { return size_; }

  uint32_t Key(uint32_t v) const {
    LOCS_DCHECK(Contains(v));
    return static_cast<uint32_t>(entry_[v]);
  }

  /// Inserts `v` with the given key; v must not be present.
  void Insert(uint32_t v, uint32_t key) {
    LOCS_DCHECK(!Contains(v));
    LOCS_DCHECK(key < head_.size());
    entry_[v] = Pack(key);
    Link(v, key);
    if (size_ == 0) {
      max_bucket_ = min_bucket_ = key;
    } else {
      if (key > max_bucket_) max_bucket_ = key;
      if (key < min_bucket_) min_bucket_ = key;
    }
    ++size_;
  }

  /// Increments the key of a present element by one.
  void Increment(uint32_t v) {
    LOCS_DCHECK(Contains(v));
    Reslot(v, static_cast<uint32_t>(entry_[v]));
  }

  /// Single-probe inner loop of the `li` frontier: one cell load decides
  /// between incrementing a present element, skipping an element erased
  /// this epoch (popped entries must never be re-admitted), and inserting
  /// an unseen element with key `insert_key` — the latter only when
  /// `admit()` approves, evaluated lazily so callers pay the admission
  /// predicate only for genuinely new elements. The result tells the
  /// caller which telemetry counter to charge.
  template <typename AdmitFn>
  Probe IncrementOrInsert(uint32_t v, uint32_t insert_key, AdmitFn&& admit) {
    const uint64_t c = entry_[v];
    if ((c >> 32) == epoch_) {
      const uint32_t key = static_cast<uint32_t>(c);
      if (key == kNil) return Probe::kSkipped;  // erased: tombstone
      Reslot(v, key);
      return Probe::kIncremented;
    }
    if (!admit()) return Probe::kSkipped;
    Insert(v, insert_key);
    return Probe::kInserted;
  }

  /// Single-probe inner loop of the `lg` source list: increments `v` when
  /// present, no-ops when absent or erased.
  void IncrementIfPresent(uint32_t v) {
    const uint64_t c = entry_[v];
    if ((c >> 32) != epoch_) return;
    const uint32_t key = static_cast<uint32_t>(c);
    if (key == kNil) return;
    Reslot(v, key);
  }

  /// Removes a present element (leaving a same-epoch tombstone: Seen stays
  /// true, Contains becomes false, and re-Insert remains legal).
  void Erase(uint32_t v) {
    LOCS_DCHECK(Contains(v));
    Unlink(v, static_cast<uint32_t>(entry_[v]));
    entry_[v] = Pack(kNil);
    --size_;
  }

  /// Removes and returns an element with the maximal key.
  uint32_t PopMax() {
    LOCS_DCHECK(!Empty());
    const uint32_t v = MaxElement();
    Erase(v);
    return v;
  }

  /// An element with the maximal key (not removed).
  uint32_t MaxElement() {
    LOCS_DCHECK(!Empty());
    while (Head(max_bucket_) == kNil) {
      LOCS_DCHECK(max_bucket_ > 0);
      --max_bucket_;
    }
    return Head(max_bucket_);
  }

  /// The maximal key currently present.
  uint32_t MaxKey() { return Key(MaxElement()); }

  /// An element with the minimal key (not removed). Keys only grow through
  /// Increment, so the lazily advancing min pointer is amortized O(1).
  uint32_t MinElement() {
    LOCS_DCHECK(!Empty());
    while (Head(min_bucket_) == kNil) {
      LOCS_DCHECK(min_bucket_ + 1 < head_.size());
      ++min_bucket_;
    }
    return Head(min_bucket_);
  }

  /// The minimal key currently present.
  uint32_t MinKey() { return Key(MinElement()); }

  /// First element of the `key` bucket, or kNil.
  uint32_t Head(uint32_t key) const {
    const uint64_t h = head_[key];
    return (h >> 32) == epoch_ ? static_cast<uint32_t>(h) : kNil;
  }

  /// Successor of `v` within its bucket, or kNil.
  uint32_t Next(uint32_t v) const {
    LOCS_DCHECK(Contains(v));
    return links_[v].next;
  }

  /// Hints an upcoming probe of `v`'s cell to the hardware prefetcher.
  void Prefetch(uint32_t v) const { LOCS_PREFETCH(entry_.data() + v); }

 private:
  /// An element's neighbours within its bucket; one 8-byte cell, so
  /// linking and unlinking touch one cache line per element.
  struct Links {
    uint32_t next;
    uint32_t prev;
  };

  uint64_t Pack(uint32_t low) const { return (uint64_t{epoch_} << 32) | low; }

  /// Moves a present element from bucket `key` to bucket `key + 1`.
  void Reslot(uint32_t v, uint32_t key) {
    LOCS_DCHECK(key + 1 < head_.size());
    Unlink(v, key);
    entry_[v] = Pack(key + 1);
    Link(v, key + 1);
    if (key + 1 > max_bucket_) max_bucket_ = key + 1;
  }

  // Elements append at the tail and selection reads the head, so ties
  // within a bucket resolve in FIFO (discovery) order — this reproduces
  // the paper's Figure 4(b) selection trace exactly.
  void Link(uint32_t v, uint32_t key) {
    Links& links = links_[v];
    links.next = kNil;
    const uint64_t h = head_[key];
    if ((h >> 32) != epoch_ || static_cast<uint32_t>(h) == kNil) {
      head_[key] = Pack(v);
      tail_[key] = v;
      links.prev = kNil;
      return;
    }
    links.prev = tail_[key];
    links_[tail_[key]].next = v;
    tail_[key] = v;
  }

  void Unlink(uint32_t v, uint32_t key) {
    const Links links = links_[v];
    if (links.prev != kNil) {
      links_[links.prev].next = links.next;
    } else {
      head_[key] = Pack(links.next);
    }
    if (links.next != kNil) {
      links_[links.next].prev = links.prev;
    } else {
      tail_[key] = links.prev;
    }
  }

  friend class EpochTestPeer;

  ZeroPageArray<uint64_t> head_;   // per key: (stamp << 32) | first element
  ZeroPageArray<uint32_t> tail_;   // per key: last element (head fresh)
  ZeroPageArray<Links> links_;     // per element, written by Link
  ZeroPageArray<uint64_t> entry_;  // per element: (stamp << 32) | key
  uint32_t epoch_ = 1;
  uint32_t max_bucket_ = 0;
  uint32_t min_bucket_ = 0;
  uint32_t size_ = 0;
};

}  // namespace locs

#endif  // LOCS_CORE_BUCKET_LIST_H_

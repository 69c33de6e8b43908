// Lazy max-bucket queue: the frontier of the `li` strategy (§4.3.1,
// Equation 6), keyed by each frontier vertex's number of links into C.
//
// Figure 5 keeps one doubly-linked list per key and moves an element
// between lists on every increment, which rewrites up to six scattered
// cells. Here an increment writes the vertex's key cell and appends the
// vertex's id to the new key's FIFO; the record left in the old key's FIFO
// goes stale. PopMax reads the highest non-empty FIFO from its head and
// skips every record whose vertex no longer holds that FIFO's key.
//
// Keys only grow, and a popped or tombstoned vertex is never admitted
// again, so a vertex has at most one record per key and its live record is
// the one it appended when it reached its current key. Live records
// therefore pop in the order their vertices reached the key: exactly the
// head-first FIFO order of Figure 5's lists (EpochBucketList), which
// reproduces the paper's Figure 4(b) trace. Each operation appends at most
// one record, so a query holds at most one record per scanned edge, a
// bound the `budget=` guard caps.
//
// Storage sits on ZeroPageArrays, like every solver scratch array: the
// epoch-stamped key cells (as in EpochU32Array, core/epoch.h), the
// per-key FIFO ends, and one record arena that each query refills from
// its start. A FIFO is a chain of kBlock-slot blocks in the arena whose
// last slot links to the next block. Construction is O(1), a query reset
// is O(1), and only the arena pages a query reaches become resident.

#ifndef LOCS_CORE_LAZY_BUCKET_QUEUE_H_
#define LOCS_CORE_LAZY_BUCKET_QUEUE_H_

#include <cstddef>
#include <cstdint>

#include "util/check.h"
#include "util/prefetch.h"
#include "util/zero_page_array.h"

namespace locs {

class EpochTestPeer;

/// Max-priority frontier with monotone keys and epoch-based O(1) reset.
class LazyBucketQueue {
 public:
  /// `capacity` bounds element ids, `max_key` bounds keys and
  /// `max_records` the records (inserts plus increments) of one epoch.
  /// Each key's first block and one block per kBlock - 1 records bound
  /// the arena.
  LazyBucketQueue(uint32_t capacity, uint32_t max_key, size_t max_records)
      : key_(capacity),
        fifo_(size_t{max_key} + 1),
        arena_(kBlock * (size_t{max_key} + 2 + max_records / (kBlock - 1))) {
    LOCS_CHECK_LE(arena_.size() / kBlock, size_t{UINT32_MAX});
  }

  /// Empties the queue for a new query.
  void NewEpoch() {
    if (++epoch_ == 0) {
      key_.Zero();
      epoch_ = 1;
    }
    size_ = 0;
    max_ = 0;
    top_ = 0;
    used_ = 0;
  }

  bool Empty() const { return size_ == 0; }
  uint32_t Size() const { return size_; }

  /// The single-probe step of the li frontier: raises a present `v`'s key
  /// by one, inserts an unseen `v` with key 1, and skips a popped or
  /// tombstoned `v`. Returns true iff `v` was inserted.
  bool IncrementOrInsert(uint32_t v) {
    const uint64_t cell = key_[v];
    if ((cell >> 32) != epoch_) {
      Append(v, 1);
      ++size_;
      return true;
    }
    const auto key = static_cast<uint32_t>(cell);
    if (key != kNil) Append(v, key + 1);
    return false;
  }

  /// Bars `v` from the queue for the rest of the epoch (removing it if
  /// present): IncrementOrInsert skips it from now on.
  void Tombstone(uint32_t v) {
    const uint64_t cell = key_[v];
    if ((cell >> 32) == epoch_ && static_cast<uint32_t>(cell) != kNil) {
      --size_;
    }
    key_[v] = Pack(kNil);
  }

  /// Removes and returns the element with the maximal key that reached
  /// that key first.
  uint32_t PopMax() {
    LOCS_DCHECK(!Empty());
    for (;;) {
      Fifo& fifo = fifo_[max_];
      const uint64_t live = Pack(max_);
      while (fifo.head != fifo.tail) {
        const uint32_t v = arena_[fifo.head];
        fifo.head = Advance(fifo.head);
        if (key_[v] == live) {
          key_[v] = Pack(kNil);
          --size_;
          return v;
        }
      }
      LOCS_DCHECK(max_ > 0);
      --max_;
    }
  }

  /// Hints an upcoming probe of `v`'s key cell to the hardware prefetcher.
  void Prefetch(uint32_t v) const { LOCS_PREFETCH(key_.data() + v); }

 private:
  /// The key of a popped or tombstoned vertex.
  static constexpr uint32_t kNil = ~uint32_t{0};

  /// Arena slots per block; the last one links to the next block.
  static constexpr uint32_t kBlock = 64;

  /// One key's records: arena slots [head, tail) along the block chain.
  struct Fifo {
    size_t head;
    size_t tail;
  };

  uint64_t Pack(uint32_t key) const { return (uint64_t{epoch_} << 32) | key; }

  /// The slot after `slot`, following a block's link (a block number).
  size_t Advance(size_t slot) const {
    ++slot;
    return slot % kBlock == kBlock - 1 ? size_t{arena_[slot]} * kBlock : slot;
  }

  /// Gives `v` key `key` and appends its record to that key's FIFO.
  /// Keys start at 1 and grow by one, so a key above top_ is top_ + 1.
  void Append(uint32_t v, uint32_t key) {
    key_[v] = Pack(key);
    if (key > max_) {
      max_ = key;
      if (key > top_) {
        LOCS_DCHECK(key == top_ + 1 && key < fifo_.size());
        top_ = key;
        const size_t block = NewBlock();
        fifo_[key] = {block, block};
      }
    }
    Fifo& fifo = fifo_[key];
    arena_[fifo.tail] = v;
    if (++fifo.tail % kBlock == kBlock - 1) {
      const size_t block = NewBlock();
      arena_[fifo.tail] = static_cast<uint32_t>(block / kBlock);
      fifo.tail = block;
    }
  }

  /// The first slot of a fresh block.
  size_t NewBlock() {
    LOCS_CHECK_LE(used_ + kBlock, arena_.size());
    const size_t block = used_;
    used_ += kBlock;
    return block;
  }

  friend class EpochTestPeer;

  ZeroPageArray<uint64_t> key_;    // per element: (stamp << 32) | key or kNil
  ZeroPageArray<Fifo> fifo_;       // per key; [1, top_] used this epoch
  ZeroPageArray<uint32_t> arena_;  // records and block links
  uint32_t epoch_ = 1;
  uint32_t size_ = 0;  // live elements
  uint32_t max_ = 0;   // >= every live key
  uint32_t top_ = 0;   // highest key with a FIFO this epoch
  size_t used_ = 0;    // arena slots handed out this epoch
};

}  // namespace locs

#endif  // LOCS_CORE_LAZY_BUCKET_QUEUE_H_

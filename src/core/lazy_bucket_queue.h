// Lazy bucket queue: the Figure-5 structure of the paper (§4.3.1), kept
// once for every frontier that needs its order. It backs local CST's `li`
// frontier (Equation 6, keyed by links into C) and `lg` sources (C members
// keyed by induced degree, taken from the minimum), and local CSM's
// frontier B (§5.1, keyed by links into A).
//
// Figure 5 keeps one doubly-linked list per key and moves an element
// between lists on every increment, which rewrites up to six scattered
// cells. Here an increment writes the vertex's key cell and appends the
// vertex's id to the new key's FIFO; the record left in the old key's FIFO
// goes stale. PopMax and MinElement read a FIFO from its head and drop
// every record whose vertex no longer holds that FIFO's key.
//
// Keys only grow, and a popped or tombstoned vertex is never admitted
// again, so a vertex has at most one record per key, a stale record stays
// stale, and a vertex's live record is the one it appended when it
// reached its current key. Live records therefore sit in the order their
// vertices reached the key: exactly the head-first FIFO order of Figure
// 5's lists, which reproduces the paper's Figure 4(b) trace. Each
// operation appends at most one record, so a query holds at most one
// record per scanned edge (plus one per Insert), a bound the `budget=`
// guard caps.
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

/// Bucket queue with monotone keys and epoch-based O(1) reset.
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
    min_ = kNil;
    fifos_ = 0;
    used_ = 0;
  }

  bool Empty() const { return size_ == 0; }
  uint32_t Size() const { return size_; }

  /// Inserts `v`, unseen this epoch, with key `key`.
  void Insert(uint32_t v, uint32_t key) {
    LOCS_DCHECK((key_[v] >> 32) != epoch_);
    if (key >= fifos_) AddFifos(key);  // key 0 into an empty epoch
    Append(v, key);
    if (key < min_) min_ = key;
    ++size_;
  }

  /// The single-probe step of a max frontier: raises a present `v`'s key
  /// by one, skips a popped or tombstoned `v`, and inserts an unseen `v`
  /// with key 1 when `admit()` approves. `admit` runs only for an unseen
  /// `v`, and a refused `v` stays unseen. Returns true iff `v` was
  /// inserted.
  template <typename AdmitFn>
  bool IncrementOrInsert(uint32_t v, AdmitFn&& admit) {
    const uint64_t cell = key_[v];
    if ((cell >> 32) != epoch_) {
      if (!admit()) return false;
      Insert(v, 1);
      return true;
    }
    const auto key = static_cast<uint32_t>(cell);
    if (key != kNil) Append(v, key + 1);
    return false;
  }

  /// Raises `v`'s key by one if `v` is present; otherwise does nothing.
  void IncrementIfPresent(uint32_t v) {
    const uint64_t cell = key_[v];
    if ((cell >> 32) != epoch_) return;
    const auto key = static_cast<uint32_t>(cell);
    if (key != kNil) Append(v, key + 1);
  }

  /// Bars `v` from the queue for the rest of the epoch (removing it if
  /// present): no later call admits it again.
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
    uint32_t v;
    while ((v = LiveHead(max_)) == kNil) {
      LOCS_DCHECK(max_ > 0);
      --max_;
    }
    Fifo& fifo = fifo_[max_];
    fifo.head = Advance(fifo.head);
    key_[v] = Pack(kNil);
    --size_;
    return v;
  }

  /// The element with the minimal key that reached that key first (not
  /// removed).
  uint32_t MinElement() {
    LOCS_DCHECK(!Empty());
    uint32_t v;
    while ((v = LiveHead(min_)) == kNil) {
      LOCS_DCHECK(min_ < max_);
      ++min_;
    }
    return v;
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

  /// The first live record of `key`'s FIFO, or kNil; drops the stale
  /// records before it.
  uint32_t LiveHead(uint32_t key) {
    Fifo& fifo = fifo_[key];
    const uint64_t live = Pack(key);
    for (; fifo.head != fifo.tail; fifo.head = Advance(fifo.head)) {
      const uint32_t v = arena_[fifo.head];
      if (key_[v] == live) return v;
    }
    return kNil;
  }

  /// Gives `v` key `key` and appends its record to that key's FIFO.
  /// Once a FIFO exists, every key up to max_ has one.
  void Append(uint32_t v, uint32_t key) {
    key_[v] = Pack(key);
    if (key > max_) {
      max_ = key;
      if (key >= fifos_) AddFifos(key);
    }
    Fifo& fifo = fifo_[key];
    arena_[fifo.tail] = v;
    if (++fifo.tail % kBlock == kBlock - 1) {
      const size_t block = NewBlock();
      arena_[fifo.tail] = static_cast<uint32_t>(block / kBlock);
      fifo.tail = block;
    }
  }

  /// Creates the FIFOs of keys fifos_ to `key`.
  void AddFifos(uint32_t key) {
    LOCS_DCHECK(key < fifo_.size());
    for (; fifos_ <= key; ++fifos_) {
      const size_t block = NewBlock();
      fifo_[fifos_] = {block, block};
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
  ZeroPageArray<Fifo> fifo_;       // per key; [0, fifos_) used this epoch
  ZeroPageArray<uint32_t> arena_;  // records and block links
  uint32_t epoch_ = 1;
  uint32_t size_ = 0;    // live elements
  uint32_t max_ = 0;     // >= every live key
  uint32_t min_ = kNil;  // <= every live key
  uint32_t fifos_ = 0;   // keys with a FIFO this epoch
  size_t used_ = 0;      // arena slots handed out this epoch
};

}  // namespace locs

#endif  // LOCS_CORE_LAZY_BUCKET_QUEUE_H_

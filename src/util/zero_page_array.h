// ZeroPageArray — a fixed-size array on its own anonymous mapping.
//
// The solvers' per-vertex scratch (core/epoch.h, core/lazy_bucket_queue.h) is
// sized by |V|, but a local query touches only the neighbourhood it
// explores. This array maps its storage with mmap(MAP_PRIVATE |
// MAP_ANONYMOUS | MAP_NORESERVE), so construction is O(1) whatever the
// size: every page starts as the kernel's shared zero page and becomes
// resident only when something first writes to it, and the destructor's
// munmap hands the pages back to the OS instead of to a malloc arena.
// Elements start as all-zero bytes, hence the trivially-copyable element
// type; users pick encodings in which zero means "empty" (an epoch stamp
// of 0 is stale, because live epochs start at 1).
//
// Residency is tracked per page, and an array of at least 1 MiB uses
// 2 MiB pages: its mapping is rounded up to whole huge pages, aligned to
// them and advised MADV_HUGEPAGE. A first-touch fault costs microseconds,
// and a per-vertex array written at random points soon touches most of
// its 4 KiB pages; one huge-page fault replaces up to 512 of them (and one
// TLB entry covers it). Rounding up wastes less than half the mapping.
// Where transparent huge pages are off, the advice is ignored and the
// array faults in 4 KiB pages.
//
// Bounds: operator[] carries LOCS_DCHECK(i < size()). Beyond that, in
// every build, the mapping ends with one PROT_NONE guard page, so a write
// past the page-rounded end faults. Mapped memory has no heap redzones,
// so under AddressSanitizer the slack between size() and the page
// boundary is poisoned as well.
//
// Move-only. A size of 0 maps nothing. A failed mapping throws
// std::bad_alloc, like the std::vector it replaces.

#ifndef LOCS_UTIL_ZERO_PAGE_ARRAY_H_
#define LOCS_UTIL_ZERO_PAGE_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace locs {

namespace internal {
/// Maps `bytes` (> 0) of zero-filled memory followed by a PROT_NONE guard
/// page; under ASan the slack up to the page boundary is poisoned. Throws
/// std::bad_alloc when the kernel refuses.
void* MapZeroPages(size_t bytes);
/// Releases a mapping made by MapZeroPages(bytes).
void UnmapZeroPages(void* base, size_t bytes);
/// Returns every page of a MapZeroPages(bytes) mapping to the zero page
/// (madvise(MADV_DONTNEED)): contents read as zero again, and no page is
/// touched to get there.
void RezeroPages(void* base, size_t bytes);
}  // namespace internal

template <typename T>
class ZeroPageArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "ZeroPageArray elements start as zero bytes");

 public:
  ZeroPageArray() = default;

  explicit ZeroPageArray(size_t size) {
    if (size == 0) return;
    if (size > SIZE_MAX / 2 / sizeof(T)) throw std::bad_alloc();
    data_ = static_cast<T*>(internal::MapZeroPages(size * sizeof(T)));
    size_ = size;
  }

  ~ZeroPageArray() { Release(); }

  ZeroPageArray(ZeroPageArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  ZeroPageArray& operator=(ZeroPageArray&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ZeroPageArray(const ZeroPageArray&) = delete;
  ZeroPageArray& operator=(const ZeroPageArray&) = delete;

  T& operator[](size_t i) {
    LOCS_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    LOCS_DCHECK(i < size_);
    return data_[i];
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }

  /// Sets every element back to zero bytes in O(pages) kernel work
  /// without faulting any page in.
  void Zero() {
    if (data_ != nullptr) internal::RezeroPages(data_, size_ * sizeof(T));
  }

 private:
  void Release() {
    if (data_ != nullptr) internal::UnmapZeroPages(data_, size_ * sizeof(T));
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace locs

#endif  // LOCS_UTIL_ZERO_PAGE_ARRAY_H_

#include "util/zero_page_array.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace locs::internal {
namespace {

// The x86-64 and AArch64 (4 KiB granule) transparent huge page size.
constexpr size_t kHugePage = size_t{2} << 20;

size_t PageSize() {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

size_t RoundUp(size_t bytes, size_t unit) {
  return (bytes + unit - 1) / unit * unit;
}

/// At least half a huge page: rounding up then wastes less than half.
bool UsesHugePages(size_t bytes) { return bytes >= kHugePage / 2; }

/// The data part of a `bytes`-byte mapping, without the guard page.
size_t DataBytes(size_t bytes) {
  return RoundUp(bytes, UsesHugePages(bytes) ? kHugePage : PageSize());
}

}  // namespace

void* MapZeroPages(size_t bytes) {
  const size_t data_bytes = DataBytes(bytes);
  const size_t mapped = data_bytes + PageSize();
  const size_t align = UsesHugePages(bytes) ? kHugePage : PageSize();
  // Over-map by the alignment, then trim, so a huge-page array starts on
  // a huge-page boundary.
  const size_t reserved = mapped + align - PageSize();
  void* raw = ::mmap(nullptr, reserved, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const uintptr_t raw_begin = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t begin = RoundUp(raw_begin, align);
  char* base = reinterpret_cast<char*>(begin);
  if (begin != raw_begin) ::munmap(raw, begin - raw_begin);
  const size_t tail = raw_begin + reserved - (begin + mapped);
  if (tail != 0) ::munmap(base + mapped, tail);
  if (::mprotect(base + data_bytes, PageSize(), PROT_NONE) != 0) {
    ::munmap(base, mapped);
    throw std::bad_alloc();
  }
  // A first-touch fault then maps a whole huge page instead of one 4 KiB
  // page. Advisory: without THP the array simply stays on small pages.
  if (UsesHugePages(bytes)) ::madvise(base, data_bytes, MADV_HUGEPAGE);
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(base + bytes, data_bytes - bytes);
#endif
  return base;
}

void UnmapZeroPages(void* base, size_t bytes) {
  const size_t data_bytes = DataBytes(bytes);
#if defined(__SANITIZE_ADDRESS__)
  // The address range may be mapped again by anything, so it must not
  // stay poisoned after it is released.
  ASAN_UNPOISON_MEMORY_REGION(base, data_bytes);
#endif
  LOCS_CHECK(::munmap(base, data_bytes + PageSize()) == 0);
}

void RezeroPages(void* base, size_t bytes) {
  LOCS_CHECK(::madvise(base, DataBytes(bytes), MADV_DONTNEED) == 0);
}

}  // namespace locs::internal

// Whole-file checksum of graph images (format v2 and later): XXH64 with
// seed 0.
//
// Four independent 64-bit lanes each absorb one word of every 32-byte
// stripe (multiply, rotate, multiply), so the loop keeps up with memory
// in portable C++: no intrinsics, no dependency. FNV-1a, the v1
// checksum, folds in one byte per dependent multiply and made up most of
// an image open. Words are read in host byte order, which matches the
// reference XXH64 on little-endian hosts; an image from a host of the
// other byte order is rejected by its endian tag before the checksum is
// compared.

#ifndef LOCS_STORE_CHECKSUM_H_
#define LOCS_STORE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace locs::store {

/// Streaming XXH64: feed any split of the input, get the same digest.
class Checksum64 {
 public:
  Checksum64();

  /// Feeds the next `bytes` bytes.
  void Update(const void* data, size_t bytes);

  /// Checksum of everything fed so far. Does not change the state.
  uint64_t Digest() const;

 private:
  static constexpr size_t kStripe = 32;

  uint64_t lane_[4];
  unsigned char pending_[kStripe] = {};
  size_t pending_bytes_ = 0;
  uint64_t total_bytes_ = 0;
};

/// A Checksum64 that has absorbed the image header at `header`
/// (sizeof(ImageHeader) bytes) with its checksum field read as zero; feed
/// it the rest of the file to get the image checksum.
Checksum64 ImageHeaderChecksum(const char* header);

/// Checksum of a whole image held in memory, with the header's checksum
/// field read as zero (the value the header must carry). `size` must
/// cover the header.
uint64_t ImageChecksum(const char* bytes, size_t size);

}  // namespace locs::store

#endif  // LOCS_STORE_CHECKSUM_H_

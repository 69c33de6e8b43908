#include "store/checksum.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "store/format.h"

namespace locs::store {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

constexpr uint64_t Rotl(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

uint64_t Read64(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint32_t Read32(const unsigned char* p) {
  uint32_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

constexpr uint64_t Round(uint64_t lane, uint64_t word) {
  return Rotl(lane + word * kPrime2, 31) * kPrime1;
}

constexpr uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kPrime1 + kPrime4;
}

/// Absorbs whole stripes from `p` into `lane`; returns bytes consumed.
size_t AbsorbStripes(uint64_t lane[4], const unsigned char* p, size_t bytes) {
  const size_t whole = bytes - bytes % 32;
  uint64_t l0 = lane[0];
  uint64_t l1 = lane[1];
  uint64_t l2 = lane[2];
  uint64_t l3 = lane[3];
  for (size_t i = 0; i < whole; i += 32) {
    l0 = Round(l0, Read64(p + i));
    l1 = Round(l1, Read64(p + i + 8));
    l2 = Round(l2, Read64(p + i + 16));
    l3 = Round(l3, Read64(p + i + 24));
  }
  lane[0] = l0;
  lane[1] = l1;
  lane[2] = l2;
  lane[3] = l3;
  return whole;
}

}  // namespace

Checksum64::Checksum64()
    : lane_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

void Checksum64::Update(const void* data, size_t bytes) {
  if (bytes == 0) return;
  const auto* p = static_cast<const unsigned char*>(data);
  total_bytes_ += bytes;
  if (pending_bytes_ > 0) {
    const size_t take = std::min(bytes, kStripe - pending_bytes_);
    std::memcpy(pending_ + pending_bytes_, p, take);
    pending_bytes_ += take;
    p += take;
    bytes -= take;
    if (pending_bytes_ < kStripe) return;
    AbsorbStripes(lane_, pending_, kStripe);
    pending_bytes_ = 0;
  }
  const size_t consumed = AbsorbStripes(lane_, p, bytes);
  std::memcpy(pending_, p + consumed, bytes - consumed);
  pending_bytes_ = bytes - consumed;
}

uint64_t Checksum64::Digest() const {
  uint64_t h;
  if (total_bytes_ >= kStripe) {
    h = Rotl(lane_[0], 1) + Rotl(lane_[1], 7) + Rotl(lane_[2], 12) +
        Rotl(lane_[3], 18);
    for (const uint64_t lane : lane_) h = MergeRound(h, lane);
  } else {
    h = kPrime5;  // seed 0 plus prime 5
  }
  h += total_bytes_;
  const unsigned char* p = pending_;
  size_t left = pending_bytes_;
  for (; left >= 8; p += 8, left -= 8) {
    h ^= Round(0, Read64(p));
    h = Rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    h ^= uint64_t{Read32(p)} * kPrime1;
    h = Rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    h ^= uint64_t{*p} * kPrime5;
    h = Rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

Checksum64 ImageHeaderChecksum(const char* header) {
  constexpr size_t kField = offsetof(ImageHeader, checksum);
  constexpr char kZeros[sizeof(uint64_t)] = {};
  Checksum64 checksum;
  checksum.Update(header, kField);
  checksum.Update(kZeros, sizeof(kZeros));
  checksum.Update(header + kField + sizeof(uint64_t),
                  sizeof(ImageHeader) - kField - sizeof(uint64_t));
  return checksum;
}

uint64_t ImageChecksum(const char* bytes, size_t size) {
  Checksum64 checksum = ImageHeaderChecksum(bytes);
  checksum.Update(bytes + sizeof(ImageHeader), size - sizeof(ImageHeader));
  return checksum.Digest();
}

}  // namespace locs::store

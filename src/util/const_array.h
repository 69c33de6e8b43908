// ConstArray<T> — the storage layer behind every immutable graph-shaped
// array (CSR offsets/neighbors, ordered neighbors, core numbers).
//
// The solvers only ever *read* these arrays, so the substrate they sit
// on is a policy choice, not a type choice: a freshly built graph owns a
// heap vector, while a graph loaded from an on-disk image (src/store/)
// points straight into a read-only mmap region with zero copying. Both
// hide behind one const view: a std::span plus a shared keepalive that
// pins whatever backs the bytes (the adopted vector, or the mapped
// file). Copies are shallow and O(1) — the data is immutable, so
// sharing is always safe — which also makes Graph/CoreIndex handles
// cheap to pass around.

#ifndef LOCS_UTIL_CONST_ARRAY_H_
#define LOCS_UTIL_CONST_ARRAY_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace locs {

/// Immutable shared array: a const span over storage kept alive by a
/// shared_ptr. See the file comment for the two backing variants.
template <typename T>
class ConstArray {
 public:
  /// Empty array (no storage).
  ConstArray() = default;

  /// Owned-vector variant: adopts `values`. Implicit on purpose — every
  /// build path creates a vector and hands it over.
  ConstArray(std::vector<T> values)  // NOLINT(google-explicit-constructor)
      : ConstArray(std::make_shared<const std::vector<T>>(
            std::move(values))) {}

  /// External-region variant: `view` must stay valid for as long as
  /// `region` is alive (e.g. a span into an mmap held by the region).
  ConstArray(std::span<const T> view, std::shared_ptr<const void> region)
      : view_(view), region_(std::move(region)) {}

  const T* data() const { return view_.data(); }
  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const T& operator[](size_t i) const { return view_[i]; }
  const T& front() const { return view_.front(); }
  const T& back() const { return view_.back(); }
  auto begin() const { return view_.begin(); }
  auto end() const { return view_.end(); }
  std::span<const T> span() const { return view_; }

  /// Element-wise equality (the tests' round-trip comparisons).
  friend bool operator==(const ConstArray& a, const ConstArray& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  explicit ConstArray(std::shared_ptr<const std::vector<T>> owned)
      : view_(owned->data(), owned->size()), region_(std::move(owned)) {}

  std::span<const T> view_;
  std::shared_ptr<const void> region_;
};

}  // namespace locs

#endif  // LOCS_UTIL_CONST_ARRAY_H_

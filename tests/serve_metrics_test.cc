// MetricsSnapshot latency-percentile contract, table-driven. The
// histogram is power-of-two (bucket b >= 1 holds [2^(b-1), 2^b - 1] us,
// bucket 0 exactly 0 us) and LatencyPercentileUs reports the inclusive
// upper bound of the nearest-rank bucket — these tests pin the edge
// cases that an off-by-one in the rank or bound arithmetic flips:
// p = 1.0, a single sample, the empty histogram, and exact boundaries.
// The session counters are checked under a concurrent open/close churn.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/metrics.h"

namespace locs::serve {
namespace {

struct PercentileCase {
  const char* name;
  std::vector<uint64_t> samples_us;
  double p;
  uint64_t expect_us;
};

TEST(MetricsPercentileTest, TableDrivenEdgeCases) {
  const PercentileCase cases[] = {
      // The empty histogram reports 0 at every p.
      {"empty_p50", {}, 0.50, 0},
      {"empty_p100", {}, 1.0, 0},
      // Sub-microsecond queries land in bucket 0, whose inclusive upper
      // bound is 0 — not 1 (the old exclusive-bound bug).
      {"single_zero", {0}, 0.50, 0},
      // One 1us sample: every percentile is that sample's bucket [1, 1].
      // An exclusive upper bound would report 2 here.
      {"single_one_p50", {1}, 0.50, 1},
      {"single_one_p100", {1}, 1.0, 1},
      // 5us lands in [4, 7]; the inclusive bound is 7, not 8.
      {"single_five", {5}, 0.99, 7},
      // Two spread samples: rank ceil(0.5 * 2) = 1 picks the fast one,
      // p = 1.0 must pick the slow one (rank 2), never run off the end.
      {"pair_p50", {1, 1000}, 0.50, 1},
      {"pair_p100", {1, 1000}, 1.0, 1023},
      // p = 0 clamps the rank up to the first sample.
      {"pair_p0", {1, 1000}, 0.0, 1},
      // Boundary exactness: 2^b and 2^b - 1 sit in adjacent buckets.
      {"boundary_below", {1023}, 1.0, 1023},
      {"boundary_at", {1024}, 1.0, 2047},
      // 19 fast + 1 slow: p95 has rank ceil(0.95 * 20) = 19, still fast;
      // p96 crosses into the slow sample.
      {"tail_p95", [] {
         std::vector<uint64_t> s(19, 2);
         s.push_back(4096);
         return s;
       }(), 0.95, 3},
      {"tail_p96", [] {
         std::vector<uint64_t> s(19, 2);
         s.push_back(4096);
         return s;
       }(), 0.96, 8191},
  };
  for (const PercentileCase& c : cases) {
    ServerMetrics metrics;
    for (const uint64_t us : c.samples_us) metrics.RecordLatencyUs(us);
    const MetricsSnapshot snap = metrics.Snapshot();
    EXPECT_EQ(snap.LatencyPercentileUs(c.p), c.expect_us) << c.name;
  }
}

TEST(MetricsPercentileTest, PercentilesAreMonotoneInP) {
  ServerMetrics metrics;
  for (uint64_t us : {0u, 1u, 3u, 9u, 80u, 700u, 6000u, 50000u}) {
    metrics.RecordLatencyUs(us);
  }
  const MetricsSnapshot snap = metrics.Snapshot();
  uint64_t prev = 0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const uint64_t value = snap.LatencyPercentileUs(p);
    EXPECT_GE(value, prev) << "p=" << p;
    prev = value;
  }
  // p = 1.0 lands in the slowest sample's bucket: 50000 is in
  // [32768, 65535].
  EXPECT_EQ(snap.LatencyPercentileUs(1.0), 65535u);
}

TEST(MetricsPercentileTest, OpenEndedLastBucketReportsItsBound) {
  ServerMetrics metrics;
  metrics.RecordLatencyUs(uint64_t{1} << 40);  // beyond the last bucket
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.LatencyPercentileUs(0.5), (uint64_t{1} << 31) - 1);
}

// One thread opens and closes sessions in a tight loop while this one
// snapshots: no snapshot may count more closes than opens, or STATS'
// sessions_open (opened - closed) wraps to about 1.8e19.
TEST(MetricsSessionTest, SnapshotNeverCountsMoreClosesThanOpens) {
  ServerMetrics metrics;
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      metrics.CountSessionOpened();
      metrics.CountSessionClosed();
    }
  });
  while (metrics.Snapshot().sessions_closed == 0) std::this_thread::yield();
  uint64_t snapshots = 0;
  uint64_t wrapped = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < until) {
    const MetricsSnapshot snap = metrics.Snapshot();
    ++snapshots;
    wrapped += snap.sessions_opened < snap.sessions_closed ? 1 : 0;
  }
  stop.store(true, std::memory_order_relaxed);
  churn.join();
  EXPECT_EQ(wrapped, 0u) << "in " << snapshots << " snapshots";
}

}  // namespace
}  // namespace locs::serve

// ServerMetrics — lock-free counters for the serving layer.
//
// Every counter is a relaxed std::atomic: sessions on different threads
// record concurrently without contending on a lock, and the STATS verb
// reads a Snapshot that is per-counter consistent (monotone, never
// torn) though not a cross-counter atomic cut — the standard contract
// of serving metrics.
//
// Query latency uses a fixed power-of-two histogram over microseconds
// (bucket b >= 1 counts latencies in [2^(b-1), 2^b - 1] us, bucket 0
// exactly 0 us, last bucket open-ended), so percentile estimation is a
// cumulative scan over 32 integers with at most 2x resolution error —
// no allocation, no sampling, no lock.

#ifndef LOCS_SERVE_METRICS_H_
#define LOCS_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/recorder.h"
#include "serve/wire.h"
#include "util/timer.h"

namespace locs::serve {

/// Point-in-time copy of every counter; see ServerMetrics::Snapshot.
struct MetricsSnapshot {
  static constexpr int kLatencyBuckets = 32;

  uint64_t requests_by_verb[kNumVerbs] = {};
  uint64_t errors_by_kind[kNumWireErrors] = {};
  uint64_t rejected = 0;     ///< BUSY replies past the session cap
  uint64_t interrupted = 0;  ///< queries tripped by their guard
  uint64_t io_timeouts = 0;  ///< transport deadline expiries (read/write)
  uint64_t idle_reaped = 0;  ///< sessions ended by the idle timeout
  /// Query conservation ledger (CST/CSM/MULTI only). Every attempted
  /// query reaches exactly one terminal: attempted = completed + failed.
  /// Counted entirely inside the session's request loop, once the reply
  /// is written or lost, so the identity is exact, not
  /// eventually-consistent — the chaos soak asserts it after every run.
  uint64_t q_attempted = 0;
  uint64_t q_completed = 0;  ///< OK reply delivered (incl. cache hits)
  uint64_t q_failed = 0;     ///< ERR reply (or reply write failed)
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t cache_hits = 0;       ///< result-cache hits (no solver run)
  uint64_t cache_misses = 0;     ///< cacheable queries that missed
  uint64_t cache_inserts = 0;    ///< replies admitted into the cache
  uint64_t cache_evictions = 0;  ///< LRU entries displaced by inserts
  uint64_t image_loads = 0;      ///< mmap-backed graph-image LOADs served
  uint64_t image_load_errors = 0;  ///< image LOAD attempts that failed
  uint64_t latency_hist[kLatencyBuckets] = {};
  double uptime_ms = 0.0;
  /// Aggregated per-phase solver telemetry (obs::AggregateRecorder
  /// totals across every query served by every session).
  obs::AggregateRecorder::Totals telemetry;

  uint64_t TotalRequests() const;
  uint64_t TotalErrors() const;
  uint64_t TotalQueries() const;  ///< CST + CSM + MULTI recorded latencies

  /// Latency percentile estimate in microseconds: the inclusive upper
  /// bound of the histogram bucket holding the nearest-rank sample
  /// (rank = ceil(p * total), clamped to [1, total]). Exact for counts
  /// that land a bucket boundary: p = 1.0 selects the slowest sample's
  /// bucket, a single sample selects its own bucket, and sub-microsecond
  /// samples report 0. 0 when no query has been recorded.
  uint64_t LatencyPercentileUs(double p) const;

  /// Renders the one-line `OK ...` STATS reply. `inflight`/`queued` come
  /// from the admission controller and `graphs` from the registry, so the
  /// caller threads them in.
  std::string RenderStatsLine(unsigned inflight, unsigned queued,
                              size_t graphs) const;
};

/// See the file comment. All methods are thread-safe and wait-free.
class ServerMetrics {
 public:
  ServerMetrics() = default;
  ServerMetrics(const ServerMetrics&) = delete;
  ServerMetrics& operator=(const ServerMetrics&) = delete;

  void CountRequest(Verb verb) {
    requests_by_verb_[static_cast<size_t>(verb)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void CountError(WireError error) {
    errors_by_kind_[static_cast<size_t>(error)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void CountRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void CountInterrupted() {
    interrupted_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountIoTimeout() {
    io_timeouts_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountIdleReaped() {
    idle_reaped_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountQueryAttempted() {
    q_attempted_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountQueryCompleted() {
    q_completed_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountQueryFailed() {
    q_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountSessionOpened() {
    sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Release, paired with Snapshot's acquire load: a snapshot that sees
  /// a close also sees the open before it.
  void CountSessionClosed() {
    sessions_closed_.fetch_add(1, std::memory_order_release);
  }
  void CountCacheHit() {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountCacheMiss() {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountCacheInsert() {
    cache_inserts_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountCacheEvictions(uint64_t n) {
    if (n != 0) cache_evictions_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountImageLoad() {
    image_loads_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountImageLoadError() {
    image_load_errors_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one query's latency into the histogram.
  void RecordLatencyUs(uint64_t us);

  /// The telemetry sink sessions attach to their solvers; its per-phase
  /// totals ride along in Snapshot() and the STATS line.
  obs::AggregateRecorder& recorder() { return recorder_; }

  MetricsSnapshot Snapshot() const;

 private:
  obs::AggregateRecorder recorder_;
  std::array<std::atomic<uint64_t>, kNumVerbs> requests_by_verb_ = {};
  std::array<std::atomic<uint64_t>, kNumWireErrors> errors_by_kind_ = {};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> interrupted_{0};
  std::atomic<uint64_t> io_timeouts_{0};
  std::atomic<uint64_t> idle_reaped_{0};
  std::atomic<uint64_t> q_attempted_{0};
  std::atomic<uint64_t> q_completed_{0};
  std::atomic<uint64_t> q_failed_{0};
  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> cache_inserts_{0};
  std::atomic<uint64_t> cache_evictions_{0};
  std::atomic<uint64_t> image_loads_{0};
  std::atomic<uint64_t> image_load_errors_{0};
  std::array<std::atomic<uint64_t>, MetricsSnapshot::kLatencyBuckets>
      latency_hist_ = {};
  WallTimer uptime_;
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_METRICS_H_

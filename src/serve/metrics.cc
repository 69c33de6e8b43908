#include "serve/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace locs::serve {

namespace {

/// Bucket index for a latency: bucket b >= 1 counts latencies in
/// [2^(b-1), 2^b - 1] us, bucket 0 exactly 0 us (sub-microsecond), and
/// the last bucket is open-ended.
int BucketOf(uint64_t us) {
  const int bucket = us == 0 ? 0 : static_cast<int>(std::bit_width(us));
  return bucket < MetricsSnapshot::kLatencyBuckets
             ? bucket
             : MetricsSnapshot::kLatencyBuckets - 1;
}

/// Largest latency bucket `b` can hold (the value percentile queries
/// report): the inclusive bound 2^b - 1, or 0 for the zero bucket — the
/// open-ended last bucket saturates at its nominal bound.
uint64_t BucketUpperBoundUs(int b) {
  return b == 0 ? 0 : (uint64_t{1} << b) - 1;
}

void Append(std::string* out, const char* key, uint64_t value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " %s=%" PRIu64, key, value);
  *out += buffer;
}

}  // namespace

void ServerMetrics::RecordLatencyUs(uint64_t us) {
  latency_hist_[static_cast<size_t>(BucketOf(us))].fetch_add(
      1, std::memory_order_relaxed);
}

MetricsSnapshot ServerMetrics::Snapshot() const {
  MetricsSnapshot snap;
  for (int v = 0; v < kNumVerbs; ++v) {
    snap.requests_by_verb[v] =
        requests_by_verb_[static_cast<size_t>(v)].load(
            std::memory_order_relaxed);
  }
  for (int e = 0; e < kNumWireErrors; ++e) {
    snap.errors_by_kind[e] = errors_by_kind_[static_cast<size_t>(e)].load(
        std::memory_order_relaxed);
  }
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  snap.interrupted = interrupted_.load(std::memory_order_relaxed);
  snap.io_timeouts = io_timeouts_.load(std::memory_order_relaxed);
  snap.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  snap.q_attempted = q_attempted_.load(std::memory_order_relaxed);
  snap.q_completed = q_completed_.load(std::memory_order_relaxed);
  snap.q_failed = q_failed_.load(std::memory_order_relaxed);
  // Closed before opened: both only grow and closed <= opened at every
  // instant, so the later load of opened is at least the closed count
  // and sessions_open (opened - closed) cannot wrap. The other order
  // could miss an open whose close the second load saw.
  snap.sessions_closed = sessions_closed_.load(std::memory_order_acquire);
  snap.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  snap.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  snap.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  snap.cache_inserts = cache_inserts_.load(std::memory_order_relaxed);
  snap.cache_evictions = cache_evictions_.load(std::memory_order_relaxed);
  snap.image_loads = image_loads_.load(std::memory_order_relaxed);
  snap.image_load_errors =
      image_load_errors_.load(std::memory_order_relaxed);
  for (int b = 0; b < MetricsSnapshot::kLatencyBuckets; ++b) {
    snap.latency_hist[b] =
        latency_hist_[static_cast<size_t>(b)].load(
            std::memory_order_relaxed);
  }
  snap.uptime_ms = uptime_.Millis();
  snap.telemetry = recorder_.Snapshot();
  return snap;
}

uint64_t MetricsSnapshot::TotalRequests() const {
  uint64_t total = 0;
  for (const uint64_t count : requests_by_verb) total += count;
  return total;
}

uint64_t MetricsSnapshot::TotalErrors() const {
  uint64_t total = 0;
  for (const uint64_t count : errors_by_kind) total += count;
  // kNone is never counted as an error, but guard against misuse.
  return total - errors_by_kind[static_cast<size_t>(WireError::kNone)];
}

uint64_t MetricsSnapshot::TotalQueries() const {
  uint64_t total = 0;
  for (const uint64_t count : latency_hist) total += count;
  return total;
}

uint64_t MetricsSnapshot::LatencyPercentileUs(double p) const {
  const uint64_t total = TotalQueries();
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the percentile sample, 1-based: exact ceil(p * total) clamped
  // to [1, total], so p = 1.0 selects the last sample and a single-sample
  // histogram always selects that sample (no additive fudge that could
  // push the rank past the population).
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(total)));
  rank = std::min(std::max<uint64_t>(rank, 1), total);
  uint64_t cumulative = 0;
  for (int b = 0; b < kLatencyBuckets; ++b) {
    cumulative += latency_hist[b];
    if (cumulative >= rank) return BucketUpperBoundUs(b);
  }
  return BucketUpperBoundUs(kLatencyBuckets - 1);
}

std::string MetricsSnapshot::RenderStatsLine(unsigned inflight,
                                             unsigned queued,
                                             size_t graphs) const {
  std::string line = "OK";
  Append(&line, "uptime_ms", static_cast<uint64_t>(uptime_ms));
  Append(&line, "graphs", graphs);
  Append(&line, "sessions_open", sessions_opened - sessions_closed);
  Append(&line, "sessions_total", sessions_opened);
  Append(&line, "inflight", inflight);
  Append(&line, "queued", queued);
  Append(&line, "requests", TotalRequests());
  for (int v = 0; v < kNumVerbs; ++v) {
    const auto verb = static_cast<Verb>(v);
    if (verb == Verb::kNone || requests_by_verb[v] == 0) continue;
    std::string key = "verb_";
    for (const char c : VerbName(verb)) {
      key += static_cast<char>(c - 'A' + 'a');
    }
    Append(&line, key.c_str(), requests_by_verb[v]);
  }
  Append(&line, "errors", TotalErrors());
  for (int e = 0; e < kNumWireErrors; ++e) {
    const auto kind = static_cast<WireError>(e);
    if (kind == WireError::kNone || errors_by_kind[e] == 0) continue;
    std::string key = "err_";
    key += WireErrorName(kind);
    Append(&line, key.c_str(), errors_by_kind[e]);
  }
  Append(&line, "rejected", rejected);
  Append(&line, "interrupted", interrupted);
  Append(&line, "io_timeouts", io_timeouts);
  Append(&line, "idle_reaped", idle_reaped);
  Append(&line, "q_attempted", q_attempted);
  Append(&line, "q_completed", q_completed);
  Append(&line, "q_failed", q_failed);
  // Nothing sheds; the key stays, always 0, because perfbench parses it.
  Append(&line, "q_shed", 0);
  Append(&line, "cache_hits", cache_hits);
  Append(&line, "cache_misses", cache_misses);
  Append(&line, "cache_inserts", cache_inserts);
  Append(&line, "cache_evictions", cache_evictions);
  Append(&line, "image_loads", image_loads);
  Append(&line, "image_load_errors", image_load_errors);
  Append(&line, "queries", TotalQueries());
  Append(&line, "p50_us", LatencyPercentileUs(0.50));
  Append(&line, "p95_us", LatencyPercentileUs(0.95));
  // Aggregated per-phase solver telemetry. Phases no query entered are
  // omitted, so the key set is deterministic for a scripted session; the
  // only wall-clock-dependent values end in _ns (maskable, like _us).
  Append(&line, "solver_queries", telemetry.queries);
  Append(&line, "solver_fallbacks", telemetry.fallbacks);
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    const obs::PhaseStats& ph =
        telemetry.sum.phases[i];
    if (ph.entered == 0) continue;
    std::string prefix = "ph_";
    prefix += obs::PhaseName(static_cast<obs::Phase>(i));
    Append(&line, (prefix + "_entered").c_str(), ph.entered);
    Append(&line, (prefix + "_visited").c_str(), ph.vertices_visited);
    Append(&line, (prefix + "_scanned").c_str(), ph.edges_scanned);
    Append(&line, (prefix + "_cand_gen").c_str(), ph.candidates_generated);
    Append(&line, (prefix + "_cand_rej").c_str(), ph.candidates_rejected);
    Append(&line, (prefix + "_budget").c_str(), ph.budget_spent);
    Append(&line, (prefix + "_ns").c_str(), ph.duration_ns);
  }
  return line;
}

}  // namespace locs::serve

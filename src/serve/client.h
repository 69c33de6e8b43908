// RetryClient — a self-healing wire-protocol client.
//
// The raw FdTransport client (one connect, lockstep, die on the first
// failure) is the right tool for scripted tests, but a production
// caller talking to a restartable daemon needs a recovery discipline:
//
//   - transparent reconnect: a dead connection is re-dialed on the next
//     request, so a daemon restart mid-run costs retries, not the run;
//   - exponential backoff with decorrelated jitter between attempts
//     (sleep ~ uniform(base, 3 * previous), capped), so a fleet of
//     clients re-dialing a restarting daemon spreads out instead of
//     stampeding in lockstep;
//   - BUSY discipline: a BUSY reply is the server's session cap
//     turning the connection away on purpose; the client hangs up,
//     backs off and burns an attempt, without counting it toward the
//     circuit breaker;
//   - per-request deadline: one Request() call never exceeds
//     request_deadline_ms wall time across all its attempts, and the
//     same bound caps each blocked read (a hung-but-connected server
//     cannot park the caller);
//   - circuit breaker: after `breaker_threshold` consecutive transport
//     failures the client stops dialing for breaker_cooldown_ms, then
//     half-opens with a PING probe; only a pong closes the breaker and
//     lets real traffic flow. A crashed daemon costs each client one
//     cheap probe per cooldown, not a connect storm.
//
// Sessions hold no solver state on the server (each query leases a
// searcher from the shared GraphRegistry), and the wire protocol is
// request/response — a reconnected session serves any request — so
// retrying across connections is safe for every verb. Not thread-safe:
// one RetryClient per client thread, like one Transport per session.

#ifndef LOCS_SERVE_CLIENT_H_
#define LOCS_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace locs::serve {

struct RetryClientOptions {
  uint16_t port = 0;  ///< loopback TCP port of the daemon
  /// Wall-time cap on one Request() incl. every retry and backoff
  /// sleep; also the per-read transport deadline. 0 = unbounded.
  uint64_t request_deadline_ms = 0;
  /// Total attempts per request (1 = fail on the first error; the
  /// legacy lockstep behavior).
  unsigned max_attempts = 1;
  uint64_t backoff_base_ms = 10;  ///< first retry sleeps >= this
  uint64_t backoff_cap_ms = 2000;
  /// Consecutive transport failures that open the breaker; 0 disables
  /// the breaker entirely.
  unsigned breaker_threshold = 5;
  uint64_t breaker_cooldown_ms = 500;  ///< open time before a probe
  uint64_t jitter_seed = 0x5eed;       ///< deterministic jitter stream
};

/// See the file comment.
class RetryClient {
 public:
  /// Counters for tests and the bench's recovery report.
  struct Stats {
    uint64_t connects = 0;       ///< successful dials (incl. the first)
    uint64_t retries = 0;        ///< attempts after the first, any cause
    uint64_t busy_honored = 0;   ///< BUSY replies waited out
    uint64_t breaker_opens = 0;  ///< closed/half-open -> open transitions
    uint64_t probes = 0;         ///< half-open PING probes sent
  };

  explicit RetryClient(const RetryClientOptions& options);
  ~RetryClient();

  RetryClient(const RetryClient&) = delete;
  RetryClient& operator=(const RetryClient&) = delete;

  /// Sends one request line and delivers its reply line, reconnecting
  /// and retrying per the options. False when every attempt failed (or
  /// the deadline expired); `*reply` then holds a diagnostic. A BUSY
  /// reply on the final attempt is returned as the reply (true).
  bool Request(std::string_view request, std::string* reply);

  /// Drops the current connection (next Request re-dials).
  void Disconnect();

  bool connected() const { return fd_ >= 0; }
  const Stats& stats() const { return stats_; }

 private:
  enum class Breaker : uint8_t { kClosed, kOpen, kHalfOpen };

  /// One write+read on the live connection. False = transport failure
  /// (connection dropped on exit).
  bool Exchange(std::string_view request, std::string* reply);

  /// Ensures a live connection, probing through the breaker state
  /// machine. False when dialing failed or the breaker is open with
  /// cooldown remaining (sets *wait_ms to the remaining cooldown).
  bool EnsureConnected(uint64_t* wait_ms);

  void NoteTransportFailure();

  /// Decorrelated-jitter step: advances prev_backoff_ms_ and returns it.
  uint64_t NextBackoffMs();

  const RetryClientOptions options_;
  Rng rng_;
  int fd_ = -1;
  Stats stats_;
  unsigned consecutive_failures_ = 0;
  Breaker breaker_ = Breaker::kClosed;
  uint64_t breaker_opened_at_ms_ = 0;
  uint64_t prev_backoff_ms_ = 0;
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_CLIENT_H_

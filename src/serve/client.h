// RetryClient — a self-healing wire-protocol client.
//
// The raw FdTransport client (one connect, lockstep, die on the first
// failure) is the right tool for scripted tests, but a caller talking
// to a restartable daemon needs to ride out a restart:
//
//   - reconnect: a dead connection is re-dialed on the next attempt, so
//     a daemon restart mid-run costs retries, not the run;
//   - capped exponential backoff: the sleep after failed attempt a is
//     min(1000 ms, 10 ms << (a - 1));
//   - BUSY: a BUSY reply is the server's session cap turning the
//     connection away on purpose; the client hangs up, backs off and
//     retries like after a transport failure;
//   - per-request deadline: every backoff sleep and every transport wait
//     is cut to what is left of request_deadline_ms, so a dead or silent
//     server cannot hold one Request() past it. (A server that trickles
//     part of a reply line can stretch the read it started by as much
//     again: the transport restarts its clock at the first byte.)
//
// Sessions hold no solver state on the server (each query leases a
// searcher from the shared GraphRegistry), and the wire protocol is
// request/response — a reconnected session serves any request — so
// retrying across connections is safe for every verb. Not thread-safe:
// one RetryClient per client thread, like one FdTransport per session.

#ifndef LOCS_SERVE_CLIENT_H_
#define LOCS_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace locs::serve {

struct RetryClientOptions {
  uint16_t port = 0;  ///< loopback TCP port of the daemon
  /// Wall-time cap on one Request() incl. every retry and backoff
  /// sleep; each attempt's reads and writes get what is left of it.
  /// 0 = unbounded.
  uint64_t request_deadline_ms = 0;
  /// Total attempts per request (1 = fail on the first error; the
  /// legacy lockstep behavior).
  unsigned max_attempts = 1;
};

/// See the file comment.
class RetryClient {
 public:
  /// Counters for tests and the bench's recovery report.
  struct Stats {
    uint64_t connects = 0;      ///< successful dials (incl. the first)
    uint64_t retries = 0;       ///< attempts after the first, any cause
    uint64_t busy_honored = 0;  ///< BUSY replies waited out
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
  const RetryClientOptions options_;
  int fd_ = -1;
  Stats stats_;
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_CLIENT_H_

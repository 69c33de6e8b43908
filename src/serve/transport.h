// FdTransport — byte streams under the wire protocol.
//
// The session layer speaks lines; the transport turns POSIX file
// descriptors into lines. One class covers both deployment modes:
// FdTransport(0, 1) is the stdio transport (tests, pipes, inetd-style
// supervision), FdTransport(fd, fd) wraps an accepted TCP socket, which
// the server makes non-blocking. Every read and every write first waits
// in poll(2), so a write waits for room there, never inside write(2).
//
// Overlong lines are a protocol error, not a buffering hazard: once a
// line passes kMaxLineBytes the reader discards bytes until the next
// newline and reports kTooLong, so a hostile peer cannot make the
// server buffer unbounded input, and the session stays usable for the
// next request.
//
// Lifecycle guards (all opt-in via FdTransportOptions; with none set a
// wait has no deadline and no wake fd, so it ends only when the fd is
// ready):
//
//   - io_timeout_ms bounds the wall time a peer may take to finish a
//     request it has started (first byte seen -> newline) and the time a
//     reply write may stall on a full socket buffer. This is the
//     slowloris defense: drip-feeding one byte at a time buys the peer
//     nothing, because the clock starts at the first byte and never
//     resets.
//   - idle_timeout_ms bounds the quiet gap between requests, so an
//     abandoned-but-open connection cannot pin a session slot forever.
//   - wake_fd, when set, is polled beside the session's fd in every
//     wait. The server makes it readable once, when it starts to drain,
//     and never drains it, so no wait can miss it. The session's own fd
//     wins: while the peer can take a reply or has sent bytes, the wait
//     reports ready, so an admitted query's reply is still written and
//     a request already sent is still read. Only a wait the peer leaves
//     unready ends at drain, so a daemon draining on SIGTERM reclaims
//     sessions parked on silent peers, on the read side or the write
//     side, without waiting for them. (A peer that never stops sending
//     is bounded by io_timeout_ms, not by the drain.)

#ifndef LOCS_SERVE_TRANSPORT_H_
#define LOCS_SERVE_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace locs::serve {

/// Deadline policy for FdTransport. Zeros + no wake fd = no limits.
struct FdTransportOptions {
  uint64_t io_timeout_ms = 0;    ///< mid-request / write stall cap; 0 = none
  uint64_t idle_timeout_ms = 0;  ///< between-requests cap; 0 = none
  int wake_fd = -1;  ///< readable once the server drains; -1 = none
};

/// Line-oriented transport over a POSIX read/write fd pair. Does not own
/// the fds: the caller closes them after the transport is gone.
class FdTransport {
 public:
  enum class ReadStatus : uint8_t {
    kLine,         ///< *line holds the next request (newline stripped)
    kEof,          ///< orderly end of stream (or drain on a silent peer)
    kTooLong,      ///< line exceeded kMaxLineBytes; discarded to newline
    kError,        ///< unrecoverable read failure (errno-level)
    kTimeout,      ///< peer stalled mid-request past io_timeout_ms
    kIdleTimeout,  ///< no request started within idle_timeout_ms
  };

  FdTransport(int read_fd, int write_fd, FdTransportOptions options = {})
      : read_fd_(read_fd), write_fd_(write_fd), options_(options) {}

  FdTransport(const FdTransport&) = delete;
  FdTransport& operator=(const FdTransport&) = delete;

  /// Blocks for the next line. A trailing '\r' (CRLF peers) is stripped;
  /// embedded NULs are preserved for the parser to reject.
  ReadStatus ReadLine(std::string* line);

  /// Writes `reply` plus a newline. False on a write failure (peer gone).
  bool WriteLine(std::string_view reply);

  /// True when the most recent WriteLine failure was a deadline expiry
  /// rather than a peer-gone error (metrics attribute them differently).
  bool WriteTimedOut() const { return write_timed_out_; }

 private:
  enum class WaitResult : uint8_t { kReady, kTimeout, kStop, kError };

  /// Polls `fd` for `events` until ready, `deadline_ms` (absolute
  /// monotonic; 0 = unbounded) expires, the wake fd turns readable while
  /// `fd` is not ready, or a hard error.
  WaitResult Wait(int fd, short events, uint64_t deadline_ms) const;

  /// Refills buffer_; returns bytes read (0 = EOF, -1 = error).
  long Refill();

  const int read_fd_;
  const int write_fd_;
  const FdTransportOptions options_;
  std::string buffer_;     ///< bytes read but not yet consumed
  size_t buffer_pos_ = 0;  ///< consumption cursor into buffer_
  /// A read failure was deferred so the buffered partial line it
  /// interrupted could be surfaced first; reported by the next ReadLine.
  bool pending_error_ = false;
  bool write_timed_out_ = false;  ///< last WriteLine failure was a timeout
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_TRANSPORT_H_

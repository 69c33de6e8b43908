#include "serve/transport.h"

#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>

#include "serve/wire.h"
#include "util/failpoint.h"

namespace locs::serve {

namespace {

constexpr size_t kReadChunk = 4096;

/// Injected read-side stall length for serve.transport.read_delay —
/// long enough to straddle the small io-timeouts chaos runs configure,
/// short enough not to dominate a soak.
constexpr uint64_t kInjectedReadDelayMs = 50;

uint64_t NowMs() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000u +
         static_cast<uint64_t>(ts.tv_nsec) / 1000000u;
}

void SleepMs(uint64_t ms) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace

FdTransport::WaitResult FdTransport::Wait(int fd, short events,
                                          uint64_t deadline_ms) const {
  while (true) {
    int timeout = -1;
    if (deadline_ms != 0) {
      const uint64_t now = NowMs();
      if (now >= deadline_ms) return WaitResult::kTimeout;
      timeout = static_cast<int>(
          std::min<uint64_t>(deadline_ms - now, INT_MAX));
    }
    // poll() skips a negative fd, so without a wake fd this is a
    // one-fd wait.
    struct pollfd pfds[2];
    pfds[0] = {fd, events, 0};
    pfds[1] = {options_.wake_fd, POLLIN, 0};
    const int rc = ::poll(pfds, 2, timeout);
    if (rc < 0 && errno != EINTR) return WaitResult::kError;
    // The session's fd first: a reply the peer can take is written and
    // a request it sent is read, drain or not. Readiness includes
    // POLLHUP/POLLERR: the read()/write() that follows surfaces the EOF
    // or errno, which the caller already handles.
    if (rc > 0 && pfds[0].revents != 0) return WaitResult::kReady;
    if (rc > 0 && pfds[1].revents != 0) return WaitResult::kStop;
    // rc == 0 (deadline reached) or EINTR: loop re-checks the deadline.
  }
}

long FdTransport::Refill() {
  // Compact instead of growing without bound: drop consumed bytes once
  // the cursor passes the chunk size.
  if (buffer_pos_ >= kReadChunk) {
    buffer_.erase(0, buffer_pos_);
    buffer_pos_ = 0;
  }
  char chunk[kReadChunk];
  while (true) {
    const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
    if (n >= 0) {
      if (n > 0) buffer_.append(chunk, static_cast<size_t>(n));
      return static_cast<long>(n);
    }
    if (errno != EINTR) return -1;
  }
}

FdTransport::ReadStatus FdTransport::ReadLine(std::string* line) {
  line->clear();
  if (pending_error_) {
    // The previous call surfaced a buffered partial line ahead of a read
    // failure; deliver the deferred error now.
    pending_error_ = false;
    return ReadStatus::kError;
  }
  if (LOCS_FAILPOINT("serve.transport.read_error")) {
    return ReadStatus::kError;
  }
  if (LOCS_FAILPOINT("serve.transport.read_delay")) {
    SleepMs(kInjectedReadDelayMs);
  }
  const uint64_t now = NowMs();
  uint64_t idle_deadline = 0;
  uint64_t io_deadline = 0;
  if (options_.idle_timeout_ms != 0) {
    idle_deadline = now + options_.idle_timeout_ms;
  }
  // Bytes of the next line already buffered mean the request is in
  // flight: the io clock starts now, not at the next read syscall.
  if (options_.io_timeout_ms != 0 && buffer_pos_ < buffer_.size()) {
    io_deadline = now + options_.io_timeout_ms;
  }
  bool overflow = false;
  while (true) {
    const size_t newline = buffer_.find('\n', buffer_pos_);
    if (newline != std::string::npos) {
      if (!overflow) {
        line->assign(buffer_, buffer_pos_, newline - buffer_pos_);
        if (!line->empty() && line->back() == '\r') line->pop_back();
      }
      buffer_pos_ = newline + 1;
      return overflow ? ReadStatus::kTooLong : ReadStatus::kLine;
    }
    // No newline buffered yet. Enforce the line cap before reading more
    // so a peer streaming an endless line cannot grow the buffer.
    if (!overflow && buffer_.size() - buffer_pos_ > kMaxLineBytes) {
      overflow = true;
    }
    if (overflow) {
      // Discard everything pending; keep scanning for the newline.
      buffer_.clear();
      buffer_pos_ = 0;
    }
    // Mid-request once the io clock is running (or an overflow discard
    // is in progress); idle otherwise. The io deadline is absolute — it
    // never resets on partial progress, so a drip-feeding peer is
    // bounded by io_timeout_ms total, not per byte.
    const bool mid_request = io_deadline != 0 || overflow;
    const uint64_t deadline = mid_request ? io_deadline : idle_deadline;
    switch (Wait(read_fd_, POLLIN, deadline)) {
      case WaitResult::kReady:
        break;
      case WaitResult::kTimeout:
        return mid_request ? ReadStatus::kTimeout : ReadStatus::kIdleTimeout;
      case WaitResult::kStop:
        return ReadStatus::kEof;
      case WaitResult::kError:
        return ReadStatus::kError;
    }
    const long n = Refill();
    if (n <= 0) {
      // Stream over (orderly EOF or errno-level failure). Either way a
      // buffered unterminated line is a complete request the peer already
      // sent — surface it first (common with printf-piped scripts lacking
      // the last newline, and with peers torn down mid-session); a read
      // error is then re-reported by the next call.
      if (!overflow && buffer_pos_ < buffer_.size()) {
        line->assign(buffer_, buffer_pos_, buffer_.size() - buffer_pos_);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        buffer_pos_ = buffer_.size();
        pending_error_ = n < 0;
        return ReadStatus::kLine;
      }
      if (n < 0) return ReadStatus::kError;
      return overflow ? ReadStatus::kTooLong : ReadStatus::kEof;
    }
    // First bytes of this request: start the io clock.
    if (io_deadline == 0 && options_.io_timeout_ms != 0) {
      io_deadline = NowMs() + options_.io_timeout_ms;
    }
  }
}

bool FdTransport::WriteLine(std::string_view reply) {
  write_timed_out_ = false;
  if (LOCS_FAILPOINT("serve.transport.write_error")) {
    return false;
  }
  std::string framed;
  framed.reserve(reply.size() + 1);
  framed.append(reply);
  framed.push_back('\n');
  if (LOCS_FAILPOINT("serve.transport.partial_write")) {
    // Tear the reply: emit a prefix so the peer sees a malformed line,
    // then report failure as if the connection dropped mid-write.
    const ssize_t ignored =
        ::write(write_fd_, framed.data(), framed.size() / 2);
    (void)ignored;
    return false;
  }
  const uint64_t deadline =
      options_.io_timeout_ms != 0 ? NowMs() + options_.io_timeout_ms : 0;
  size_t written = 0;
  while (written < framed.size()) {
    switch (Wait(write_fd_, POLLOUT, deadline)) {
      case WaitResult::kReady:
        break;
      case WaitResult::kTimeout:
        write_timed_out_ = true;
        return false;
      case WaitResult::kStop:
      case WaitResult::kError:
        return false;
    }
    const ssize_t n =
        ::write(write_fd_, framed.data() + written, framed.size() - written);
    if (n < 0) {
      // EAGAIN: a non-blocking socket filled up; wait for room again.
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace locs::serve

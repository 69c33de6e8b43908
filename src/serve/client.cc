#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "serve/transport.h"
#include "serve/wire.h"

namespace locs::serve {

namespace {

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

/// Dials 127.0.0.1:port; -1 on failure.
int Dial(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

RetryClient::RetryClient(const RetryClientOptions& options)
    : options_(options), rng_(options.jitter_seed) {
  // A reply write against a vanished daemon must fail as a bool, not a
  // SIGPIPE kill — same contract as the server side.
  std::signal(SIGPIPE, SIG_IGN);
}

RetryClient::~RetryClient() { Disconnect(); }

void RetryClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

uint64_t RetryClient::NextBackoffMs() {
  // Decorrelated jitter (AWS architecture blog variant): sleep is drawn
  // uniformly from [base, 3 * previous], so consecutive retries both
  // grow and decorrelate across clients sharing a restart moment.
  const uint64_t base = std::max<uint64_t>(1, options_.backoff_base_ms);
  const uint64_t high =
      std::max(base, std::min(options_.backoff_cap_ms,
                              3 * std::max(prev_backoff_ms_, base)));
  const uint64_t span = high - base + 1;
  prev_backoff_ms_ = base + rng_.Next() % span;
  return prev_backoff_ms_;
}

void RetryClient::NoteTransportFailure() {
  Disconnect();
  if (options_.breaker_threshold == 0) return;
  ++consecutive_failures_;
  if (breaker_ == Breaker::kHalfOpen ||
      (breaker_ == Breaker::kClosed &&
       consecutive_failures_ >= options_.breaker_threshold)) {
    // A failed probe re-opens; enough consecutive failures open.
    breaker_ = Breaker::kOpen;
    breaker_opened_at_ms_ = NowMs();
    ++stats_.breaker_opens;
  }
}

bool RetryClient::EnsureConnected(uint64_t* wait_ms) {
  *wait_ms = 0;
  if (breaker_ == Breaker::kOpen) {
    const uint64_t now = NowMs();
    const uint64_t since = now - breaker_opened_at_ms_;
    if (since < options_.breaker_cooldown_ms) {
      *wait_ms = options_.breaker_cooldown_ms - since;
      return false;
    }
    breaker_ = Breaker::kHalfOpen;
  }
  if (fd_ < 0) {
    fd_ = Dial(options_.port);
    if (fd_ < 0) {
      NoteTransportFailure();
      return false;
    }
    ++stats_.connects;
  }
  if (breaker_ == Breaker::kHalfOpen) {
    // Half-open: one PING must round-trip before real traffic flows.
    ++stats_.probes;
    std::string pong;
    if (!Exchange("PING", &pong) || pong.compare(0, 2, "OK") != 0) {
      NoteTransportFailure();
      return false;
    }
    breaker_ = Breaker::kClosed;
    consecutive_failures_ = 0;
  }
  return true;
}

bool RetryClient::Exchange(std::string_view request, std::string* reply) {
  // The transport deadline doubles as the per-read bound: a connected
  // but hung daemon surfaces as kTimeout instead of parking the caller.
  FdTransportOptions transport_options;
  transport_options.io_timeout_ms = options_.request_deadline_ms;
  transport_options.idle_timeout_ms = options_.request_deadline_ms;
  FdTransport transport(fd_, fd_, transport_options);
  if (!transport.WriteLine(request) ||
      transport.ReadLine(reply) != FdTransport::ReadStatus::kLine) {
    Disconnect();
    return false;
  }
  return true;
}

bool RetryClient::Request(std::string_view request, std::string* reply) {
  const uint64_t deadline =
      options_.request_deadline_ms == 0
          ? 0
          : NowMs() + options_.request_deadline_ms;
  const unsigned max_attempts = std::max(1u, options_.max_attempts);
  // Backoff sleeps never overshoot the request deadline: the point of
  // the deadline is that Request() returns by then, not shortly after.
  const auto sleep_bounded = [deadline](uint64_t ms) {
    if (deadline != 0) {
      const uint64_t now = NowMs();
      ms = std::min(ms, deadline > now ? deadline - now : 0);
    }
    if (ms != 0) SleepMs(ms);
  };
  std::string last_error = "no attempt made";
  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) ++stats_.retries;
    if (deadline != 0 && NowMs() >= deadline) {
      *reply = "deadline exceeded after " + std::to_string(attempt - 1) +
               " attempts: " + last_error;
      return false;
    }
    uint64_t breaker_wait_ms = 0;
    if (!EnsureConnected(&breaker_wait_ms)) {
      last_error = breaker_wait_ms != 0 ? "circuit breaker open"
                                        : "connect/probe failed";
    } else if (!Exchange(request, reply)) {
      NoteTransportFailure();
      last_error = "connection lost mid-request";
    } else {
      if (!IsBusyReply(*reply)) {
        // A real reply (OK or typed ERR): the server is healthy.
        consecutive_failures_ = 0;
        prev_backoff_ms_ = 0;
        return true;
      }
      // BUSY is the session cap turning the connection away, not a
      // failure: it never opens the breaker. The server hangs up after
      // it, so the retry re-dials after a backoff. On the final attempt
      // the BUSY line itself is the answer.
      Disconnect();
      consecutive_failures_ = 0;
      if (attempt == max_attempts) return true;
      ++stats_.busy_honored;
      sleep_bounded(NextBackoffMs());
      last_error = "server busy";
      continue;
    }
    if (attempt == max_attempts) break;
    sleep_bounded(std::max(breaker_wait_ms, NextBackoffMs()));
  }
  *reply = "request failed after " + std::to_string(max_attempts) +
           " attempts: " + last_error;
  return false;
}

}  // namespace locs::serve

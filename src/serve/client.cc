#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>

#include "serve/transport.h"
#include "serve/wire.h"

namespace locs::serve {

namespace {

constexpr uint64_t kBackoffBaseMs = 10;    ///< sleep after the first failure
constexpr uint64_t kBackoffCapMs = 1000;  ///< no sleep is longer

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
    : options_(options) {
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

bool RetryClient::Request(std::string_view request, std::string* reply) {
  const uint64_t deadline =
      options_.request_deadline_ms == 0
          ? 0
          : NowMs() + options_.request_deadline_ms;
  // What is left of the deadline; only meaningful when deadline != 0.
  const auto time_left = [deadline] {
    const uint64_t now = NowMs();
    return deadline > now ? deadline - now : 0;
  };
  const unsigned max_attempts = std::max(1u, options_.max_attempts);
  std::string last_error = "no attempt made";
  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      ++stats_.retries;
      // Sleeps never overshoot the deadline: the point of the deadline
      // is that Request() returns by then, not shortly after. (The
      // shift stops at 7, where 10 ms << 7 already passes the cap.)
      uint64_t sleep_ms =
          std::min(kBackoffCapMs, kBackoffBaseMs << std::min(attempt - 2, 7u));
      if (deadline != 0) sleep_ms = std::min(sleep_ms, time_left());
      SleepMs(sleep_ms);
    }
    if (deadline != 0 && NowMs() >= deadline) {
      *reply = "deadline exceeded after " + std::to_string(attempt - 1) +
               " attempts: " + last_error;
      return false;
    }
    if (fd_ < 0) {
      fd_ = Dial(options_.port);
      if (fd_ < 0) {
        last_error = "connect failed";
        continue;
      }
      ++stats_.connects;
    }
    // Every wait of this exchange gets what is left of the deadline, so
    // a connected but silent daemon surfaces as a timeout by then.
    FdTransportOptions waits;
    if (deadline != 0) {
      waits.io_timeout_ms = waits.idle_timeout_ms =
          std::max<uint64_t>(1, time_left());
    }
    FdTransport transport(fd_, fd_, waits);
    if (!transport.WriteLine(request) ||
        transport.ReadLine(reply) != FdTransport::ReadStatus::kLine) {
      Disconnect();
      last_error = "connection lost mid-request";
      continue;
    }
    if (!IsBusyReply(*reply)) return true;  // OK or a typed ERR
    // BUSY is the session cap turning the connection away; the server
    // hangs up after it, so the retry re-dials after a backoff. On the
    // final attempt the BUSY line itself is the answer.
    Disconnect();
    if (attempt == max_attempts) return true;
    ++stats_.busy_honored;
    last_error = "server busy";
  }
  *reply = "request failed after " + std::to_string(max_attempts) +
           " attempts: " + last_error;
  return false;
}

}  // namespace locs::serve

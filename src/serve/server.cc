#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "serve/transport.h"
#include "util/failpoint.h"

namespace locs::serve {

namespace {

/// locsd replies over pipes and sockets whose peer may vanish at any
/// moment; a failed write must surface as a bool, not a SIGPIPE kill.
void IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }

bool WritePortFile(const std::string& path, uint16_t port) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fprintf(file, "%u\n", unsigned{port}) > 0;
  return (std::fclose(file) == 0) && ok;
}

}  // namespace

CommunityServer::CommunityServer(const ServerOptions& options)
    : options_(options),
      registry_(options.max_graphs),
      admission_(options.max_inflight),
      cache_(options.cache_entries) {
  if (::pipe(wake_pipe_) != 0) {
    throw std::system_error(errno, std::generic_category(), "wake pipe");
  }
}

CommunityServer::~CommunityServer() {
  for (const int fd : {listen_fd_, wake_pipe_[0], wake_pipe_[1]}) {
    if (fd >= 0) ::close(fd);
  }
}

bool CommunityServer::Preload(std::string* error) {
  for (const auto& [name, path] : options_.preload) {
    IoError io_error;
    bool full = false;
    if (registry_.Load(name, path, &io_error, &full) == nullptr) {
      if (error != nullptr) {
        *error = full ? "registry full while preloading '" + name + "'"
                      : "preload '" + name + "' from '" + path + "': " +
                            io_error.message;
      }
      return false;
    }
  }
  return true;
}

void CommunityServer::RunSession(int read_fd, int write_fd) {
  FdTransportOptions transport_options;
  transport_options.io_timeout_ms = options_.io_timeout_ms;
  transport_options.idle_timeout_ms = options_.idle_timeout_ms;
  transport_options.wake_fd = wake_pipe_[0];
  FdTransport transport(read_fd, write_fd, transport_options);
  SessionOptions session_options = options_.session;
  session_options.stop = &stop_;
  session_options.cache = options_.cache_entries != 0 ? &cache_ : nullptr;
  Session session(transport, registry_, admission_, metrics_,
                  session_options);
  session.Run();
}

int CommunityServer::RunStdioSession() {
  IgnoreSigpipe();
  RunSession(STDIN_FILENO, STDOUT_FILENO);
  return 0;
}

std::string CommunityServer::FinalStatsLine() {
  const AdmissionController::Counts counts = admission_.Snapshot();
  return metrics_.Snapshot().RenderStatsLine(counts.inflight,
                                             counts.queued,
                                             registry_.size());
}

bool CommunityServer::Start(std::string* error) {
  IgnoreSigpipe();
  const auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 64) != 0) return fail("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  if (!options_.port_file.empty() &&
      !WritePortFile(options_.port_file, port_)) {
    return fail("port-file write");
  }
  return true;
}

void CommunityServer::Run() {
  while (true) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // Stop() requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    // Non-blocking, so a reply write the peer does not take parks in
    // the transport's poll, where the drain reaches it, and never
    // inside write(2).
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) continue;  // transient (EINTR, peer reset in backlog)

    bool admitted = false;
    {
      MutexLock lock(mutex_);
      if (active_sessions_ < options_.max_sessions) {
        ++active_sessions_;
        admitted = true;
      }
    }
    // The session cap is the only place locsd turns load away: each
    // session runs one request at a time, so it also bounds the queue
    // for an admission slot. Past it we answer once and hang up.
    if (admitted) {
      try {
        // Detached: nothing waits for the thread itself, so whatever
        // the session throws ends here; HandleConnection has given the
        // slot and the fd back by then.
        std::thread([this, fd] {
          try {
            HandleConnection(fd);
          } catch (...) {
          }
        }).detach();
      } catch (...) {  // no thread to serve it: answer BUSY below
        MutexLock lock(mutex_);
        --active_sessions_;
        admitted = false;
      }
    }
    if (!admitted) {
      metrics_.CountRejected();
      // The wake fd ends this write at drain if the peer takes nothing.
      FdTransport transport(fd, fd, {.wake_fd = wake_pipe_[0]});
      transport.WriteLine("BUSY sessions=" +
                          std::to_string(options_.max_sessions));
      ::close(fd);
    }
  }

  // Drain (Stop() again covers a loop that ended on a poll error): the
  // wake fd has ended every session wait on a silent peer, so wait for
  // the sessions still finishing a request.
  Stop();
  {
    MutexLock lock(mutex_);
    while (active_sessions_ != 0) drained_cv_.Wait(lock);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void CommunityServer::Stop() {
  // A lock-free exchange and one write(2), both async-signal-safe. Only
  // the first call writes, and nothing reads the byte, so the pipe never
  // fills and its read end stays readable for every later poll.
  if (stop_.exchange(true)) return;
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

unsigned CommunityServer::active_sessions() const {
  MutexLock lock(mutex_);
  return active_sessions_;
}

void CommunityServer::HandleConnection(int fd) {
  // Releases the slot and the fd however the session ends: an exception
  // out of the session must not leak them, or the drain in Run() would
  // wait forever. Declared first, so it runs after the session and its
  // transport are gone.
  struct Release {
    CommunityServer* server;
    int fd;
    ~Release() {
      {
        MutexLock lock(server->mutex_);
        --server->active_sessions_;
        // Notify while still holding the lock: once the drain loop in
        // Run() can observe active_sessions_ == 0 the server (and this
        // condvar) may be destroyed, so the notify must complete before
        // the unlock makes that observation possible.
        server->drained_cv_.NotifyAll();
      }
      ::close(fd);
    }
  } release{this, fd};
  if (LOCS_FAILPOINT("serve.session_thread.throw")) {
    throw std::runtime_error("injected session-thread fault");
  }
  RunSession(fd, fd);
}

}  // namespace locs::serve

// locsd server core — shared state, stdio mode, and the TCP front end.
//
// CommunityServer bundles the state every session shares (GraphRegistry,
// AdmissionController, ServerMetrics, drain flag) and runs the stdio
// deployment mode: one session over fds 0/1, the mode tests and piped
// scripts use. TcpServer adds the loopback socket front end: an accept
// loop on the caller's thread, one Session per connection on its own
// detached thread, a session-count cap (which bounds the session threads
// and the admission queue too) with immediate `BUSY` + close beyond it,
// and graceful drain — Stop() (or the async-signal-safe StopFromSignal)
// wakes the accept loop through a self-pipe, new work is refused,
// blocked session reads are unblocked via shutdown(2), and Run() returns
// once the last session has finished its current request.
//
// The TCP listener binds 127.0.0.1 only: locsd is a backend component;
// exposure beyond the host belongs to a fronting proxy, not this layer.

#ifndef LOCS_SERVE_SERVER_H_
#define LOCS_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/admission.h"
#include "serve/metrics.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "serve/transport.h"
#include "util/thread_annotations.h"

namespace locs::serve {

/// Everything configurable about a server instance.
struct ServerOptions {
  SessionOptions session;
  /// Concurrently executing queries and LOADs; more wait for a slot.
  unsigned max_inflight = 4;
  size_t max_graphs = 16;
  /// Result-cache capacity in replies (see serve/result_cache.h);
  /// 0 disables caching entirely (sessions get a null cache pointer).
  size_t cache_entries = 1024;
  /// Concurrent TCP sessions; connections beyond get `BUSY` and close.
  /// A session runs one request at a time, so this also bounds the
  /// requests waiting for an admission slot.
  unsigned max_sessions = 8;
  /// Transport deadlines applied to every session (stdio and TCP);
  /// 0 = unbounded, the historical blocking behavior. See
  /// FdTransportOptions for exact semantics.
  uint64_t io_timeout_ms = 0;
  uint64_t idle_timeout_ms = 0;
  /// TCP port; 0 picks an ephemeral port (see TcpServer::port()).
  uint16_t port = 0;
  /// When set, the chosen port is written here after listen() — the
  /// rendezvous used by scripted TCP smoke tests.
  std::string port_file;
  /// Graphs to register before serving: (name, path) pairs.
  std::vector<std::pair<std::string, std::string>> preload;
};

/// Shared server state plus the stdio deployment mode.
class CommunityServer {
 public:
  explicit CommunityServer(const ServerOptions& options);

  CommunityServer(const CommunityServer&) = delete;
  CommunityServer& operator=(const CommunityServer&) = delete;

  GraphRegistry& registry() { return registry_; }
  AdmissionController& admission() { return admission_; }
  ServerMetrics& metrics() { return metrics_; }
  ResultCache& cache() { return cache_; }

  /// Loads every options.preload graph; false (with `*error` set) on the
  /// first failure.
  bool Preload(std::string* error);

  /// Runs one session over stdin/stdout until EOF or QUIT. Returns 0.
  int RunStdioSession();

  /// Raises the drain flag: sessions exit after their current request
  /// and new queries get `ERR shutting-down`.
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  /// Session policy with the drain flag and result cache threaded in.
  SessionOptions MakeSessionOptions();

  /// Transport deadlines with the drain flag threaded in: every blocked
  /// read/write observes the stop flag, so drain reclaims sessions
  /// parked on silent peers promptly.
  FdTransportOptions MakeTransportOptions();

  /// The final STATS line for the shutdown flush.
  std::string FinalStatsLine();

 private:
  const ServerOptions options_;
  GraphRegistry registry_;
  AdmissionController admission_;
  ServerMetrics metrics_;
  ResultCache cache_;
  std::atomic<bool> stop_{false};
};

/// TCP loopback front end; see the file comment.
class TcpServer {
 public:
  TcpServer(CommunityServer& shared, const ServerOptions& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds and listens on 127.0.0.1. False with `*error` set on failure.
  bool Start(std::string* error);

  /// The bound port (after Start; resolves port 0 to the kernel choice).
  uint16_t port() const { return port_; }

  /// Accept loop; returns after Stop() once every session has drained.
  void Run();

  /// Graceful shutdown from any thread.
  void Stop();

  /// Async-signal-safe shutdown trigger (one write(2) on the self-pipe);
  /// safe to call from a SIGTERM/SIGINT handler.
  void StopFromSignal();

  unsigned active_sessions() const LOCS_EXCLUDES(mutex_);

 private:
  /// Session thread body: serves `fd` until the session ends, then
  /// releases its slot and closes the fd, whatever the session threw.
  void HandleConnection(int fd);
  void EraseSessionFd(int fd) LOCS_REQUIRES(mutex_);

  CommunityServer& shared_;
  const ServerOptions options_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;

  mutable Mutex mutex_;
  CondVar drained_cv_;
  std::vector<int> session_fds_ LOCS_GUARDED_BY(mutex_);
  unsigned active_sessions_ LOCS_GUARDED_BY(mutex_) = 0;
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_SERVER_H_

// locsd server core — shared state and both deployment modes.
//
// CommunityServer owns the state every session shares (GraphRegistry,
// AdmissionController, ServerMetrics, ResultCache), the drain flag and
// its wake fd, and runs either deployment mode. RunStdioSession() serves
// one session over fds 0/1, the mode tests and piped scripts use.
// Start() + Run() is the loopback socket front end: an accept loop on
// the caller's thread, one Session per connection on its own detached
// thread, and a session-count cap (which bounds the session threads and
// the admission queue too) with immediate `BUSY` + close beyond it.
//
// Drain has one signal. Stop(), safe from any thread and from a signal
// handler, raises the drain flag and, on its first call only, writes one
// byte to a self-pipe that nothing ever reads. The accept loop and every
// session transport poll the pipe's read end beside their own fd (see
// FdTransportOptions::wake_fd), so a session parked on a silent peer
// ends at once, while a reply the peer can take is still written. A
// session between requests answers `ERR shutting-down` to a new query
// and exits; Run() returns once the last session has ended.
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
  /// TCP port; 0 picks an ephemeral port (see CommunityServer::port()).
  uint16_t port = 0;
  /// When set, the chosen port is written here after listen() — the
  /// rendezvous used by scripted TCP smoke tests.
  std::string port_file;
  /// Graphs to register before serving: (name, path) pairs.
  std::vector<std::pair<std::string, std::string>> preload;
};

/// Shared server state, the stdio mode and the TCP front end; see the
/// file comment.
class CommunityServer {
 public:
  /// Throws std::system_error when the wake pipe cannot be created.
  explicit CommunityServer(const ServerOptions& options);
  ~CommunityServer();

  CommunityServer(const CommunityServer&) = delete;
  CommunityServer& operator=(const CommunityServer&) = delete;

  GraphRegistry& registry() { return registry_; }
  AdmissionController& admission() { return admission_; }
  ServerMetrics& metrics() { return metrics_; }
  ResultCache& cache() { return cache_; }

  /// Loads every options.preload graph; false (with `*error` set) on the
  /// first failure.
  bool Preload(std::string* error);

  /// Runs one session over stdin/stdout until EOF, QUIT or drain.
  /// Returns 0.
  int RunStdioSession();

  /// Binds and listens on 127.0.0.1. False with `*error` set on failure.
  bool Start(std::string* error);

  /// The bound port (after Start; resolves port 0 to the kernel choice).
  uint16_t port() const { return port_; }

  /// Accept loop; returns after Stop() once every session has ended.
  void Run();

  /// Starts the drain: sessions parked on silent peers end, the others
  /// end after their current request, and new queries get
  /// `ERR shutting-down`. Async-signal-safe; later calls do nothing.
  void Stop();

  unsigned active_sessions() const LOCS_EXCLUDES(mutex_);

  /// The final STATS line for the shutdown flush.
  std::string FinalStatsLine();

 private:
  /// Runs one session over the fd pair with the server's transport
  /// deadlines, wake fd, drain flag and result cache.
  void RunSession(int read_fd, int write_fd);

  /// Session thread body: serves `fd` until the session ends, then
  /// releases its slot and closes the fd, whatever the session threw.
  void HandleConnection(int fd);

  const ServerOptions options_;
  GraphRegistry registry_;
  AdmissionController admission_;
  ServerMetrics metrics_;
  ResultCache cache_;
  std::atomic<bool> stop_{false};
  int wake_pipe_[2] = {-1, -1};  ///< [0] polled by every wait; [1] Stop()
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  mutable Mutex mutex_;
  CondVar drained_cv_;
  unsigned active_sessions_ LOCS_GUARDED_BY(mutex_) = 0;
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_SERVER_H_

// Session — one connected client's request loop.
//
// A session reads wire-protocol lines from its transport, executes them
// against the shared GraphRegistry under the shared AdmissionController,
// and writes one reply line per request. A session holds no solver
// state: each query leases a CommunitySearcher from the registry entry
// it names, under its admission slot, and hands it back when it ends
// (serve/registry.h). A new session's first query so runs on scratch an
// earlier query already faulted in, and scratch resets in O(1) per
// query.
//
// The session never terminates on malformed input — every parse or
// execution failure is a typed `ERR` reply and the loop continues. It
// ends on EOF, QUIT, an unrecoverable transport error, or at drain: a
// wait on a silent peer ends through the transport's wake fd, and a
// request answered after the server's stop flag is raised is the last.

#ifndef LOCS_SERVE_SESSION_H_
#define LOCS_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "serve/admission.h"
#include "serve/metrics.h"
#include "serve/registry.h"
#include "serve/result_cache.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace locs::serve {

/// Server-side session policy. A query's limits (deadline_ms=, budget=,
/// limit=) come from the request alone.
struct SessionOptions {
  /// Hard cap on one rendered LOAD/query reply line; an oversized reply
  /// is replaced by `ERR too-large` instead of buffering without bound
  /// (0 = uncapped). Clients wanting big communities page with limit=.
  uint64_t max_reply_bytes = 0;
  /// Raised by the server during drain: new queries get ERR
  /// shutting-down, the session exits after the current request.
  const std::atomic<bool>* stop = nullptr;
  /// Server-wide result cache shared by every session (null disables
  /// caching). Hits are answered before admission — a cached reply costs
  /// no solver run, so it should not compete for a query slot.
  ResultCache* cache = nullptr;
};

/// See the file comment. One session per transport; not thread-safe
/// (sessions are the unit of concurrency, not shared between threads).
class Session {
 public:
  Session(FdTransport& transport, GraphRegistry& registry,
          AdmissionController& admission, ServerMetrics& metrics,
          const SessionOptions& options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs the request loop until EOF/QUIT/transport error/drain.
  void Run();

  /// Requests handled (including errored ones); for tests/diagnostics.
  uint64_t requests_handled() const { return requests_handled_; }

 private:
  /// Dispatches one parsed request; returns the reply line. Sets
  /// `*quit` for QUIT.
  std::string Dispatch(const Request& request, bool* quit);

  std::string ExecLoad(const Request& request);
  std::string ExecEvict(const Request& request);
  std::string ExecList();
  /// Runs a query verb on a searcher leased for it. Sets `*cache_key`
  /// when the reply may be cached; Dispatch inserts it only after the
  /// reply-size cap let it through.
  std::string ExecQuery(const Request& request, std::string* cache_key);
  std::string ExecStats();

  bool Stopping() const {
    return options_.stop != nullptr &&
           options_.stop->load(std::memory_order_relaxed);
  }

  FdTransport& transport_;
  GraphRegistry& registry_;
  AdmissionController& admission_;
  ServerMetrics& metrics_;
  const SessionOptions options_;
  uint64_t requests_handled_ = 0;
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_SESSION_H_

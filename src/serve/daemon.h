// Daemon entry points: flag parsing into ServerOptions and the blocking
// serve main (stdio or TCP; SIGTERM/SIGINT drain through one signal hook
// that calls CommunityServer::Stop()) for the locsd binary, and the
// line-lockstep client behind `locs_cli client` for scripted TCP
// sessions.

#ifndef LOCS_SERVE_DAEMON_H_
#define LOCS_SERVE_DAEMON_H_

#include <string>

#include "serve/client.h"
#include "serve/server.h"
#include "util/cli.h"

namespace locs::serve {

/// Resolved daemon configuration.
struct DaemonOptions {
  ServerOptions server;
  bool stdio = false;  ///< serve fds 0/1 instead of a TCP socket
};

/// Parses the daemon flag set (see locsd --help) from `cli`. False with
/// `*error` naming the flag on an unknown flag, a malformed or
/// out-of-range value, or an invalid combination.
bool ParseDaemonOptions(const CommandLine& cli, DaemonOptions* options,
                        std::string* error);

/// One line per flag, for usage text.
const char* DaemonFlagHelp();

/// Runs the server until EOF/QUIT (stdio) or SIGTERM/SIGINT (either
/// mode). Blocks; returns a process exit code. Installs one signal
/// handler that starts the graceful drain, and flushes a final STATS line
/// to stderr on exit.
int DaemonMain(const DaemonOptions& options);

/// Scripted TCP client: forwards stdin lines to the daemon in lockstep
/// (one reply line read and printed per request line), appends QUIT
/// when stdin ends without one. With max_attempts == 1 (the default) a
/// transport failure is fatal, the historical behavior; larger values
/// engage the RetryClient recovery discipline (reconnect, capped
/// backoff, riding out the session cap's BUSY, all under the request
/// deadline). Returns nonzero when a request ultimately failed.
int ClientMain(const RetryClientOptions& options);

}  // namespace locs::serve

#endif  // LOCS_SERVE_DAEMON_H_

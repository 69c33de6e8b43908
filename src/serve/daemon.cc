// locsd's serve main, flag parsing and scripted client. Both serving
// modes drain through one signal hook: SIGTERM/SIGINT call
// CommunityServer::Stop() on the server that is running.

#include "serve/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string_view>

#include "serve/transport.h"

namespace locs::serve {

namespace {

// The one signal hook: the server that is serving, in either mode. The
// handler is a lock-free atomic load plus CommunityServer::Stop(), which
// is async-signal-safe.
std::atomic<CommunityServer*> g_signal_server{nullptr};

void OnTerminate(int) {
  if (CommunityServer* server =
          g_signal_server.load(std::memory_order_relaxed)) {
    server->Stop();
  }
}

void InstallDrainHandlers() {
  std::signal(SIGTERM, OnTerminate);
  std::signal(SIGINT, OnTerminate);
}

/// Splits "name=path[,name=path...]" preload specs.
bool ParsePreload(const std::string& spec, ServerOptions* options,
                  std::string* error) {
  size_t begin = 0;
  while (begin < spec.size()) {
    size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(begin, end - begin);
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      *error = "--preload items must be name=path, got '" + item + "'";
      return false;
    }
    options->preload.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    begin = end + 1;
  }
  return true;
}

}  // namespace

bool ParseDaemonOptions(const CommandLine& cli, DaemonOptions* options,
                        std::string* error) {
  static constexpr std::string_view kFlags[] = {
      "port", "port-file", "preload", "max-graphs", "max-sessions",
      "max-inflight", "max-reply-bytes", "cache-entries", "io-timeout-ms",
      "idle-timeout-ms"};
  static constexpr std::string_view kSwitches[] = {"stdio"};
  if (!cli.OnlyKnownFlags(kFlags, error, kSwitches)) return false;
  options->stdio = cli.Has("stdio");
  if (options->stdio == cli.Has("port")) {
    *error = options->stdio ? "--stdio and --port are mutually exclusive"
                            : "pass --stdio or --port=P (0 = ephemeral)";
    return false;
  }
  ServerOptions& server = options->server;
  server.port_file = cli.GetString("port-file", "");
  const std::string preload = cli.GetString("preload", "");
  return ReadWhole(cli, "port", &server.port, error) &&
         ReadWhole(cli, "max-graphs", &server.max_graphs, error) &&
         ReadWhole(cli, "max-sessions", &server.max_sessions, error) &&
         ReadWhole(cli, "max-inflight", &server.max_inflight, error) &&
         ReadWhole(cli, "max-reply-bytes", &server.session.max_reply_bytes,
                   error) &&
         ReadWhole(cli, "cache-entries", &server.cache_entries, error) &&
         ReadWhole(cli, "io-timeout-ms", &server.io_timeout_ms, error) &&
         ReadWhole(cli, "idle-timeout-ms", &server.idle_timeout_ms,
                   error) &&
         (preload.empty() || ParsePreload(preload, &server, error));
}

const char* DaemonFlagHelp() {
  return
      "  --stdio | --port=P        serve stdin/stdout, or TCP loopback\n"
      "                            (port 0 = kernel-chosen ephemeral)\n"
      "  --port-file=F             write the bound port to F\n"
      "  --preload=name=path,...   register graphs before serving\n"
      "  --max-graphs=N            registry capacity (default 16)\n"
      "  --max-sessions=N          concurrent TCP sessions; one more gets\n"
      "                            BUSY and is closed (default 8)\n"
      "  --max-inflight=N          concurrent queries; more wait for a\n"
      "                            slot (default 4)\n"
      "  --max-reply-bytes=N       cap one reply line; beyond it the\n"
      "                            reply becomes ERR too-large (0 = none)\n"
      "  --cache-entries=N         result-cache capacity in replies\n"
      "                            (default 1024, 0 disables)\n"
      "  --io-timeout-ms=D         close a session whose peer stalls\n"
      "                            mid-request/mid-reply (0 = never)\n"
      "  --idle-timeout-ms=D       reap a session idle between requests\n"
      "                            (0 = never)\n"
      "numbers are whole and non-negative; a bad, unknown or repeated\n"
      "flag or any argument exits 2. A query's limits are its own\n"
      "deadline_ms=, budget= and limit= options\n";
}

int DaemonMain(const DaemonOptions& options) {
  CommunityServer server(options.server);
  std::string error;
  if (!server.Preload(&error)) {
    std::fprintf(stderr, "locsd: %s\n", error.c_str());
    return 1;
  }
  if (!options.stdio && !server.Start(&error)) {
    std::fprintf(stderr, "locsd: %s\n", error.c_str());
    return 1;
  }
  g_signal_server.store(&server, std::memory_order_relaxed);
  InstallDrainHandlers();
  if (options.stdio) {
    server.RunStdioSession();
  } else {
    std::fprintf(stderr, "locsd: listening on 127.0.0.1:%u\n",
                 unsigned{server.port()});
    server.Run();
  }
  g_signal_server.store(nullptr, std::memory_order_relaxed);
  std::fprintf(stderr, "locsd: %s; final %s\n",
               options.stdio ? "session ended" : "drained",
               server.FinalStatsLine().c_str());
  return 0;
}

int ClientMain(const RetryClientOptions& options) {
  RetryClient client(options);
  std::string line;
  std::string reply;
  bool quit_acked = false;
  // Lockstep: every request line gets exactly one reply line (blank
  // input lines get none and are skipped), so a pipe never deadlocks.
  // Recovery (reconnect/backoff/BUSY) happens inside Request();
  // with max_attempts == 1 a failure here is the historical hard exit.
  // The script ends at `OK bye`, which locsd sends only to QUIT: a line
  // that merely starts with QUIT (QUITX, QUIT now) gets an ERR and the
  // session, and the script, go on.
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (!client.Request(line, &reply)) {
      std::fprintf(stderr, "locs client: %s\n", reply.c_str());
      return 1;
    }
    std::printf("%s\n", reply.c_str());
    if (reply == "OK bye") {
      quit_acked = true;
      break;
    }
  }
  if (!quit_acked && client.connected()) {
    if (client.Request("QUIT", &reply)) std::printf("%s\n", reply.c_str());
  }
  return 0;
}

}  // namespace locs::serve

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
      "max-inflight", "default-deadline-ms", "max-deadline-ms",
      "default-budget", "max-budget", "member-limit", "max-reply-bytes",
      "cache-entries", "io-timeout-ms", "idle-timeout-ms"};
  static constexpr std::string_view kSwitches[] = {"stdio"};
  if (!cli.OnlyKnownFlags(kFlags, error, kSwitches)) return false;
  options->stdio = cli.Has("stdio");
  if (options->stdio == cli.Has("port")) {
    *error = options->stdio ? "--stdio and --port are mutually exclusive"
                            : "pass --stdio or --port=P (0 = ephemeral)";
    return false;
  }
  ServerOptions& server = options->server;
  SessionOptions& session = server.session;
  server.port_file = cli.GetString("port-file", "");
  const std::string preload = cli.GetString("preload", "");
  return ReadWhole(cli, "port", &server.port, error) &&
         ReadWhole(cli, "max-graphs", &server.max_graphs, error) &&
         ReadWhole(cli, "max-sessions", &server.max_sessions, error) &&
         ReadWhole(cli, "max-inflight", &server.max_inflight, error) &&
         ReadMs(cli, "default-deadline-ms", &session.default_deadline_ms,
                error) &&
         ReadMs(cli, "max-deadline-ms", &session.max_deadline_ms, error) &&
         ReadWhole(cli, "default-budget", &session.default_work_budget,
                   error) &&
         ReadWhole(cli, "max-budget", &session.max_work_budget, error) &&
         ReadWhole(cli, "member-limit", &session.default_member_limit,
                   error) &&
         ReadWhole(cli, "max-reply-bytes", &session.max_reply_bytes,
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
      "  --default-deadline-ms=D --max-deadline-ms=D\n"
      "  --default-budget=W --max-budget=W\n"
      "                            per-query guard policy (0 = none)\n"
      "  --member-limit=N          member ids echoed per reply (0 = all)\n"
      "  --max-reply-bytes=N       cap one reply line; beyond it the\n"
      "                            reply becomes ERR too-large (0 = none)\n"
      "  --cache-entries=N         result-cache capacity in replies\n"
      "                            (default 1024, 0 disables)\n"
      "  --io-timeout-ms=D         close a session whose peer stalls\n"
      "                            mid-request/mid-reply (0 = never)\n"
      "  --idle-timeout-ms=D       reap a session idle between requests\n"
      "                            (0 = never)\n"
      "numbers are whole and non-negative (deadlines may be fractional);\n"
      "a bad, unknown or repeated flag or any argument exits 2\n";
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
  bool quit_sent = false;
  // Lockstep: every request line gets exactly one reply line (blank
  // input lines get none and are skipped), so a pipe never deadlocks.
  // Recovery (reconnect/backoff/BUSY) happens inside Request();
  // with max_attempts == 1 a failure here is the historical hard exit.
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (!client.Request(line, &reply)) {
      std::fprintf(stderr, "locs client: %s\n", reply.c_str());
      return 1;
    }
    std::printf("%s\n", reply.c_str());
    if (line.compare(0, 4, "QUIT") == 0) {
      quit_sent = true;
      break;
    }
  }
  if (!quit_sent && client.connected()) {
    if (client.Request("QUIT", &reply)) std::printf("%s\n", reply.c_str());
  }
  return 0;
}

}  // namespace locs::serve

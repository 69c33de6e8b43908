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

#include "serve/transport.h"

namespace locs::serve {

namespace {

// Signal-handler rendezvous. std::atomic pointer stores/loads are
// lock-free for pointers on every supported platform, and the handler
// body is one load plus either a self-pipe write (TCP) or a relaxed
// flag store (stdio) — all async-signal-safe.
std::atomic<TcpServer*> g_signal_tcp{nullptr};
std::atomic<CommunityServer*> g_signal_stdio{nullptr};

void OnTerminate(int) {
  if (TcpServer* tcp = g_signal_tcp.load(std::memory_order_relaxed)) {
    tcp->StopFromSignal();
  }
  if (CommunityServer* server =
          g_signal_stdio.load(std::memory_order_relaxed)) {
    server->RequestStop();
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
  options->stdio = cli.GetBool("stdio", false);
  const int64_t port = cli.GetInt("port", -1);
  if (!options->stdio && port < 0) {
    *error = "pass --stdio or --port=P (0 = ephemeral)";
    return false;
  }
  if (options->stdio && port >= 0) {
    *error = "--stdio and --port are mutually exclusive";
    return false;
  }
  if (port > 65535) {
    *error = "--port must be in [0, 65535]";
    return false;
  }
  ServerOptions& server = options->server;
  if (port >= 0) server.port = static_cast<uint16_t>(port);
  server.port_file = cli.GetString("port-file", "");
  server.max_graphs =
      static_cast<size_t>(cli.GetInt("max-graphs", 16));
  server.max_sessions =
      static_cast<unsigned>(cli.GetInt("max-sessions", 8));
  server.admission.max_inflight =
      static_cast<unsigned>(cli.GetInt("max-inflight", 4));
  server.admission.max_queued =
      static_cast<unsigned>(cli.GetInt("max-queue", 16));
  server.session.default_deadline_ms =
      cli.GetDouble("default-deadline-ms", 0.0);
  server.session.max_deadline_ms = cli.GetDouble("max-deadline-ms", 0.0);
  server.session.default_work_budget =
      static_cast<uint64_t>(cli.GetInt("default-budget", 0));
  server.session.max_work_budget =
      static_cast<uint64_t>(cli.GetInt("max-budget", 0));
  server.session.default_member_limit =
      static_cast<uint64_t>(cli.GetInt("member-limit", 0));
  server.session.max_reply_bytes =
      static_cast<uint64_t>(cli.GetInt("max-reply-bytes", 0));
  server.cache_entries =
      static_cast<size_t>(cli.GetInt("cache-entries", 1024));
  server.io_timeout_ms =
      static_cast<uint64_t>(cli.GetInt("io-timeout-ms", 0));
  server.idle_timeout_ms =
      static_cast<uint64_t>(cli.GetInt("idle-timeout-ms", 0));
  server.max_sessions_per_peer = static_cast<unsigned>(
      cli.GetInt("max-sessions-per-peer", 0));
  const std::string preload = cli.GetString("preload", "");
  if (!preload.empty() && !ParsePreload(preload, &server, error)) {
    return false;
  }
  return true;
}

const char* DaemonFlagHelp() {
  return
      "  --stdio | --port=P        serve stdin/stdout, or TCP loopback\n"
      "                            (port 0 = kernel-chosen ephemeral)\n"
      "  --port-file=F             write the bound port to F\n"
      "  --preload=name=path,...   register graphs before serving\n"
      "  --max-graphs=N            registry capacity (default 16)\n"
      "  --max-sessions=N          concurrent TCP sessions (default 8)\n"
      "  --max-inflight=N          concurrent queries (default 4)\n"
      "  --max-queue=N             waiting queries before BUSY (default 16)\n"
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
      "  --max-sessions-per-peer=N per-address session cap (0 = none)\n";
}

int DaemonMain(const DaemonOptions& options) {
  CommunityServer shared(options.server);
  std::string error;
  if (!shared.Preload(&error)) {
    std::fprintf(stderr, "locsd: %s\n", error.c_str());
    return 1;
  }

  if (options.stdio) {
    g_signal_stdio.store(&shared, std::memory_order_relaxed);
    InstallDrainHandlers();
    shared.RunStdioSession();
    g_signal_stdio.store(nullptr, std::memory_order_relaxed);
    std::fprintf(stderr, "locsd: session ended; final %s\n",
                 shared.FinalStatsLine().c_str());
    return 0;
  }

  TcpServer tcp(shared, options.server);
  if (!tcp.Start(&error)) {
    std::fprintf(stderr, "locsd: %s\n", error.c_str());
    return 1;
  }
  g_signal_tcp.store(&tcp, std::memory_order_relaxed);
  InstallDrainHandlers();
  std::fprintf(stderr, "locsd: listening on 127.0.0.1:%u\n",
               unsigned{tcp.port()});
  tcp.Run();
  g_signal_tcp.store(nullptr, std::memory_order_relaxed);
  std::fprintf(stderr, "locsd: drained; final %s\n",
               shared.FinalStatsLine().c_str());
  return 0;
}

int ClientMain(const RetryClientOptions& options) {
  RetryClient client(options);
  std::string line;
  std::string reply;
  bool quit_sent = false;
  // Lockstep: every request line gets exactly one reply line (blank
  // input lines get none and are skipped), so a pipe never deadlocks.
  // Recovery (reconnect/backoff/BUSY pacing) happens inside Request();
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

// Wire protocol of the locsd serving layer — a strict, line-oriented,
// human-debuggable request grammar.
//
// One request per line, space-separated tokens, uppercase verbs:
//
//   LOAD <name> <path>                 register a graph under a name
//                                      (graph images auto-detected by
//                                      content; see src/store/)
//   LOADIMG <name> <path>              register a graph image, rejecting
//                                      anything that is not one
//   EVICT <name>                       drop a graph from the registry
//   LIST                               enumerate registered graphs
//   CST <graph> <v> <k> [opt...]       CST(k) community of vertex v
//   CSM <graph> <v> [opt...]           best community of vertex v
//   MULTI <graph> <k|max> <v...> [opt...]   multi-vertex CST(k) / CSM
//   STATS                              one-line server counters
//   PING                               liveness probe
//   QUIT                               end the session
//
// Trailing `opt` tokens are lowercase key=value pairs mapped onto the
// QueryGuard limits: `deadline_ms=<double>`, `budget=<uint64>`, plus
// `limit=<n>` capping the member ids echoed in the reply (0 = all; on
// CSM and MULTI it also bounds the work: the BFS stops once n members
// are queued, and n=/truncated= come from the index's core forest),
// `trace=<0|1>` appending a per-phase telemetry breakdown to the reply
// (deterministic: counters only, no durations), and `gamma=<double>`
// (signed, `-inf` allowed), the Equation-8 budget of the paper's local
// CSM search. Every served verb ignores γ: CSM is answered exactly from
// the core index. The option still parses, but it is not part of the
// result-cache key, so requests differing only in γ share one entry.
//
// Every reply is also one line: `OK ...`, `ERR <kind> <detail>` or
// `BUSY sessions=<N>` (a TCP connection past the session cap, answered
// once before the server hangs up). The parser is total: any byte
// sequence — overlong lines, embedded NUL, non-numeric ids, missing or
// surplus arguments — yields a typed WireError, never undefined behavior
// and never an abort. Blank lines are ignored (no reply), so piped
// heredocs with cosmetic spacing stay in lockstep.

#ifndef LOCS_SERVE_WIRE_H_
#define LOCS_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/types.h"
#include "util/guard.h"

namespace locs::serve {

/// Request verbs. kNone marks an ignorable blank line.
enum class Verb : uint8_t {
  kNone,
  kLoad,
  kLoadImg,
  kEvict,
  kList,
  kCst,
  kCsm,
  kMulti,
  kStats,
  kPing,
  kQuit,
};

inline constexpr int kNumVerbs = 11;

/// Wire name of a verb ("LOAD", "CST", ...; kNone reports "-").
std::string_view VerbName(Verb verb);

/// Typed parse/execution failures carried in `ERR <kind> ...` replies.
enum class WireError : uint8_t {
  kNone,
  kLineTooLong,     ///< request exceeded kMaxLineBytes
  kUnknownVerb,     ///< first token is not a known verb
  kMissingArg,      ///< fewer arguments than the grammar requires
  kExtraArg,        ///< surplus positional arguments
  kBadNumber,       ///< a numeric token failed strict parsing
  kBadOption,       ///< malformed or unknown key=value option
  kUnknownGraph,    ///< query names a graph the registry does not hold
  kVertexRange,     ///< vertex id out of the graph's [0, n) range
  kDuplicateVertex, ///< MULTI query vertices must be distinct
  kRegistryFull,    ///< LOAD rejected: registry at capacity
  kIo,              ///< LOAD failed; detail carries the IoErrorKind
  kShuttingDown,    ///< server is draining; no new work admitted
  kReplyTooLarge,   ///< rendered reply exceeded the per-session cap
  kIoTimeout,       ///< peer stalled mid-request past --io-timeout-ms
  kInternal,        ///< server-side execution fault (incl. injected)
};

inline constexpr int kNumWireErrors = 16;

/// Wire name of an error kind ("line-too-long", "bad-number", ...).
std::string_view WireErrorName(WireError error);

/// Hard cap on request-line length. Long enough for a MULTI query with
/// thousands of seed vertices; short enough that a malicious peer cannot
/// buffer unbounded memory through one session.
inline constexpr size_t kMaxLineBytes = 64 * 1024;

/// A parsed request. Fields beyond `verb` are meaningful per the grammar
/// above; `limits` holds the per-request guard budgets (zeros = none).
struct Request {
  Verb verb = Verb::kNone;
  std::string graph;              ///< LOAD/EVICT name or query graph
  std::string path;               ///< LOAD source file
  uint32_t k = 0;                 ///< CST/MULTI threshold
  bool multi_max = false;         ///< MULTI ... max ... selects CsmMulti
  std::vector<VertexId> vertices; ///< query vertices (MULTI: >= 1)
  QueryLimits limits;             ///< deadline_ms= / budget= options
  uint64_t member_limit = 0;      ///< limit= option; 0 = all members
  bool trace = false;             ///< trace= option; phase breakdown
  double gamma = 0.0;             ///< gamma= option; locsd ignores it
};

/// ParseRequest outcome: either a request or a typed error with detail.
struct ParseResult {
  WireError error = WireError::kNone;
  std::string detail;
  Request request;

  bool ok() const { return error == WireError::kNone; }
};

/// Parses one request line (no trailing newline). Total: never throws,
/// never aborts, returns a typed error for every malformed input.
ParseResult ParseRequest(std::string_view line);

/// Formats an `ERR <kind> <detail>` reply line (no newline).
std::string FormatError(WireError error, std::string_view detail);

/// True when `reply` is a BUSY line: the session-cap reject, after
/// which the server closes the connection.
bool IsBusyReply(std::string_view reply);

}  // namespace locs::serve

#endif  // LOCS_SERVE_WIRE_H_

#include "serve/wire.h"

#include <cmath>
#include <cstdio>
#include <optional>

#include "util/cli.h"

namespace locs::serve {

namespace {

/// Splits on runs of spaces/tabs. An embedded NUL is an ordinary token
/// byte: it survives into the token, fails strict numeric parsing, and
/// never matches a verb — malformed, not undefined.
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t begin = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
  return tokens;
}

/// Strict numeric parse (ParseWhole): the whole token must be one T that
/// `valid` accepts. Rejects empty tokens, '+', hex, trailing bytes, NULs,
/// and a sign on an unsigned T.
template <typename T>
bool ParseNumber(std::string_view token, T* out,
                 bool (*valid)(T) = [](T) { return true; }) {
  const std::optional<T> value = ParseWhole<T>(token);
  if (!value.has_value() || !valid(*value)) return false;
  *out = *value;
  return true;
}

ParseResult Fail(WireError error, std::string detail) {
  ParseResult result;
  result.error = error;
  result.detail = std::move(detail);
  return result;
}

/// Consumes trailing key=value options from tokens[i..). Any token with
/// an '=' is an option; the first '='-free token past the positional
/// arguments is a surplus positional (kExtraArg at the call site).
bool ConsumeOptions(const std::vector<std::string_view>& tokens, size_t i,
                    Request* request, ParseResult* error) {
  for (; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      *error = Fail(WireError::kExtraArg,
                    "unexpected argument '" + std::string(token) + "'");
      return false;
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    bool ok = false;
    if (key == "deadline_ms") {
      // `>=` rejects NaN as well as negatives.
      ok = ParseNumber(value, &request->limits.deadline_ms,
                       +[](double ms) { return ms >= 0.0; });
    } else if (key == "budget") {
      ok = ParseNumber(value, &request->limits.work_budget);
    } else if (key == "limit") {
      ok = ParseNumber(value, &request->member_limit);
    } else if (key == "trace") {
      uint64_t flag = 0;
      ok = ParseNumber(value, &flag) && flag <= 1;
      request->trace = flag != 0;
    } else if (key == "gamma") {
      // γ is meaningfully negative (γ → −∞ disables the Eq.-8 budget),
      // but a NaN γ would poison every budget comparison downstream.
      ok = ParseNumber(value, &request->gamma,
                       +[](double gamma) { return !std::isnan(gamma); });
    } else {
      *error = Fail(WireError::kBadOption,
                    "unknown option '" + std::string(key) + "'");
      return false;
    }
    if (!ok) {
      *error = Fail(WireError::kBadOption,
                    "bad value for option '" + std::string(key) + "'");
      return false;
    }
  }
  return true;
}

/// Positional vertex-id parse with a per-token error message.
bool ParseVertex(std::string_view token, VertexId* out,
                 ParseResult* error) {
  if (!ParseNumber(token, out)) {
    *error = Fail(WireError::kBadNumber,
                  "bad vertex id '" + std::string(token) + "'");
    return false;
  }
  return true;
}

}  // namespace

std::string_view VerbName(Verb verb) {
  switch (verb) {
    case Verb::kNone:
      return "-";
    case Verb::kLoad:
      return "LOAD";
    case Verb::kLoadImg:
      return "LOADIMG";
    case Verb::kEvict:
      return "EVICT";
    case Verb::kList:
      return "LIST";
    case Verb::kCst:
      return "CST";
    case Verb::kCsm:
      return "CSM";
    case Verb::kMulti:
      return "MULTI";
    case Verb::kStats:
      return "STATS";
    case Verb::kPing:
      return "PING";
    case Verb::kQuit:
      return "QUIT";
  }
  return "?";
}

std::string_view WireErrorName(WireError error) {
  switch (error) {
    case WireError::kNone:
      return "none";
    case WireError::kLineTooLong:
      return "line-too-long";
    case WireError::kUnknownVerb:
      return "unknown-verb";
    case WireError::kMissingArg:
      return "missing-arg";
    case WireError::kExtraArg:
      return "extra-arg";
    case WireError::kBadNumber:
      return "bad-number";
    case WireError::kBadOption:
      return "bad-option";
    case WireError::kUnknownGraph:
      return "unknown-graph";
    case WireError::kVertexRange:
      return "vertex-range";
    case WireError::kDuplicateVertex:
      return "duplicate-vertex";
    case WireError::kRegistryFull:
      return "registry-full";
    case WireError::kIo:
      return "io";
    case WireError::kShuttingDown:
      return "shutting-down";
    case WireError::kReplyTooLarge:
      return "too-large";
    case WireError::kIoTimeout:
      return "io-timeout";
    case WireError::kInternal:
      return "internal";
  }
  return "unknown";
}

ParseResult ParseRequest(std::string_view line) {
  ParseResult result;
  if (line.size() > kMaxLineBytes) {
    return Fail(WireError::kLineTooLong,
                "request exceeds " + std::to_string(kMaxLineBytes) +
                    " bytes");
  }
  const std::vector<std::string_view> tokens = Tokenize(line);
  Request& request = result.request;
  if (tokens.empty()) return result;  // blank line: Verb::kNone, no reply

  const std::string_view verb = tokens[0];
  const auto require = [&](size_t count) {
    if (tokens.size() > count) return true;
    result = Fail(WireError::kMissingArg,
                  std::string(verb) + " expects " +
                      std::to_string(count) + " argument(s)");
    return false;
  };
  const auto exactly = [&](size_t count) {
    if (!require(count)) return false;
    if (tokens.size() == count + 1) return true;
    result = Fail(WireError::kExtraArg,
                  std::string(verb) + " takes exactly " +
                      std::to_string(count) + " argument(s)");
    return false;
  };

  if (verb == "LOAD") {
    request.verb = Verb::kLoad;
    if (!exactly(2)) return result;
    request.graph = tokens[1];
    request.path = tokens[2];
    return result;
  }
  if (verb == "LOADIMG") {
    request.verb = Verb::kLoadImg;
    if (!exactly(2)) return result;
    request.graph = tokens[1];
    request.path = tokens[2];
    return result;
  }
  if (verb == "EVICT") {
    request.verb = Verb::kEvict;
    if (!exactly(1)) return result;
    request.graph = tokens[1];
    return result;
  }
  if (verb == "LIST") {
    request.verb = Verb::kList;
    if (!exactly(0)) return result;
    return result;
  }
  if (verb == "CST") {
    request.verb = Verb::kCst;
    if (!require(3)) return result;
    request.graph = tokens[1];
    VertexId v = 0;
    if (!ParseVertex(tokens[2], &v, &result)) return result;
    request.vertices.push_back(v);
    if (!ParseNumber(tokens[3], &request.k)) {
      return Fail(WireError::kBadNumber,
                  "bad k '" + std::string(tokens[3]) + "'");
    }
    if (!ConsumeOptions(tokens, 4, &request, &result)) return result;
    return result;
  }
  if (verb == "CSM") {
    request.verb = Verb::kCsm;
    if (!require(2)) return result;
    request.graph = tokens[1];
    VertexId v = 0;
    if (!ParseVertex(tokens[2], &v, &result)) return result;
    request.vertices.push_back(v);
    if (!ConsumeOptions(tokens, 3, &request, &result)) return result;
    return result;
  }
  if (verb == "MULTI") {
    request.verb = Verb::kMulti;
    if (!require(3)) return result;
    request.graph = tokens[1];
    if (tokens[2] == "max") {
      request.multi_max = true;
    } else if (!ParseNumber(tokens[2], &request.k)) {
      return Fail(WireError::kBadNumber,
                  "bad k '" + std::string(tokens[2]) +
                      "' (number or 'max')");
    }
    size_t i = 3;
    for (; i < tokens.size(); ++i) {
      if (tokens[i].find('=') != std::string_view::npos) break;
      VertexId v = 0;
      if (!ParseVertex(tokens[i], &v, &result)) return result;
      request.vertices.push_back(v);
    }
    if (request.vertices.empty()) {
      return Fail(WireError::kMissingArg,
                  "MULTI expects at least one query vertex");
    }
    if (!ConsumeOptions(tokens, i, &request, &result)) return result;
    return result;
  }
  if (verb == "STATS") {
    request.verb = Verb::kStats;
    if (!exactly(0)) return result;
    return result;
  }
  if (verb == "PING") {
    request.verb = Verb::kPing;
    if (!exactly(0)) return result;
    return result;
  }
  if (verb == "QUIT") {
    request.verb = Verb::kQuit;
    if (!exactly(0)) return result;
    return result;
  }
  // The verb token may carry arbitrary bytes (NUL, control characters);
  // echo at most a short printable prefix so the reply stays one line.
  std::string shown;
  for (const char c : verb.substr(0, 32)) {
    shown += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return Fail(WireError::kUnknownVerb, "unknown verb '" + shown + "'");
}

std::string FormatError(WireError error, std::string_view detail) {
  std::string reply = "ERR ";
  reply += WireErrorName(error);
  if (!detail.empty()) {
    reply += ' ';
    reply += detail;
  }
  return reply;
}

bool IsBusyReply(std::string_view reply) {
  return reply.substr(0, 4) == "BUSY" &&
         (reply.size() == 4 || reply[4] == ' ');
}

}  // namespace locs::serve

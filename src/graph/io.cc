#include "graph/io.h"

#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "util/failpoint.h"

namespace locs {

namespace {

/// Records failure detail into `error` (when provided) and returns the
/// nullopt the loaders propagate: `return Fail(error, kind, ...);`.
std::nullopt_t Fail(IoError* error, IoErrorKind kind, std::string message,
                    uint64_t line = 0) {
  if (error != nullptr) {
    error->kind = kind;
    error->message = std::move(message);
    error->line = line;
  }
  return std::nullopt;
}

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// RAII wrapper over std::FILE.
class File {
 public:
  File(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::FILE* get() { return f_; }

 private:
  std::FILE* f_;
};

/// Reads one line of any length into `line`, stripping the trailing
/// newline and any carriage returns (CRLF files). Returns false only at
/// EOF with nothing read.
bool ReadLine(std::FILE* f, std::string& line) {
  line.clear();
  char buf[4096];
  bool read_any = false;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    read_any = true;
    line.append(buf);
    if (!line.empty() && line.back() == '\n') break;
  }
  if (!read_any) return false;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return true;
}

/// Reads the rest of `file` into `out`. Returns false on a read error.
bool ReadAll(std::FILE* file, std::string& out) {
  struct stat info {};
  size_t capacity = size_t{1} << 16;
  if (fstat(fileno(file), &info) == 0 && info.st_size > 0) {
    capacity = static_cast<size_t>(info.st_size) + 1;
  }
  out.resize(capacity);
  size_t used = 0;
  while (true) {
    used += std::fread(out.data() + used, 1, out.size() - used, file);
    if (used < out.size()) break;  // EOF or error; full means maybe more
    out.resize(out.size() * 2);
  }
  out.resize(used);
  return std::ferror(file) == 0;
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Parses one id from [p, end) exactly as strtoull(p, &next, 10) parses
/// a NUL-terminated copy of the line: leading whitespace, an optional
/// sign, then decimal digits; overflow saturates, '-' negates modulo
/// 2^64. Sets *next to the first unparsed byte, or to `p` when no digit
/// was found.
uint64_t ParseId(const char* p, const char* end, const char** next) {
  const char* s = p;
  while (s < end && IsSpace(*s)) ++s;
  bool negative = false;
  if (s < end && (*s == '+' || *s == '-')) {
    negative = *s == '-';
    ++s;
  }
  if (s == end || !IsDigit(*s)) {
    *next = p;
    return 0;
  }
  constexpr uint64_t kMax = ~uint64_t{0};
  uint64_t value = 0;
  bool overflow = false;
  for (; s < end && IsDigit(*s); ++s) {
    const auto digit = static_cast<uint64_t>(*s - '0');
    if (value > (kMax - digit) / 10) {
      overflow = true;
    } else {
      value = value * 10 + digit;
    }
  }
  *next = s;
  if (overflow) return kMax;
  return negative ? 0 - value : value;
}

/// Maps raw edge-list ids to dense ids in order of first call. Ids below
/// `dense_limit` index a flat table that grows on demand; larger ones
/// (sparse or 64-bit ids) go through a hash map. A raw id always takes
/// the same path, so the numbering does not depend on the mix.
class IdRemap {
 public:
  explicit IdRemap(uint64_t dense_limit) : dense_limit_(dense_limit) {}

  VertexId Intern(uint64_t raw) {
    if (raw < dense_limit_) {
      if (raw >= dense_.size()) {
        const uint64_t grown = std::max<uint64_t>(raw + 1, 2 * dense_.size());
        dense_.resize(static_cast<size_t>(std::min(grown, dense_limit_)),
                      kInvalidVertex);
      }
      VertexId& slot = dense_[static_cast<size_t>(raw)];
      if (slot == kInvalidVertex) slot = next_++;
      return slot;
    }
    const auto [it, inserted] = sparse_.try_emplace(raw, next_);
    if (inserted) ++next_;
    return it->second;
  }

  VertexId size() const { return next_; }

 private:
  uint64_t dense_limit_;
  std::vector<VertexId> dense_;
  std::unordered_map<uint64_t, VertexId> sparse_;
  VertexId next_ = 0;
};

/// Runs one text loader and turns an allocation failure anywhere in its
/// read, parse or build into a kAlloc error: their memory use grows with
/// the input, so an oversized file must fail typed instead of aborting
/// the process.
template <typename Reader>
std::optional<Graph> NoThrowLoad(Reader read, const std::string& path,
                                 IoError* error) {
  if (error != nullptr) *error = IoError{};
  try {
    // Fault-injection site: "io.text.alloc" simulates the loader running
    // out of memory.
    if (LOCS_FAILPOINT("io.text.alloc")) throw std::bad_alloc();
    return read(path, error);
  } catch (const std::bad_alloc&) {
    return Fail(error, IoErrorKind::kAlloc,
                Format("out of memory loading '%s'", path.c_str()));
  }
}

std::optional<Graph> ReadEdgeList(const std::string& path, IoError* error) {
  std::string buffer;
  {
    File file(path, "r");
    if (!file.ok()) {
      return Fail(error, IoErrorKind::kOpen,
                  Format("cannot open '%s' for reading", path.c_str()));
    }
    if (!ReadAll(file.get(), buffer)) {
      return Fail(error, IoErrorKind::kOpen,
                  Format("cannot read '%s'", path.c_str()));
    }
  }

  // Ids below the file's byte count are dense enough for the flat table:
  // it then never outgrows four bytes per input byte.
  IdRemap remap(std::max<uint64_t>(buffer.size(), uint64_t{1} << 16));
  EdgeList edges;
  // An edge line takes at least 4 bytes ("1 2\n"), so this never
  // reallocates; pages the parse does not reach are never touched.
  edges.reserve((buffer.size() + 1) / 4);
  const char* cursor = buffer.data();
  const char* const eof = cursor + buffer.size();
  uint64_t line_no = 0;
  while (cursor < eof) {
    // One line is [cursor, end); trailing carriage returns (CRLF files)
    // are not part of it.
    const auto* newline = static_cast<const char*>(
        std::memchr(cursor, '\n', static_cast<size_t>(eof - cursor)));
    const char* end = newline != nullptr ? newline : eof;
    const char* const next_line = newline != nullptr ? newline + 1 : eof;
    ++line_no;
    while (end > cursor && end[-1] == '\r') --end;
    while (cursor < end && (*cursor == ' ' || *cursor == '\t')) ++cursor;
    const char* const start = cursor;
    cursor = next_line;
    if (start == end) continue;  // blank / CR-only line
    if (*start == '#' || *start == '%') continue;
    const char* after_u = nullptr;
    const uint64_t u = ParseId(start, end, &after_u);
    // The line number rides in the message text too: consumers that only
    // surface `message` (the locsd ERR detail, logs) still point at the
    // offending line.
    if (after_u == start) {
      const std::string text(start, end);
      return Fail(error, IoErrorKind::kParse,
                  Format("line %" PRIu64
                         ": expected \"u v\" edge, got \"%.60s\"",
                         line_no, text.c_str()),
                  line_no);
    }
    const char* after_v = nullptr;
    const uint64_t v = ParseId(after_u, end, &after_v);
    if (after_v == after_u) {
      return Fail(error, IoErrorKind::kParse,
                  Format("line %" PRIu64 ": edge for vertex %" PRIu64
                         " is missing its endpoint",
                         line_no, u),
                  line_no);
    }
    // Extra columns (weights, timestamps) are ignored. The second column
    // is numbered before the first: that is the order earlier releases
    // used, and served ids must not change.
    const VertexId second = remap.Intern(v);
    const VertexId first = remap.Intern(u);
    edges.emplace_back(first, second);
  }
  buffer = {};
  return BuildGraph(remap.size(), edges);
}

std::optional<Graph> ReadMetis(const std::string& path, IoError* error) {
  File file(path, "r");
  if (!file.ok()) {
    return Fail(error, IoErrorKind::kOpen,
                Format("cannot open '%s' for reading", path.c_str()));
  }
  std::string line;
  uint64_t line_no = 0;
  // Read the header (skipping '%' comments).
  uint64_t n = 0;
  uint64_t m = 0;
  std::string fmt;
  bool have_header = false;
  while (ReadLine(file.get(), line)) {
    ++line_no;
    if (!line.empty() && line[0] == '%') continue;
    const char* cursor = line.c_str();
    char* end = nullptr;
    n = std::strtoull(cursor, &end, 10);
    if (end == cursor) {
      return Fail(error, IoErrorKind::kParse,
                  "header must start with the vertex count", line_no);
    }
    cursor = end;
    m = std::strtoull(cursor, &end, 10);
    if (end == cursor) {
      return Fail(error, IoErrorKind::kParse,
                  "header is missing the edge count", line_no);
    }
    cursor = end;
    while (*cursor == ' ' || *cursor == '\t') ++cursor;
    while (*cursor != '\0' && *cursor != ' ' && *cursor != '\t') {
      fmt.push_back(*cursor++);
    }
    have_header = true;
    break;
  }
  if (!have_header) {
    return Fail(error, IoErrorKind::kTruncated,
                "file ends before the METIS header");
  }
  if (!fmt.empty() && fmt.find_first_not_of('0') != std::string::npos) {
    return Fail(error, IoErrorKind::kParse,
                Format("weighted format \"%s\" is unsupported", fmt.c_str()),
                line_no);
  }
  // Vertex ids are 32-bit and kInvalidVertex is reserved, so a larger
  // count cannot be built; neighbor ids are range-checked against it.
  if (n >= kInvalidVertex) {
    return Fail(error, IoErrorKind::kParse,
                Format("header declares %" PRIu64
                       " vertices; at most %" PRIu32 " are supported",
                       n, kInvalidVertex - 1),
                line_no);
  }
  GraphBuilder builder(static_cast<VertexId>(n));
  uint64_t vertex = 0;
  while (vertex < n && ReadLine(file.get(), line)) {
    ++line_no;
    if (!line.empty() && line[0] == '%') continue;
    const char* cursor = line.c_str();
    char* end = nullptr;
    while (true) {
      const auto neighbor = std::strtoull(cursor, &end, 10);
      if (end == cursor) break;  // no more numbers on this line
      if (neighbor == 0 || neighbor > n) {
        return Fail(error, IoErrorKind::kParse,
                    Format("neighbor id %" PRIu64
                           " outside the 1..%" PRIu64 " range",
                           neighbor, n),
                    line_no);
      }
      builder.AddEdge(static_cast<VertexId>(vertex),
                      static_cast<VertexId>(neighbor - 1));
      cursor = end;
    }
    ++vertex;
  }
  if (vertex != n) {
    return Fail(error, IoErrorKind::kTruncated,
                Format("header declares %" PRIu64
                       " vertices but only %" PRIu64 " adjacency lines"
                       " are present",
                       n, vertex),
                line_no);
  }
  Graph graph = builder.Build();
  if (graph.NumEdges() != m) {
    // Tolerate double-counted headers (some writers store 2m).
    if (graph.NumEdges() * 2 != m) {
      return Fail(error, IoErrorKind::kParse,
                  Format("header declares %" PRIu64 " edges but the"
                         " adjacency lists hold %" PRIu64,
                         m, graph.NumEdges()));
    }
  }
  return graph;
}

}  // namespace

std::optional<Graph> LoadEdgeList(const std::string& path, IoError* error) {
  return NoThrowLoad(ReadEdgeList, path, error);
}

bool SaveEdgeList(const Graph& graph, const std::string& path) {
  File file(path, "w");
  if (!file.ok()) return false;
  std::fprintf(file.get(),
               "# locs edge list: %" PRIu32 " vertices, %" PRIu64
               " edges\n",
               graph.NumVertices(), graph.NumEdges());
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (VertexId v : graph.Neighbors(u)) {
      if (u < v) std::fprintf(file.get(), "%u %u\n", u, v);
    }
  }
  return std::fflush(file.get()) == 0;
}

std::optional<Graph> LoadMetis(const std::string& path, IoError* error) {
  return NoThrowLoad(ReadMetis, path, error);
}

bool SaveMetis(const Graph& graph, const std::string& path) {
  File file(path, "w");
  if (!file.ok()) return false;
  std::fprintf(file.get(), "%" PRIu32 " %" PRIu64 "\n",
               graph.NumVertices(), graph.NumEdges());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    bool first = true;
    for (VertexId w : graph.Neighbors(v)) {
      std::fprintf(file.get(), first ? "%u" : " %u", w + 1);
      first = false;
    }
    std::fputc('\n', file.get());
  }
  return std::fflush(file.get()) == 0;
}

std::optional<Graph> LoadGraphAuto(const std::string& path,
                                   IoError* error) {
  const auto ends_with = [&path](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (ends_with(".metis") || ends_with(".graph")) {
    return LoadMetis(path, error);
  }
  return LoadEdgeList(path, error);
}

}  // namespace locs

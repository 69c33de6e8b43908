// locs_lint — the engine behind the five locs-* project-invariant checks
// (tools/lint/, gated by tools/run_lint.sh).
//
// The checks run over a comment/string-stripped token stream, so the
// engine builds with any C++20 compiler and needs no clang: the gate is
// the same in ctest, in CI, and on developer machines. Diagnostics use
// clang-tidy's format and honor // NOLINT(locs-...) and
// // NOLINTNEXTLINE(locs-...); the golden fixtures under
// tools/lint/fixtures/ prove every check still fires.
//
// Checks:
//   locs-raw-sync            raw std::mutex/lock_guard/condition_variable
//                            outside util/thread_annotations.h — they are
//                            invisible to Clang thread-safety analysis.
//   locs-lock-order          cycle in the lock-acquisition graph built
//                            from nested locs::MutexLock scopes plus
//                            LOCS_REQUIRES annotations, on a definition
//                            or on its declaration (static deadlock
//                            detection; the graph is merged across every
//                            input file, so cross-TU cycles are caught).
//   locs-blocking-under-lock syscall-shaped call (read/write/poll/open/
//                            sleeps/stdio) while a locs::MutexLock is
//                            live — a blocked thread must never hold a
//                            serving-path mutex.
//   locs-wire-err-literal    an "ERR ..." string literal outside
//                            src/serve/wire.cc — every wire error must
//                            come from the typed WireError table.
//   locs-solver-contract     a solver entry point (SearchResult-returning
//                            definition under src/core/) that neither
//                            opens an obs::PhaseTracker span nor reaches
//                            a LOCS_VALIDATE_RESULT hook, and does not
//                            delegate to an entry point that does.
//
// Usage: locs_lint file...   (every check runs on every file)
// Exit:  0 clean, 1 findings, 2 usage/read error.
//
// Being lexical, the engine over-approximates scopes (a lambda defined
// under a lock counts as running under it) and identifies mutexes by
// normalized spelling (Class::member_). Both biases are conservative:
// they can produce a finding a human must audit (and suppress with a
// justified NOLINT), never silently miss the pattern they encode.
// What it cannot see without types: a raw primitive renamed by a type
// alias or a using-declaration (the line that spells std:: fires, later
// uses do not); "ERR" spelled through escapes or split across adjacent
// literals; and the class of an object whose mutex is locked through
// `obj.mu_` / `obj->mu_` (that node keeps the bare member name).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Diagnostics

struct Diagnostic {
  std::string file;
  int line = 0;
  int col = 0;
  std::string check;
  std::string message;

  bool operator<(const Diagnostic& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    if (col != other.col) return col < other.col;
    return check < other.check;
  }
};

// The one file allowed to spell "ERR ..." literals (a path suffix).
const char kWireAllow[] = "serve/wire.cc";
// Path fragments that put a file in scope for locs-solver-contract.
const char kContractPaths[] = "src/core/,lint/fixtures/";

// ---------------------------------------------------------------------------
// Lexing: strip comments and strings, record literals and NOLINTs

struct StringLit {
  int line = 0;
  int col = 0;
  std::string text;
};

struct Suppression {
  bool all = false;
  std::set<std::string> checks;
};

struct SourceFile {
  std::string path;
  std::string code;  // comments/string contents blanked, newlines kept
  std::vector<StringLit> strings;
  std::map<int, Suppression> nolint;  // line -> suppressed checks
};

void AddNolint(SourceFile* file, int line, const std::string& list) {
  Suppression& sup = (*file).nolint[line];
  if (list.empty()) {
    sup.all = true;
    return;
  }
  std::stringstream stream(list);
  std::string name;
  while (std::getline(stream, name, ',')) {
    const size_t begin = name.find_first_not_of(" \t");
    const size_t end = name.find_last_not_of(" \t");
    if (begin == std::string::npos) continue;
    sup.checks.insert(name.substr(begin, end - begin + 1));
  }
}

/// Parses NOLINT / NOLINTNEXTLINE directives out of one comment.
void ScanCommentForNolint(SourceFile* file, int line,
                          const std::string& comment) {
  for (size_t pos = 0; (pos = comment.find("NOLINT", pos)) !=
                       std::string::npos;) {
    size_t after = pos + 6;
    int target = line;
    if (comment.compare(pos, 14, "NOLINTNEXTLINE") == 0) {
      after = pos + 14;
      target = line + 1;
    }
    std::string list;
    if (after < comment.size() && comment[after] == '(') {
      const size_t close = comment.find(')', after);
      if (close != std::string::npos) {
        list = comment.substr(after + 1, close - after - 1);
      }
    }
    AddNolint(file, target, list);
    pos = after;
  }
}

/// Reads and lexes one file. Comments and string/char contents are
/// replaced by spaces in `code` (newlines preserved, quotes kept so
/// token boundaries survive); string literals and NOLINT directives are
/// recorded on the side.
bool LexFile(const std::string& path, SourceFile* out) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) return false;
  std::stringstream buffer;
  buffer << stream.rdbuf();
  const std::string text = buffer.str();

  out->path = path;
  out->code.assign(text.size(), ' ');
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  int line = 1, col = 1;
  int tok_line = 1, tok_col = 1;    // start of current literal/comment
  std::string pending;              // current literal/comment content
  std::string raw_close;            // raw-string closing delimiter
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          tok_line = line;
          pending.clear();
          ++i, ++col;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          tok_line = line;
          pending.clear();
          ++i, ++col;
        } else if (c == '"') {
          // R"delim( ... )delim" raw string?
          bool raw = false;
          if (i > 0 && text[i - 1] == 'R') {
            const size_t open = text.find('(', i + 1);
            if (open != std::string::npos && open - i <= 18) {
              raw = true;
              raw_close = ")" + text.substr(i + 1, open - i - 1) + "\"";
              out->code[i] = '"';
              state = State::kRaw;
              tok_line = line;
              tok_col = col + 1;
              pending.clear();
              // Skip the delimiter + '(' (stay on current char loop).
              for (size_t j = i + 1; j <= open; ++j) out->code[j] = ' ';
              col += static_cast<int>(open - i);
              i = open;
              break;
            }
          }
          if (!raw) {
            out->code[i] = '"';
            state = State::kString;
            tok_line = line;
            tok_col = col + 1;
            pending.clear();
          }
        } else if (c == '\'') {
          out->code[i] = '\'';
          state = State::kChar;
        } else {
          out->code[i] = c;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          ScanCommentForNolint(out, tok_line, pending);
          state = State::kCode;
          out->code[i] = '\n';
        } else {
          pending.push_back(c);
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          ScanCommentForNolint(out, tok_line, pending);
          state = State::kCode;
          ++i, ++col;
        } else {
          pending.push_back(c);
          if (c == '\n') out->code[i] = '\n';
        }
        break;
      case State::kString:
        if (c == '\\') {
          pending.push_back(c);
          if (next != '\0') pending.push_back(next);
          ++i, ++col;
        } else if (c == '"') {
          out->code[i] = '"';
          out->strings.push_back({tok_line, tok_col, pending});
          state = State::kCode;
        } else {
          pending.push_back(c);
          if (c == '\n') out->code[i] = '\n';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i, ++col;
        } else if (c == '\'') {
          out->code[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRaw:
        if (text.compare(i, raw_close.size(), raw_close) == 0) {
          out->strings.push_back({tok_line, tok_col, pending});
          for (size_t j = 0; j + 1 < raw_close.size(); ++j) {
            ++col;
            ++i;
          }
          out->code[i] = '"';
          state = State::kCode;
        } else {
          pending.push_back(c);
          if (c == '\n') out->code[i] = '\n';
        }
        break;
    }
    if (c == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Tokenization of the stripped code

struct Token {
  std::string text;
  int line = 0;
  int col = 0;
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::vector<Token> Tokenize(const std::string& code) {
  std::vector<Token> tokens;
  int line = 1, col = 1;
  for (size_t i = 0; i < code.size();) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++col;
      ++i;
      continue;
    }
    if (IsIdentChar(c)) {
      Token token{"", line, col};
      while (i < code.size() && IsIdentChar(code[i])) {
        token.text.push_back(code[i]);
        ++i;
        ++col;
      }
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
      tokens.push_back({"::", line, col});
      i += 2;
      col += 2;
      continue;
    }
    if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
      tokens.push_back({"->", line, col});
      i += 2;
      col += 2;
      continue;
    }
    tokens.push_back({std::string(1, c), line, col});
    ++i;
    ++col;
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// Structural pass: blocks, functions, lock scopes

struct Block {
  enum Kind { kNamespace, kClass, kFunction, kPlain } kind = kPlain;
  std::string name;        // class or function name (possibly qualified)
  size_t locks_below = 0;  // lock-stack size at entry
};

struct ActiveLock {
  std::string mutex_id;   // normalized mutex identity
  std::string var_name;   // RAII variable ("" for LOCS_REQUIRES)
  size_t depth = 0;       // block-stack size at declaration
  int line = 0;
  int col = 0;
  bool active = true;
};

struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
  int col = 0;
};

struct FunctionDef {
  std::string file;
  std::string name;          // last component
  std::string qualified;     // Class::Name when qualified
  std::string return_type;   // first header token(s) before the name
  std::string params;        // raw parameter text
  int line = 0;
  int col = 0;
  std::string body;          // token texts of the body, space-joined
};

const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> set = {
      "if", "for", "while", "switch", "catch", "return", "do",
      "else", "sizeof", "alignof", "decltype", "new", "delete"};
  return set;
}

/// Syscall-shaped callables that must never run under a serving-path
/// mutex. Matched against the unqualified callee name of free and member
/// calls alike (`in.read(...)` blocks like `read(...)`); BlockingMembers
/// adds names that block only as member calls.
const std::set<std::string>& BlockingCalls() {
  static const std::set<std::string> set = {
      "read",      "write",      "pread",       "pwrite",    "readv",
      "writev",    "recv",       "recvfrom",    "recvmsg",   "send",
      "sendto",    "sendmsg",    "poll",        "ppoll",     "select",
      "pselect",   "epoll_wait", "epoll_pwait", "connect",   "accept",
      "accept4",   "open",       "openat",      "close",     "fsync",
      "fdatasync", "unlink",     "rename",      "mkdir",     "sleep",
      "usleep",    "nanosleep",  "system",      "popen",     "pclose",
      "fork",      "waitpid",    "fopen",       "fclose",    "fread",
      "fwrite",    "fprintf",    "vfprintf",    "fputs",     "fputc",
      "fgets",     "fgetc",      "fflush",      "fscanf",    "getline",
      "getdelim",  "printf",     "puts",        "scanf",     "sleep_for",
      "sleep_until"};
  return set;
}

const std::set<std::string>& BlockingMembers() {
  static const std::set<std::string> set = {"flush", "sync"};
  return set;
}

/// Normalizes a mutex expression to a stable identity: `this->` is
/// dropped, member access keeps only the final component, and a plain
/// member name is qualified by the enclosing class so `mutex_` in
/// GraphRegistry and in ResultCache stay distinct nodes.
std::string NormalizeMutexExpr(const std::vector<std::string>& expr,
                               const std::string& class_context) {
  std::vector<std::string> parts;
  for (const std::string& part : expr) {
    if (part == "this" || part == "->" || part == "." || part == "*" ||
        part == "&" || part == "(" || part == ")") {
      continue;
    }
    parts.push_back(part);
  }
  if (parts.empty()) return "<unknown>";
  const std::string last = parts.back();
  // Already qualified in source (ns::mu) — keep the spelling.
  if (parts.size() > 1 &&
      std::find(expr.begin(), expr.end(), "::") != expr.end()) {
    std::string joined;
    for (const std::string& part : parts) {
      if (!joined.empty()) joined += "::";
      joined += part;
    }
    return joined;
  }
  if (parts.size() == 1 && !class_context.empty()) {
    return class_context + "::" + last;
  }
  return last;
}

/// True when tokens [begin, open) head a class/struct/union definition
/// (not `struct X x = {...}`: no '=' or '(' allowed); *name gets the
/// class name, "" for an anonymous one.
bool IsClassHeader(const std::vector<Token>& tokens, size_t begin,
                   size_t open, std::string* name) {
  const std::string& first = tokens[begin].text;
  if (first != "class" && first != "struct" && first != "union") return false;
  for (size_t i = begin; i < open; ++i) {
    if (tokens[i].text == "=" || tokens[i].text == "(") return false;
  }
  name->clear();
  for (size_t i = begin + 1; i < open; ++i) {
    if (IsIdentChar(tokens[i].text[0]) && tokens[i].text != "alignas" &&
        tokens[i].text != "final") {
      *name = tokens[i].text;
      break;
    }
  }
  return true;
}

/// Index of the identifier naming the function that header tokens
/// [begin, end) declare or define: the first non-keyword identifier
/// directly followed by '(' (return-type tokens never are). Returns
/// `end` when there is none (a lambda or an expression).
size_t FunctionNameIndex(const std::vector<Token>& tokens, size_t begin,
                         size_t end) {
  for (size_t i = begin; i + 1 < end; ++i) {
    if (IsIdentChar(tokens[i].text[0]) &&
        ControlKeywords().count(tokens[i].text) == 0 &&
        tokens[i + 1].text == "(") {
      return i;
    }
  }
  return end;
}

/// Walks `A :: B :: [~]name` back from tokens[name_index] (destructors
/// carry a '~' between the '::' and the name). Returns the qualified
/// name; *first, when given, gets the index where it starts.
std::string QualifiedName(const std::vector<Token>& tokens,
                          size_t name_index, size_t* first = nullptr) {
  std::string qualified = tokens[name_index].text;
  size_t walk = name_index;
  if (walk >= 1 && tokens[walk - 1].text == "~") --walk;
  while (walk >= 2 && tokens[walk - 1].text == "::" &&
         IsIdentChar(tokens[walk - 2].text[0])) {
    qualified = tokens[walk - 2].text + "::" + qualified;
    walk -= 2;
  }
  if (first != nullptr) *first = walk;
  return qualified;
}

/// The scope a function's unqualified member names resolve in: the
/// qualifier of an out-of-line definition, else the enclosing class.
std::string MemberContext(const std::string& qualified,
                          const std::string& class_context) {
  const size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? class_context : qualified.substr(0, sep);
}

/// One key for a function's declaration and its definition, in or out of
/// the class body: `Class::Name`, or the bare name of a free function.
std::string FunctionKey(const std::string& qualified,
                        const std::string& class_context) {
  if (qualified.find("::") != std::string::npos || class_context.empty()) {
    return qualified;
  }
  return class_context + "::" + qualified;
}

/// Mutexes listed by every LOCS_REQUIRES(mu[, mu2]) in tokens
/// [begin, end), normalized in `context`.
std::vector<std::string> RequiredMutexes(const std::vector<Token>& tokens,
                                         size_t begin, size_t end,
                                         const std::string& context) {
  std::vector<std::string> held;
  for (size_t i = begin; i + 1 < end; ++i) {
    if (tokens[i].text != "LOCS_REQUIRES" || tokens[i + 1].text != "(") {
      continue;
    }
    std::vector<std::string> expr;
    int depth = 1;
    for (size_t j = i + 2; j < end && depth > 0; ++j) {
      if (tokens[j].text == "(") ++depth;
      if (tokens[j].text == ")") {
        --depth;
        if (depth == 0) break;
      }
      if (tokens[j].text == ",") {
        held.push_back(NormalizeMutexExpr(expr, context));
        expr.clear();
        continue;
      }
      expr.push_back(tokens[j].text);
    }
    if (!expr.empty()) held.push_back(NormalizeMutexExpr(expr, context));
  }
  return held;
}

struct Analyzer {
  // Cross-file state.
  std::vector<Diagnostic> diagnostics;
  std::vector<LockEdge> edges;
  std::set<std::string> entry_names;  // SearchResult-returning def names
  std::vector<FunctionDef> functions;
  std::vector<const SourceFile*> files;
  // FunctionKey -> mutexes a LOCS_REQUIRES declaration says are held.
  std::map<std::string, std::vector<std::string>> declared_requires;

  void Report(const SourceFile& file, int line, int col,
              const std::string& check, const std::string& message) {
    diagnostics.push_back({file.path, line, col, check, message});
  }

  // -------------------------------------------------------------------------
  // Per-file pass

  /// LOCS_REQUIRES on a declaration (`void F() LOCS_REQUIRES(mu_);`)
  /// holds in the body too, as the compiler carries the attribute to the
  /// definition. Runs over every input before any AnalyzeFile, so a
  /// header's contract reaches the .cc file that sorts before it.
  void CollectDeclaredRequires(const std::vector<Token>& tokens) {
    std::vector<std::string> classes;  // per open block: its class or ""
    size_t header_begin = 0;
    for (size_t i = 0; i < tokens.size(); ++i) {
      const std::string& text = tokens[i].text;
      if (text == "{") {
        std::string name;
        const bool is_class = header_begin < i &&
                              IsClassHeader(tokens, header_begin, i, &name);
        classes.push_back(is_class ? name : "");
      } else if (text == "}") {
        if (!classes.empty()) classes.pop_back();
      } else if (text == ";") {
        const std::string class_name = classes.empty() ? "" : classes.back();
        const size_t name_index = FunctionNameIndex(tokens, header_begin, i);
        if (name_index != i) {
          const std::string qualified = QualifiedName(tokens, name_index);
          for (std::string& mutex_id :
               RequiredMutexes(tokens, name_index + 1, i,
                               MemberContext(qualified, class_name))) {
            declared_requires[FunctionKey(qualified, class_name)].push_back(
                std::move(mutex_id));
          }
        }
      } else {
        continue;
      }
      header_begin = i + 1;
    }
  }

  void AnalyzeFile(const SourceFile& file, const std::vector<Token>& tokens) {
    files.push_back(&file);
    CheckRawSync(file, tokens);
    CheckWireErrLiterals(file);
    WalkStructure(file, tokens);
  }

  void CheckRawSync(const SourceFile& file, const std::vector<Token>& tokens) {
    if (file.path.ends_with("util/thread_annotations.h")) return;
    static const std::set<std::string> kRaw = {
        "mutex",          "timed_mutex",
        "recursive_mutex", "recursive_timed_mutex",
        "shared_mutex",   "shared_timed_mutex",
        "lock_guard",     "unique_lock",
        "scoped_lock",    "shared_lock",
        "condition_variable", "condition_variable_any"};
    // After `using namespace std;` a bare name in type position (followed
    // by a declarator or template arguments) is the raw type too.
    bool using_std = false;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].text == "using" && i + 3 < tokens.size() &&
          tokens[i + 1].text == "namespace" && tokens[i + 2].text == "std" &&
          tokens[i + 3].text == ";") {
        using_std = true;
      }
      if (kRaw.count(tokens[i].text) == 0) continue;
      const std::string prev = i > 0 ? tokens[i - 1].text : "";
      const bool qualified =
          i >= 2 && prev == "::" && tokens[i - 2].text == "std";
      const bool bare = using_std && prev != "::" && prev != "." &&
                        prev != "->" && i + 1 < tokens.size() &&
                        (tokens[i + 1].text == "<" ||
                         IsIdentChar(tokens[i + 1].text[0]));
      if (!qualified && !bare) continue;
      const Token& at = qualified ? tokens[i - 2] : tokens[i];
      Report(file, at.line, at.col, "locs-raw-sync",
             "raw std::" + tokens[i].text +
                 " is invisible to thread-safety analysis; use "
                 "locs::Mutex/MutexLock/CondVar from "
                 "util/thread_annotations.h");
    }
  }

  void CheckWireErrLiterals(const SourceFile& file) {
    if (file.path.ends_with(kWireAllow)) return;
    if (file.path.find("tests/") != std::string::npos) return;
    for (const StringLit& lit : file.strings) {
      // The detector must spell the pattern it detects.
      // NOLINTNEXTLINE(locs-wire-err-literal)
      if (lit.text == "ERR" || lit.text.compare(0, 4, "ERR ") == 0) {
        Report(file, lit.line, lit.col, "locs-wire-err-literal",
               "ad-hoc \"ERR ...\" literal; wire errors must go through "
               "FormatError and the typed WireError table in serve/wire.h");
      }
    }
  }

  // Returns true when `path` is in scope for locs-solver-contract.
  bool InContractScope(const std::string& path) const {
    std::stringstream stream(kContractPaths);
    std::string prefix;
    while (std::getline(stream, prefix, ',')) {
      if (!prefix.empty() && path.find(prefix) != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  // -------------------------------------------------------------------------
  // Structure walk: functions, lock scopes, calls

  void WalkStructure(const SourceFile& file,
                     const std::vector<Token>& tokens) {
    std::vector<Block> blocks;
    std::vector<ActiveLock> locks;
    // Start of the current "header" (text since the last ; { }).
    size_t header_begin = 0;

    auto class_context = [&blocks]() -> std::string {
      for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
        if (it->kind == Block::kClass) return it->name;
        if (it->kind == Block::kFunction) {
          const size_t sep = it->name.rfind("::");
          if (sep != std::string::npos) return it->name.substr(0, sep);
        }
      }
      return "";
    };

    auto active_count = [&locks]() {
      size_t count = 0;
      for (const ActiveLock& lock : locks) count += lock.active ? 1 : 0;
      return count;
    };

    std::vector<size_t> function_starts;  // indices into `functions`

    for (size_t i = 0; i < tokens.size(); ++i) {
      const Token& token = tokens[i];

      if (token.text == ";") {
        header_begin = i + 1;
        continue;
      }

      if (token.text == "{") {
        // Capture the lock-stack size before ClassifyBlock: synthetic
        // LOCS_REQUIRES locks it pushes belong to the opened scope and
        // must pop with it.
        const size_t locks_below = locks.size();
        blocks.push_back(
            ClassifyBlock(file, tokens, header_begin, i, class_context(),
                          &locks, &function_starts));
        blocks.back().locks_below = locks_below;
        header_begin = i + 1;
        continue;
      }

      if (token.text == "}") {
        if (!blocks.empty()) {
          const Block closed = blocks.back();
          blocks.pop_back();
          while (locks.size() > closed.locks_below) locks.pop_back();
          if (closed.kind == Block::kFunction && !function_starts.empty()) {
            FinishFunction(tokens, function_starts.back(), i);
            function_starts.pop_back();
          }
        }
        header_begin = i + 1;
        continue;
      }

      // RAII lock declaration: [locs ::] MutexLock name ( expr ) ; or
      // the brace-initialized MutexLock name { expr } ;
      if (token.text == "MutexLock" && i + 2 < tokens.size() &&
          IsIdentChar(tokens[i + 1].text[0]) &&
          (tokens[i + 2].text == "(" || tokens[i + 2].text == "{")) {
        const std::string open = tokens[i + 2].text;
        const std::string close = open == "(" ? ")" : "}";
        std::vector<std::string> expr;
        size_t j = i + 3;
        int depth = 1;
        for (; j < tokens.size() && depth > 0; ++j) {
          if (tokens[j].text == open) ++depth;
          if (tokens[j].text == close) {
            --depth;
            if (depth == 0) break;
          }
          expr.push_back(tokens[j].text);
        }
        const std::string mutex_id = NormalizeMutexExpr(expr, class_context());
        RecordAcquisition(file, token, mutex_id, locks);
        locks.push_back({mutex_id, tokens[i + 1].text, blocks.size(),
                         token.line, token.col, true});
        i = j;
        continue;
      }

      // Manual lock.Unlock() / lock.Lock() on a tracked RAII variable.
      // Edges are recorded before re-activation so re-locking the same
      // mutex after a wait loop is not a self-edge.
      if ((token.text == "Unlock" || token.text == "Lock") && i >= 2 &&
          (tokens[i - 1].text == "." || tokens[i - 1].text == "->") &&
          i + 1 < tokens.size() && tokens[i + 1].text == "(") {
        for (ActiveLock& lock : locks) {
          if (lock.var_name == tokens[i - 2].text) {
            if (token.text == "Lock" && !lock.active) {
              RecordAcquisition(file, token, lock.mutex_id, locks);
            }
            lock.active = token.text == "Lock";
          }
        }
        continue;
      }

      if (active_count() == 0) continue;

      // Calls while a lock is live: the blocking-under-lock check.
      if (IsIdentChar(token.text[0]) && i + 1 < tokens.size() &&
          tokens[i + 1].text == "(") {
        const bool member_call =
            i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "->");
        const bool blocking =
            BlockingCalls().count(token.text) != 0 ||
            (member_call && BlockingMembers().count(token.text) != 0);
        if (blocking && ControlKeywords().count(token.text) == 0) {
          Report(file, token.line, token.col, "locs-blocking-under-lock",
                 "'" + token.text + "' may block while '" +
                     InnermostActive(locks) +
                     "' is held; move the call outside the critical "
                     "section or audit with a justified NOLINT");
        }
      }

      // std::cout / std::cerr under a lock are stream writes.
      if ((token.text == "cout" || token.text == "cerr" ||
           token.text == "clog" || token.text == "cin") &&
          i >= 2 && tokens[i - 2].text == "std" &&
          tokens[i - 1].text == "::") {
        Report(file, token.line, token.col, "locs-blocking-under-lock",
               "std::" + token.text + " performs IO while '" +
                   InnermostActive(locks) + "' is held");
      }
    }
  }

  static std::string InnermostActive(const std::vector<ActiveLock>& locks) {
    for (auto it = locks.rbegin(); it != locks.rend(); ++it) {
      if (it->active) return it->mutex_id;
    }
    return "<none>";
  }

  /// Records lock-order edges from every live lock to `mutex_id`.
  void RecordAcquisition(const SourceFile& file, const Token& at,
                         const std::string& mutex_id,
                         const std::vector<ActiveLock>& locks) {
    for (const ActiveLock& held : locks) {
      if (!held.active) continue;
      edges.push_back({held.mutex_id, mutex_id, file.path, at.line, at.col});
    }
  }

  /// Classifies the block opened at tokens[open] ("{") from its header
  /// tokens [header_begin, open). Functions push a FunctionDef skeleton;
  /// LOCS_REQUIRES annotations inject synthetic held locks.
  Block ClassifyBlock(const SourceFile& file, const std::vector<Token>& tokens,
                      size_t header_begin, size_t open,
                      const std::string& class_context,
                      std::vector<ActiveLock>* locks,
                      std::vector<size_t>* function_starts) {
    Block block;
    if (header_begin >= open) return block;
    const Token& first = tokens[header_begin];
    if (first.text == "namespace") {
      block.kind = Block::kNamespace;
      if (header_begin + 1 < open && IsIdentChar(tokens[header_begin + 1]
                                                     .text[0])) {
        block.name = tokens[header_begin + 1].text;
      }
      return block;
    }
    if (first.text == "enum") return block;  // enum class body, no scopes
    if (first.text == "extern") return block;
    if (IsClassHeader(tokens, header_begin, open, &block.name)) {
      block.kind = Block::kClass;
      return block;
    }
    bool has_assign = false, has_parens = false;
    for (size_t i = header_begin; i < open; ++i) {
      if (tokens[i].text == "=") has_assign = true;
      if (tokens[i].text == "(") has_parens = true;
    }
    if (!has_parens || has_assign) return block;  // init list / plain block
    if (ControlKeywords().count(first.text) != 0) return block;

    const size_t name_index = FunctionNameIndex(tokens, header_begin, open);
    if (name_index == open) return block;  // lambda or expression block
    size_t walk = 0;  // first token of the qualified name
    const std::string qualified = QualifiedName(tokens, name_index, &walk);
    block.kind = Block::kFunction;
    block.name = qualified;

    FunctionDef def;
    def.file = file.path;
    def.qualified = qualified;
    def.name = tokens[name_index].text;
    def.line = tokens[name_index].line;
    def.col = tokens[name_index].col;
    for (size_t i = header_begin; i < walk; ++i) {
      if (!def.return_type.empty()) def.return_type += " ";
      def.return_type += tokens[i].text;
    }
    // Parameter text: the balanced group right after the name.
    int depth = 0;
    size_t params_end = name_index + 1;
    for (size_t i = name_index + 1; i < open; ++i) {
      if (tokens[i].text == "(") ++depth;
      if (tokens[i].text == ")") {
        --depth;
        if (depth == 0) {
          params_end = i;
          break;
        }
      }
      if (depth >= 1 && i > name_index + 1) {
        def.params += tokens[i].text;
        def.params += " ";
      }
    }
    functions.push_back(def);
    function_starts->push_back(functions.size() - 1);
    if (def.return_type.find("SearchResult") != std::string::npos) {
      entry_names.insert(def.name);
    }

    // LOCS_REQUIRES(mu[, mu2]) after the parameter list or on the
    // function's declaration: the listed mutexes are held for the whole
    // body (a mutex listed twice only repeats deduplicated edges).
    std::vector<std::string> held = RequiredMutexes(
        tokens, params_end, open, MemberContext(qualified, class_context));
    const auto declared =
        declared_requires.find(FunctionKey(qualified, class_context));
    if (declared != declared_requires.end()) {
      held.insert(held.end(), declared->second.begin(),
                  declared->second.end());
    }
    for (const std::string& mutex_id : held) {
      locks->push_back({mutex_id, "", /*depth=*/0, def.line, def.col, true});
    }
    return block;
  }

  /// Captures the body text of the function whose definition is
  /// functions[index]; the body ends at tokens[close] ("}").
  void FinishFunction(const std::vector<Token>& tokens, size_t index,
                      size_t close) {
    FunctionDef& def = functions[index];
    // The body starts right after the first '{' following the header;
    // approximate by joining all tokens from the definition line's name
    // to the closing brace. Good enough for containment queries.
    std::string body;
    for (size_t i = 0; i < close && i < tokens.size(); ++i) {
      if (tokens[i].line < def.line) continue;
      body += tokens[i].text;
      body += ' ';
    }
    def.body = std::move(body);
  }

  // -------------------------------------------------------------------------
  // Cross-file passes (after every AnalyzeFile call)

  void Finalize() {
    CheckLockOrder();
    CheckSolverContract();
  }

  void CheckLockOrder() {
    // Dedup edges; self-edges are immediate deadlocks.
    std::map<std::pair<std::string, std::string>, const LockEdge*> unique;
    for (const LockEdge& edge : edges) {
      unique.emplace(std::make_pair(edge.from, edge.to), &edge);
    }
    std::map<std::string, std::vector<std::string>> graph;
    for (const auto& [key, edge] : unique) {
      if (key.first == key.second) {
        diagnostics.push_back(
            {edge->file, edge->line, edge->col, "locs-lock-order",
             "mutex '" + key.first +
                 "' re-acquired while already held (self-deadlock)"});
        continue;
      }
      graph[key.first].push_back(key.second);
    }
    // DFS cycle detection; report each cycle once, at the edge that
    // closes it, with the full path in the message.
    std::set<std::string> done;
    std::set<std::string> reported;
    for (const auto& [start, unused] : graph) {
      (void)unused;
      std::vector<std::string> path;
      std::set<std::string> on_path;
      DfsCycles(graph, unique, start, &path, &on_path, &done, &reported);
    }
  }

  void DfsCycles(
      const std::map<std::string, std::vector<std::string>>& graph,
      const std::map<std::pair<std::string, std::string>, const LockEdge*>&
          unique,
      const std::string& node, std::vector<std::string>* path,
      std::set<std::string>* on_path, std::set<std::string>* done,
      std::set<std::string>* reported) {
    if (done->count(node) != 0) return;
    path->push_back(node);
    on_path->insert(node);
    const auto it = graph.find(node);
    if (it != graph.end()) {
      for (const std::string& next : it->second) {
        if (on_path->count(next) != 0) {
          // Cycle: from the first occurrence of `next` in path to node.
          std::string cycle;
          bool in_cycle = false;
          for (const std::string& hop : *path) {
            if (hop == next) in_cycle = true;
            if (in_cycle) {
              cycle += hop;
              cycle += " -> ";
            }
          }
          cycle += next;
          if (reported->insert(cycle).second) {
            const LockEdge* edge = unique.at({node, next});
            diagnostics.push_back(
                {edge->file, edge->line, edge->col, "locs-lock-order",
                 "lock-order cycle (potential deadlock): " + cycle});
          }
          continue;
        }
        DfsCycles(graph, unique, next, path, on_path, done, reported);
      }
    }
    on_path->erase(node);
    path->pop_back();
    done->insert(node);
  }

  void CheckSolverContract() {
    // NOLINT lookup needs the owning file.
    std::map<std::string, const SourceFile*> by_path;
    for (const SourceFile* file : files) by_path[file->path] = file;
    for (const FunctionDef& def : functions) {
      if (!InContractScope(def.file)) continue;
      if (def.return_type.find("SearchResult") == std::string::npos) continue;
      // Exemptions: *Impl workers (their caller owns the span), Make*
      // factories, transformers taking a SearchResult, and internal
      // helpers handed an already-open PhaseTracker.
      if (def.name.size() >= 4 &&
          def.name.compare(def.name.size() - 4, 4, "Impl") == 0) {
        continue;
      }
      if (def.name.compare(0, 4, "Make") == 0) continue;
      if (def.params.find("PhaseTracker") != std::string::npos) continue;
      if (def.params.find("SearchResult") != std::string::npos) continue;

      // Delegation: calling another entry point (or an Impl worker)
      // satisfies both obligations — the callee's are checked on its own
      // definition. A member-qualified call to a same-named method
      // (facade pattern: `multi_solver_.CstMulti(...)`) is delegation; a
      // bare same-named call is recursion and does not count.
      bool delegates = false;
      for (const std::string& name : entry_names) {
        if (name != def.name &&
            def.body.find(" " + name + " (") != std::string::npos) {
          delegates = true;
          break;
        }
        if (def.body.find(". " + name + " (") != std::string::npos ||
            def.body.find("-> " + name + " (") != std::string::npos) {
          delegates = true;
          break;
        }
      }
      if (!delegates &&
          def.body.find(" " + def.name + "Impl (") != std::string::npos) {
        delegates = true;
      }
      // A span is a PhaseTracker variable, not a pointer or reference to
      // one; validation is the LOCS_VALIDATE_RESULT hook, which compiles
      // away in production builds, not a direct call to the validator.
      bool has_tracker = false;
      for (size_t at = 0; !has_tracker && (at = def.body.find(
                                               "PhaseTracker ", at)) !=
                                              std::string::npos;) {
        at += 13;
        has_tracker = at < def.body.size() && IsIdentChar(def.body[at]);
      }
      const bool has_validate =
          def.body.find("LOCS_VALIDATE_RESULT") != std::string::npos;
      const SourceFile* file = by_path[def.file];
      if (file == nullptr) continue;
      if (!has_tracker && !delegates) {
        Report(*file, def.line, def.col, "locs-solver-contract",
               "solver entry point '" + def.qualified +
                   "' opens no obs::PhaseTracker span and delegates to no "
                   "instrumented entry point");
      }
      if (!has_validate && !delegates) {
        Report(*file, def.line, def.col, "locs-solver-contract",
               "solver entry point '" + def.qualified +
                   "' never reaches a LOCS_VALIDATE_RESULT hook");
      }
    }
  }
};

// ---------------------------------------------------------------------------

bool Suppressed(const SourceFile& file, const Diagnostic& diag) {
  const auto it = file.nolint.find(diag.line);
  if (it == file.nolint.end()) return false;
  return it->second.all || it->second.checks.count(diag.check) != 0;
}

int Usage() {
  std::fprintf(stderr, "usage: locs_lint file...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Analyzer analyzer;

  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.compare(0, 2, "--") == 0) return Usage();
    paths.push_back(arg);
  }
  if (paths.empty()) return Usage();

  // Lex every file first (the lock graph, the entry-point set and the
  // declared LOCS_REQUIRES contracts are whole-input properties), then
  // analyze.
  std::vector<SourceFile> sources(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!LexFile(paths[i], &sources[i])) {
      std::fprintf(stderr, "locs_lint: cannot read '%s'\n", paths[i].c_str());
      return 2;
    }
  }
  std::vector<std::vector<Token>> tokens;
  for (const SourceFile& file : sources) {
    tokens.push_back(Tokenize(file.code));
    analyzer.CollectDeclaredRequires(tokens.back());
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    analyzer.AnalyzeFile(sources[i], tokens[i]);
  }
  analyzer.Finalize();

  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& file : sources) by_path[file.path] = &file;
  std::sort(analyzer.diagnostics.begin(), analyzer.diagnostics.end());
  int findings = 0;
  for (const Diagnostic& diag : analyzer.diagnostics) {
    const SourceFile* file = by_path[diag.file];
    if (file != nullptr && Suppressed(*file, diag)) continue;
    std::printf("%s:%d:%d: warning: %s [%s]\n", diag.file.c_str(), diag.line,
                diag.col, diag.message.c_str(), diag.check.c_str());
    ++findings;
  }
  if (findings == 0) {
    std::fprintf(stderr, "locs_lint: %zu files clean\n", sources.size());
    return 0;
  }
  std::fprintf(stderr, "locs_lint: %d finding(s)\n", findings);
  return 1;
}

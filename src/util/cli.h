// Command-line flag parsing for every binary that takes --flags.
//
// Flags use the form --name=value, or --name alone for a switch. A binary
// lists its flags and switches for OnlyKnownFlags and reads its numbers
// with ReadWhole, ReadMs and ReadFinite, which sit on ParseWhole, the
// whole-token parse the wire protocol shares.

#ifndef LOCS_UTIL_CLI_H_
#define LOCS_UTIL_CLI_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

namespace locs {

/// Parses `--key=value` style arguments. Never fails: the first argument
/// it cannot take is kept for OnlyKnownFlags to report.
class CommandLine {
 public:
  CommandLine(int argc, char** argv);

  bool Has(const std::string& name) const;
  /// The value of --name=value; `fallback` when the flag is absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// False, with *error naming it, for a positional argument, an empty
  /// (`--`, `--=5`) or repeated name, a name in neither `flags` (which
  /// take a value) nor `switches` (which take none), a value on a
  /// switch, or a flag without a value.
  bool OnlyKnownFlags(std::span<const std::string_view> flags,
                      std::string* error,
                      std::span<const std::string_view> switches = {}) const;

 private:
  /// Value per flag name; nullopt for a bare --name.
  std::map<std::string, std::optional<std::string>> values_;
  /// Names the first argument that is not a new --name[=value].
  std::string error_;
};

/// `text` as one T, as std::from_chars reads all of it: nullopt for an
/// empty token, a '+', a space or other stray character, a '-' on an
/// unsigned T, or a value outside T. Callers check the range they need.
template <typename T>
std::optional<T> ParseWhole(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Reads --name, when given, as one whole decimal number in [0, max];
/// *out keeps its value when the flag is absent. False, with *error
/// naming the flag, for a sign, a stray character or a value past max.
template <typename T>
bool ReadWhole(const CommandLine& cli, const char* name, T* out,
               std::string* error, T max = std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T>);
  if (!cli.Has(name)) return true;
  const std::string text = cli.GetString(name, "");
  const std::optional<T> value = ParseWhole<T>(text);
  if (!value.has_value() || *value > max) {
    *error = "--" + std::string(name) + " must be a whole number in [0, " +
             std::to_string(max) + "], got '" + text + "'";
    return false;
  }
  *out = *value;
  return true;
}

/// Reads --name, when given, as a finite number, of either sign when
/// `allow_negative`. False, with *error naming the flag, for anything else.
bool ReadFinite(const CommandLine& cli, const char* name, double* out,
                std::string* error, bool allow_negative = true);

/// Reads --name, when given, as a finite non-negative millisecond count.
inline bool ReadMs(const CommandLine& cli, const char* name, double* out,
                   std::string* error) {
  return ReadFinite(cli, name, out, error, /*allow_negative=*/false);
}

/// Prints "error: <error>" to stderr; returns 2, the bad-command-line exit.
int FlagError(const std::string& error);

/// Reads a positive scale factor from the LOCS_BENCH_SCALE environment
/// variable (default 1.0). Bench dataset sizes multiply by this, so larger
/// machines can run paper-scale experiments without code changes. Any
/// other value exits 2, naming the variable.
double BenchScaleFromEnv();

}  // namespace locs

#endif  // LOCS_UTIL_CLI_H_

// Minimal command-line flag parsing for benches and examples.
//
// Flags use the form --name=value or --name (boolean true). An argument
// that does not start with -- aborts. The lookups are lenient: an absent
// flag returns its fallback and a malformed number reads as what strtoll
// or strtod make of it. A command that must reject bad input instead
// checks its flag names with OnlyKnownFlags and reads its numbers with
// ReadWhole and ReadMs.

#ifndef LOCS_UTIL_CLI_H_
#define LOCS_UTIL_CLI_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace locs {

/// Parses `--key=value` style arguments and serves typed lookups.
class CommandLine {
 public:
  CommandLine(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;
  /// Every flag name given, sorted.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::string> values_;
};

/// False, with *error naming it, when a flag given is not in `known`.
bool OnlyKnownFlags(const CommandLine& cli,
                    std::span<const std::string_view> known,
                    std::string* error);

/// Reads --name, when given, as one whole decimal number in [0, max];
/// *out keeps its value when the flag is absent. False, with *error
/// naming the flag, for a sign, a stray character or a value past max.
template <typename T>
bool ReadWhole(const CommandLine& cli, const char* name, T* out,
               std::string* error, T max = std::numeric_limits<T>::max()) {
  if (!cli.Has(name)) return true;
  const std::string text = cli.GetString(name, "");
  const char* const end = text.data() + text.size();
  T value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) {
    *error = "--" + std::string(name) + " must be a whole number in [0, " +
             std::to_string(max) + "], got '" + text + "'";
    return false;
  }
  *out = value;
  return true;
}

/// Reads --name, when given, as a finite non-negative millisecond count.
bool ReadMs(const CommandLine& cli, const char* name, double* out,
            std::string* error);

/// Reads a positive scale factor from the LOCS_BENCH_SCALE environment
/// variable (default 1.0). Bench dataset sizes multiply by this, so larger
/// machines can run paper-scale experiments without code changes.
double BenchScaleFromEnv();

}  // namespace locs

#endif  // LOCS_UTIL_CLI_H_

// Minimal command-line flag parsing for benches and examples.
//
// Flags use the form --name=value or --name (boolean true). An argument
// that does not start with -- aborts. Flag names are not checked here:
// lookups of absent flags return their fallback, and a caller that must
// reject unknown flags compares Names() against the set it knows.

#ifndef LOCS_UTIL_CLI_H_
#define LOCS_UTIL_CLI_H_

#include <cstdint>
#include <map>
#include <string>
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

/// Reads a positive scale factor from the LOCS_BENCH_SCALE environment
/// variable (default 1.0). Bench dataset sizes multiply by this, so larger
/// machines can run paper-scale experiments without code changes.
double BenchScaleFromEnv();

}  // namespace locs

#endif  // LOCS_UTIL_CLI_H_

#include "util/cli.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/check.h"

namespace locs {

CommandLine::CommandLine(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    LOCS_CHECK_MSG(std::strncmp(arg, "--", 2) == 0,
                   "flags must start with --");
    std::string body(arg + 2);
    const size_t eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

bool CommandLine::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t CommandLine::GetInt(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(),
                                                       nullptr, 10);
}

double CommandLine::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
}

bool CommandLine::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> CommandLine::Names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

bool OnlyKnownFlags(const CommandLine& cli,
                    std::span<const std::string_view> known,
                    std::string* error) {
  for (const std::string& name : cli.Names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      *error = "unknown flag --" + name;
      return false;
    }
  }
  return true;
}

bool ReadMs(const CommandLine& cli, const char* name, double* out,
            std::string* error) {
  if (!cli.Has(name)) return true;
  const std::string text = cli.GetString(name, "");
  const char* const end = text.data() + text.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < 0.0) {
    *error = "--" + std::string(name) +
             " must be a non-negative number of milliseconds, got '" +
             text + "'";
    return false;
  }
  *out = value;
  return true;
}

double BenchScaleFromEnv() {
  const char* env = std::getenv("LOCS_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::strtod(env, nullptr);
  return v > 0.0 ? v : 1.0;
}

}  // namespace locs

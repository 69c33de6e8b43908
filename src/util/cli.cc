#include "util/cli.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace locs {

CommandLine::CommandLine(int argc, char** argv) {
  for (int i = 1; i < argc && error_.empty(); ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected argument '" + arg + "'";
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == arg.npos ? eq : eq - 2);
    if (name.empty()) {
      error_ = "empty flag name in '" + arg + "'";
    } else if (!values_.emplace(name, std::nullopt).second) {
      error_ = "--" + name + " given more than once";
    } else if (eq != arg.npos) {
      values_[name] = arg.substr(eq + 1);
    }
  }
}

bool CommandLine::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second.value_or("");
}

bool CommandLine::OnlyKnownFlags(
    std::span<const std::string_view> flags, std::string* error,
    std::span<const std::string_view> switches) const {
  *error = error_;
  for (const auto& [name, value] : values_) {
    if (!error->empty()) return false;
    const auto listed = [&name](std::span<const std::string_view> names) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    if (listed(switches)) {
      if (value.has_value()) *error = "--" + name + " takes no value";
    } else if (!listed(flags)) {
      *error = "unknown flag --" + name;
    } else if (!value.has_value()) {
      *error = "--" + name + " needs a value";
    }
  }
  return error->empty();
}

bool ReadFinite(const CommandLine& cli, const char* name, double* out,
                std::string* error, bool allow_negative) {
  if (!cli.Has(name)) return true;
  const std::string text = cli.GetString(name, "");
  const std::optional<double> value = ParseWhole<double>(text);
  if (!value.has_value() || !std::isfinite(*value) ||
      (*value < 0.0 && !allow_negative)) {
    *error = "--" + std::string(name) + " must be a finite" +
             (allow_negative ? "" : " non-negative") + " number, got '" +
             text + "'";
    return false;
  }
  *out = *value;
  return true;
}

int FlagError(const std::string& error) {
  std::fprintf(stderr, "error: %s\n", error.c_str());
  return 2;
}

double BenchScaleFromEnv() {
  const char* env = std::getenv("LOCS_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const std::optional<double> scale = ParseWhole<double>(env);
  if (scale.has_value() && std::isfinite(*scale) && *scale > 0.0) {
    return *scale;
  }
  std::fprintf(stderr,
               "error: LOCS_BENCH_SCALE must be a positive number, got "
               "'%s'\n",
               env);
  std::exit(2);
}

}  // namespace locs

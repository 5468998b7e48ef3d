#include "cli.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

namespace perfbench {

namespace {

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

/// Workload names the program accepts, in BENCHMARK.json order.
const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"data-loss", "parity-loss"};
  return names;
}

}  // namespace

std::optional<Options> parse_args(std::span<const char* const> args,
                                  std::string& error) {
  Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view flag = args[i];
    if (i + 1 >= args.size()) {
      error = "missing value for " + std::string(flag);
      return std::nullopt;
    }
    const std::string_view value = args[++i];
    if (flag == "--workload") {
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        error = "unknown workload '" + std::string(value) + "'";
        return std::nullopt;
      }
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, opts.seed)) {
        error = "--seed needs a non-negative integer";
        return std::nullopt;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      if (!parse_u64(value, s) || s < 1 || s > 600) {
        error = "--seconds needs a whole number from 1 to 600";
        return std::nullopt;
      }
      opts.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        error = "--trace needs 0 or 1";
        return std::nullopt;
      }
      opts.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      opts.spans_path = value;
    } else {
      error = "unknown flag " + std::string(flag);
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    error = "--workload, --seed, --seconds and --trace are required";
    return std::nullopt;
  }
  return opts;
}

std::optional<std::string> first_pinned_env_var_set() {
  for (const char* var :
       {"RPR_SLICE_SIZE", "RPR_GF_FORCE", "RPR_THREADS", "RPR_VERIFY_ONLINE",
        "RPR_VERIFY_PLANS", "RPR_LOCK_GRAPH"}) {
    if (std::getenv(var) != nullptr) return var;
  }
  return std::nullopt;
}

}  // namespace perfbench

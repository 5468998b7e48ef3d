// Command line and environment of the benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Every flag but --spans is required. The environment variables that retune
// the program under test (slice size, GF tier, thread count, online plan
// verification, lock-graph recording) must be unset: a run that inherits
// one would measure a different program, so the program refuses to start and
// names the variable.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// Parses argv[1..]; on failure returns nullopt and sets `error`.
[[nodiscard]] std::optional<Options> parse_args(
    std::span<const char* const> args, std::string& error);

/// The first environment variable set that retunes the program under test
/// (slice size, GF tier, thread count, online verification, lock graph).
[[nodiscard]] std::optional<std::string> first_pinned_env_var_set();

}  // namespace perfbench

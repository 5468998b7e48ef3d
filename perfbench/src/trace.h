// In-memory span recorder for the traced run.
//
// The benchmark opens a span (name, start, end, parent, op id) around each
// public call it makes into the program. Spans stay in a preallocated
// vector until the run ends, when they can be written out as JSON lines.
// A disabled tracer records nothing, so untraced runs pay one branch per
// call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation the span belongs to

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// RAII span; the innermost open span becomes the parent of new ones.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
    std::uint32_t saved_parent_ = 0;
  };

  /// Durations in seconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Writes one JSON object per span; false when the file cannot be opened.
  bool write_jsonl(const std::string& path) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::uint32_t open_ = 0;  ///< id of the innermost open span
};

}  // namespace perfbench

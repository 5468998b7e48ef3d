// Deadline pacing for emulated links.
//
// A paced stream must average its modeled rate. Sleeping a fixed delay
// after each chunk does not: the OS timer wakes tens of microseconds late,
// so a 524 ns delay (64 KiB at 1000 Gb/s) costs ~50 us and a 131 us delay
// (64 KiB at 4 Gb/s) costs ~180 us. A Pacer instead sleeps until the time
// the bytes sent so far are *due* — origin + bytes / rate — and only when
// that time is still ahead of now. Lateness (a late wake-up, a slow write)
// carries over into the next stretch of the same stream, so a late sleep is
// repaid by a shorter one; idle time between stretches (a sender waiting
// on its input) does not, so a stream never banks a burst. The carried
// lateness is capped at kMaxCarryS.
#pragma once

#include <algorithm>
#include <chrono>
#include <thread>

namespace rpr::util {

class Pacer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Most lateness one stretch hands to the next (seconds).
  static constexpr double kMaxCarryS = 0.001;

  /// Starts a stretch: the paced clock starts now, less the lateness the
  /// previous stretch ended with.
  void begin() {
    origin_ = Clock::now() - std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(late_s_));
    due_s_ = 0.0;
  }

  /// Accounts `seconds` more of paced transfer time in this stretch and
  /// sleeps until it is due, when that is ahead of now.
  void advance(double seconds) {
    due_s_ += seconds;
    const Clock::time_point due =
        origin_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due_s_));
    if (due > Clock::now()) std::this_thread::sleep_until(due);
    late_s_ = std::clamp(
        std::chrono::duration<double>(Clock::now() - due).count(), 0.0,
        kMaxCarryS);
  }

 private:
  Clock::time_point origin_ = Clock::now();
  double due_s_ = 0.0;
  double late_s_ = 0.0;
};

}  // namespace rpr::util

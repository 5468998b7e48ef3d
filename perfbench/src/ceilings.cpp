#include "ceilings.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kPumpBytes = 256ull << 20;
constexpr std::size_t kPumpChunk = 1 << 20;

/// Owns one file descriptor.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

 private:
  int fd_;
};

/// Moves kPumpBytes through one loopback connection; seconds, or NaN.
double pump_once() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Fd listener(::socket(AF_INET, SOCK_STREAM, 0));
  if (!listener.ok()) return nan;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  if (::bind(listener.get(), reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(listener.get(), 1) != 0 ||
      ::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return nan;
  }
  Fd client(::socket(AF_INET, SOCK_STREAM, 0));
  if (!client.ok() ||
      ::connect(client.get(), reinterpret_cast<sockaddr*>(&addr), len) != 0) {
    return nan;
  }
  Fd server(::accept(listener.get(), nullptr, nullptr));
  if (!server.ok()) return nan;

  std::vector<char> out(kPumpChunk, 'x');
  std::vector<char> in(kPumpChunk);
  bool send_ok = true;
  const auto t0 = Clock::now();
  std::thread writer([&] {
    std::size_t sent = 0;
    while (sent < kPumpBytes) {
      const ssize_t n = ::send(client.get(), out.data(),
                               std::min(kPumpChunk, kPumpBytes - sent),
                               MSG_NOSIGNAL);
      if (n <= 0) {
        send_ok = false;
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    ::shutdown(client.get(), SHUT_WR);
  });
  std::size_t received = 0;
  while (received < kPumpBytes) {
    const ssize_t n = ::recv(server.get(), in.data(), in.size(), 0);
    if (n <= 0) break;
    received += static_cast<std::size_t>(n);
  }
  const auto t1 = Clock::now();
  writer.join();
  if (!send_ok || received != kPumpBytes) return nan;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

double memcpy_gbps(std::size_t bytes) {
  std::vector<unsigned char> src(bytes, 0x5a), dst(bytes);
  // Each sample copies at least 64 MiB so small sizes are not timer-bound.
  const std::size_t copies = std::max<std::size_t>(1, (64u << 20) / bytes);
  std::vector<double> rates;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < copies; ++c) {
      std::memcpy(dst.data(), src.data(), bytes);
      src[c % bytes] = dst[(c * 7) % bytes];  // keep every copy live
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    rates.push_back(static_cast<double>(bytes * copies) / s * 1e-9);
  }
  return quantile(rates, 0.5);
}

double loopback_gbps() {
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const double s = pump_once();
    if (!(s > 0.0)) return std::numeric_limits<double>::quiet_NaN();
    rates.push_back(static_cast<double>(kPumpBytes) / s * 1e-9);
  }
  return quantile(rates, 0.5);
}

}  // namespace perfbench

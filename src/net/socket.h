// Minimal RAII TCP socket layer (loopback-oriented).
//
// The paper's real-world evaluation ran repair agents on actual machines
// talking TCP. This layer provides exactly what the networked runtime
// needs: listening sockets on ephemeral 127.0.0.1 ports, connects and
// exact-length reads/writes with optional timeouts, all exception-safe. No
// external dependencies — plain POSIX sockets.
//
// Robustness notes: writes use MSG_NOSIGNAL, so a peer that died mid-stream
// produces an EPIPE error instead of a process-killing SIGPIPE; reads honor
// SO_RCVTIMEO (set_recv_timeout) so a hung peer errors out instead of
// blocking forever; accept and connect take optional deadlines (poll-based)
// for the same reason. A runtime facing an unresponsive peer therefore
// always gets an exception it can convert into a retry or a re-plan.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace rpr::net {

/// Owning file-descriptor wrapper; move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Writes the whole buffer or throws std::runtime_error.
  void write_all(std::span<const std::uint8_t> bytes);
  /// Reads exactly bytes.size() bytes or throws (EOF and timeout included).
  void read_exact(std::span<std::uint8_t> bytes);

  /// Subsequent reads error out ("recv: timed out") after `seconds` of
  /// inactivity instead of blocking forever (SO_RCVTIMEO).
  void set_recv_timeout(double seconds);

  /// Waits up to `timeout_s` for the socket to become readable (data, EOF,
  /// or error — a following read resolves which). Returns false on
  /// timeout, or as soon as `wake` (a WakeFd's fd; -1 = none) is readable.
  /// Lets a frame-loop receiver idle on a pooled connection without arming
  /// a recv deadline that would sever it.
  [[nodiscard]] bool poll_readable(double timeout_s, int wake = -1);

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to 127.0.0.1 on an ephemeral port.
class Listener {
 public:
  Listener();  // binds + listens; throws on failure
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Blocks until a peer connects.
  [[nodiscard]] Socket accept();
  /// Waits up to `timeout_s` for a peer; returns an invalid Socket on
  /// timeout, or as soon as `wake` (a WakeFd's fd; -1 = none) is readable
  /// (the caller re-checks its exit conditions and polls again).
  [[nodiscard]] Socket accept(double timeout_s, int wake = -1);

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// A one-shot, level-triggered wake-up for threads blocked in poll-based
/// waits (Listener::accept, Socket::poll_readable): once signal()ed, its
/// fd stays readable for good, so every present and future wait on it
/// returns at once. Meant for conditions that never revert (all of a
/// node's work resolved, the node died). A self-pipe; not copyable.
class WakeFd {
 public:
  WakeFd();  // throws on failure
  ~WakeFd();
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  /// The fd to poll for readability.
  [[nodiscard]] int fd() const noexcept { return read_fd_; }
  /// Makes fd() readable; idempotent and safe from any thread.
  void signal() noexcept;

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

/// Blocking connect to 127.0.0.1:port.
[[nodiscard]] Socket connect_local(std::uint16_t port);
/// Connect with a deadline: throws std::runtime_error ("connect: timed
/// out") when the peer does not answer within `timeout_s`.
[[nodiscard]] Socket connect_local(std::uint16_t port, double timeout_s);

}  // namespace rpr::net

#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace rpr::net {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

::sockaddr_in loopback(std::uint16_t port) {
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Polls `fd` (and `wake`, when >= 0) for readability for up to
/// `timeout_s`; true iff `fd` is readable.
bool poll_with_wake(int fd, double timeout_s, int wake, const char* what) {
  ::pollfd pfd[2]{};
  pfd[0].fd = fd;
  pfd[0].events = POLLIN;
  pfd[1].fd = wake;
  pfd[1].events = POLLIN;
  const ::nfds_t n = wake >= 0 ? 2 : 1;
  const int timeout_ms = std::max(1, static_cast<int>(timeout_s * 1e3));
  for (;;) {
    const int rc = ::poll(pfd, n, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail(what);
    }
    return rc > 0 && pfd[0].revents != 0;
  }
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::write_all(std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE here, never a SIGPIPE.
    const ::ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw std::runtime_error("send: timed out");
      }
      fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Socket::read_exact(std::span<std::uint8_t> bytes) {
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ::ssize_t n =
        ::recv(fd_, bytes.data() + got, bytes.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw std::runtime_error("recv: timed out");
      }
      fail("recv");
    }
    if (n == 0) {
      throw std::runtime_error("recv: unexpected EOF");
    }
    got += static_cast<std::size_t>(n);
  }
}

void Socket::set_recv_timeout(double seconds) {
  if (seconds <= 0.0) {
    throw std::invalid_argument("set_recv_timeout: seconds must be > 0");
  }
  ::timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    fail("setsockopt(SO_RCVTIMEO)");
  }
}

bool Socket::poll_readable(double timeout_s, int wake) {
  // POLLHUP/POLLERR also count: the next read surfaces the condition.
  return poll_with_wake(fd_, timeout_s, wake, "poll(read)");
}

Listener::Listener() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sock_ = Socket(fd);

  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  ::sockaddr_in addr = loopback(0);  // ephemeral
  if (::bind(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("bind");
  }
  if (::listen(fd, 64) != 0) fail("listen");

  ::socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<::sockaddr*>(&addr), &len) != 0) {
    fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

Socket Listener::accept() {
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    fail("accept");
  }
}

Socket Listener::accept(double timeout_s, int wake) {
  if (!poll_with_wake(sock_.fd(), timeout_s, wake, "poll(accept)")) {
    return Socket{};  // timeout or wake-up
  }
  return accept();  // a connection is pending: cannot block
}

WakeFd::WakeFd() {
  int fds[2];
  if (::pipe(fds) != 0) fail("pipe");
  read_fd_ = fds[0];
  write_fd_ = fds[1];
  for (const int fd : fds) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
}

WakeFd::~WakeFd() {
  ::close(read_fd_);
  ::close(write_fd_);
}

void WakeFd::signal() noexcept {
  // The byte is never drained, so the read end stays readable; a full pipe
  // (EAGAIN) is already readable, so a failed write changes nothing.
  const std::uint8_t byte = 1;
  [[maybe_unused]] const ::ssize_t n = ::write(write_fd_, &byte, 1);
}

Socket connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  Socket sock(fd);

  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

  ::sockaddr_in addr = loopback(port);
  for (;;) {
    if (::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return sock;
    }
    if (errno == EINTR) continue;
    fail("connect");
  }
}

Socket connect_local(std::uint16_t port, double timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  Socket sock(fd);

  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    fail("fcntl(O_NONBLOCK)");
  }
  ::sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) fail("connect");
    ::pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int timeout_ms = std::max(1, static_cast<int>(timeout_s * 1e3));
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) fail("poll(connect)");
    if (rc == 0) throw std::runtime_error("connect: timed out");
    int err = 0;
    ::socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      fail("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      errno = err;
      fail("connect");
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) fail("fcntl(restore)");
  // The same deadline bounds every later write: a peer that stopped reading
  // (dead acceptor, full buffer) yields "send: timed out", not a hang.
  ::timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_s - std::floor(timeout_s)) * 1e6);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return sock;
}

}  // namespace rpr::net

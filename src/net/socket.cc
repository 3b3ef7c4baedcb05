#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "common/table.h"

namespace alphasort {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, strerror(errno)));
}

}  // namespace

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status TcpConn::WriteAll(const char* data, size_t n) {
  if (fd_ < 0) return Status::IOError("write on closed connection");
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += size_t(w);
  }
  return Status::OK();
}

Status TcpConn::ReadSome(char* out, size_t n, size_t* bytes_read) {
  *bytes_read = 0;
  if (fd_ < 0) return Status::IOError("read on closed connection");
  for (;;) {
    const ssize_t r = ::recv(fd_, out, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    *bytes_read = size_t(r);
    return Status::OK();
  }
}

bool TcpConn::Readable(int timeout_ms, int wake_fd) {
  if (fd_ < 0) return false;
  // poll() skips an entry with a negative fd, so no wake_fd is one fd.
  struct pollfd pfd[2] = {};
  pfd[0].fd = fd_;
  pfd[0].events = POLLIN;
  pfd[1].fd = wake_fd;
  pfd[1].events = POLLIN;
  const int r = ::poll(pfd, 2, timeout_ms);
  return r > 0 && (pfd[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

void TcpConn::SetNoDelay() {
  if (fd_ < 0) return;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void TcpConn::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

WakeFd::WakeFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}

WakeFd::~WakeFd() {
  if (fd_ >= 0) ::close(fd_);
}

void WakeFd::Signal() {
  if (fd_ < 0) return;
  const uint64_t one = 1;
  // Only a counter at its maximum refuses the write, and that is
  // readable already.
  (void)!::write(fd_, &one, sizeof(one));
}

Status TcpListener::Listen(const std::string& host, int port, int backlog) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(uint16_t(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("cannot parse listen address %s", host.c_str()));
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s = Errno("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, backlog) < 0) {
    const Status s = Errno("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    const Status s = Errno("getsockname");
    ::close(fd);
    return s;
  }
  closed_.store(false, std::memory_order_release);
  fd_.store(fd, std::memory_order_release);
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

Result<TcpConn> TcpListener::Accept() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0 || closed_.load(std::memory_order_acquire)) {
    return Status::Aborted("listener closed");
  }
  const int conn = ::accept(fd, nullptr, nullptr);
  if (conn < 0) {
    if (closed_.load(std::memory_order_acquire) || errno == EBADF ||
        errno == EINVAL) {
      return Status::Aborted("listener closed");
    }
    return Errno("accept");
  }
  return TcpConn(conn);
}

void TcpListener::Close() {
  // A wake, not a free: shutdown() fails a blocked accept() with
  // EINVAL (close() alone would leave it sleeping), while the fd
  // number stays owned by this object until the destructor — so a
  // concurrent Accept() can never operate on a reused descriptor.
  // Same reasoning as Connection::HalfClose() in server.cc.
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

TcpListener::~TcpListener() {
  Close();
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

Result<TcpConn> TcpConnect(const std::string& host, int port,
                           double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  Status last = Status::IOError("connect never attempted");
  do {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(uint16_t(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return Status::InvalidArgument(
          StrFormat("cannot parse address %s", host.c_str()));
    }
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return TcpConn(fd);
    }
    last = Errno("connect");
    ::close(fd);
    // A refused connection during server startup is expected: back off
    // briefly and retry until the deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (std::chrono::steady_clock::now() < deadline);
  return last;
}

Status FrameReader::Read(Frame* out) {
  for (;;) {
    bool got = false;
    ALPHASORT_RETURN_IF_ERROR(decoder_.Next(out, &got));
    if (got) return Status::OK();
    char buf[16 * 1024];
    size_t n = 0;
    ALPHASORT_RETURN_IF_ERROR(conn_->ReadSome(buf, sizeof(buf), &n));
    if (n == 0) {
      if (decoder_.buffered() > 0) {
        return Status::Corruption(
            "connection closed mid-frame (truncated stream)");
      }
      return Status::NotFound("connection closed");
    }
    decoder_.Append(buf, n);
  }
}

Status FrameReader::Poll(Frame* out, bool* got, int timeout_ms,
                         int wake_fd) {
  *got = false;
  ALPHASORT_RETURN_IF_ERROR(decoder_.Next(out, got));
  if (*got) return Status::OK();
  if (!conn_->Readable(timeout_ms, wake_fd)) return Status::OK();
  char buf[16 * 1024];
  size_t n = 0;
  ALPHASORT_RETURN_IF_ERROR(conn_->ReadSome(buf, sizeof(buf), &n));
  if (n == 0) {
    if (decoder_.buffered() > 0) {
      return Status::Corruption(
          "connection closed mid-frame (truncated stream)");
    }
    return Status::NotFound("connection closed");
  }
  decoder_.Append(buf, n);
  return decoder_.Next(out, got);
}

Status WriteFrame(TcpConn* conn, FrameType type, const std::string& payload) {
  return conn->WriteAll(EncodeFrame(type, payload));
}

}  // namespace net
}  // namespace alphasort

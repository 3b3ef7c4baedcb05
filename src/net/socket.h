#ifndef ALPHASORT_NET_SOCKET_H_
#define ALPHASORT_NET_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/frame.h"

namespace alphasort {
namespace net {

// Minimal blocking TCP wrappers over POSIX sockets, Status-returning in
// the library's idiom. IPv4 loopback/hostnames only — the service front
// door, not a general networking library.

// One connected stream socket. Movable; the destructor closes.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(int fd) : fd_(fd) {}
  ~TcpConn() { Close(); }

  TcpConn(TcpConn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpConn& operator=(TcpConn&& other) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Writes all n bytes (retrying short writes and EINTR). A blocked
  // peer blocks the call — TCP's own backpressure, relied upon by the
  // server's stream-back path.
  Status WriteAll(const char* data, size_t n);
  Status WriteAll(const std::string& bytes) {
    return WriteAll(bytes.data(), bytes.size());
  }

  // Reads up to n bytes; *bytes_read = 0 with OK means orderly EOF.
  Status ReadSome(char* out, size_t n, size_t* bytes_read);

  // True when a read would not block within timeout_ms (0 = poll once,
  // -1 = no limit). With a `wake_fd` (see WakeFd), the wait also ends,
  // returning false, as soon as that fd turns readable. Used by the
  // server to service interleaved STATUS/CANCEL frames while a sort job
  // runs.
  bool Readable(int timeout_ms, int wake_fd = -1);

  // Disables Nagle so small frames (STATUS, RESULT) don't wait behind
  // the 40ms delayed-ack dance.
  void SetNoDelay();

  void Close();

 private:
  int fd_ = -1;
};

// A doorbell another thread rings: once Signal() is called, fd() polls
// readable for good. Lets one poll() wait on a socket and an event — a
// sort job settling — together. An eventfd; fd() is -1 when none could
// be made.
class WakeFd {
 public:
  WakeFd();
  ~WakeFd();

  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  int fd() const { return fd_; }

  // Safe from any thread, any number of times.
  void Signal();

 private:
  int fd_ = -1;
};

// Listening socket bound to host:port (port 0 = kernel-chosen; port()
// reports the actual one).
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  Status Listen(const std::string& host, int port, int backlog = 128);

  // Blocks for the next connection. Fails with Aborted after Close()
  // from another thread (the server's shutdown path).
  Result<TcpConn> Accept();

  int port() const { return port_; }
  bool listening() const {
    return !closed_.load(std::memory_order_acquire) &&
           fd_.load(std::memory_order_acquire) >= 0;
  }

  // Thread-safe wake: shuts the listening socket down, failing a
  // blocked Accept() with Aborted. The fd itself stays owned by this
  // object (freed by the destructor), so a racing Accept() can never
  // land on a reused descriptor.
  void Close();

 private:
  std::atomic<int> fd_{-1};
  std::atomic<bool> closed_{false};
  int port_ = 0;
};

// Connects to host:port with a bounded wait.
Result<TcpConn> TcpConnect(const std::string& host, int port,
                           double timeout_s = 5.0);

// --- Frame transport over a connection ------------------------------

// Reads whole frames off `conn`, buffering through a FrameDecoder.
// Decode errors (bad length/type/CRC) surface exactly as FrameDecoder
// reports them; EOF mid-frame is Corruption, EOF on a frame boundary is
// NotFound("connection closed") so callers can tell an orderly goodbye
// from a torn stream.
class FrameReader {
 public:
  explicit FrameReader(TcpConn* conn) : conn_(conn) {}

  Status Read(Frame* out);

  // Bounded-wait variant: drains already-buffered bytes first, then
  // waits at most timeout_ms (-1 = no limit) for more, or until
  // `wake_fd` (if any) turns readable. *got=false with OK means no
  // complete frame arrived in time. EOF and decode errors map exactly
  // as in Read().
  Status Poll(Frame* out, bool* got, int timeout_ms, int wake_fd = -1);

 private:
  TcpConn* conn_;
  FrameDecoder decoder_;
};

// Serializes and sends one frame.
Status WriteFrame(TcpConn* conn, FrameType type, const std::string& payload);

}  // namespace net
}  // namespace alphasort

#endif  // ALPHASORT_NET_SOCKET_H_

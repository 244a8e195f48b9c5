// Thin POSIX Unix-domain socket layer shared by the serve daemon
// (`eotora_cli --serve`) and the eotora_loadgen client.
//
// Deliberately minimal: blocking I/O, one connection at a time, RAII fds.
// Unix sockets (rather than TCP) keep the daemon loopback-only by
// construction and make CI smoke tests free of port allocation races; the
// frame codec on top is transport-agnostic, so a TCP listener would be a
// drop-in addition. All failures throw std::runtime_error carrying
// strerror context.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/codec.h"

namespace eotora::serve {

// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept;
  Fd& operator=(Fd&& other) noexcept;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

// Binds and listens on a Unix socket at `path`, removing a stale socket
// file first. Throws std::runtime_error on any syscall failure.
[[nodiscard]] Fd listen_unix(const std::string& path);

// Blocks until a client connects.
[[nodiscard]] Fd accept_client(const Fd& listener);

// Connects to a daemon's Unix socket.
[[nodiscard]] Fd connect_unix(const std::string& path);

// Writes the whole buffer, throwing std::runtime_error on error or closed
// peer (never raising SIGPIPE).
void write_all(const Fd& fd, const std::uint8_t* data, std::size_t size);

// Encodes and writes one frame.
void send_frame(const Fd& fd, FrameType type,
                const std::vector<std::uint8_t>& payload);

// Blocks until one complete frame is assembled (feeding `assembler` from
// the socket) and returns true, or returns false on clean EOF with no
// partial frame buffered. Throws on read errors, mid-frame EOF, and codec
// violations.
bool recv_frame(const Fd& fd, FrameAssembler& assembler, Frame& out);

}  // namespace eotora::serve

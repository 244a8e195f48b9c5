#include "serve/socket.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace eotora::serve {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// Fills a sockaddr_un, rejecting paths that do not fit sun_path.
sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("socket path '" + path +
                             "' is empty or too long (max " +
                             std::to_string(sizeof(address.sun_path) - 1) +
                             " bytes)");
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

}  // namespace

Fd::~Fd() { close(); }

Fd::Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Fd listen_unix(const std::string& path) {
  const sockaddr_un address = make_address(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket(AF_UNIX)");
  // A previous daemon's socket file would make bind fail with EADDRINUSE;
  // stale files are the norm after a crash, so remove it up front.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    fail_errno("bind('" + path + "')");
  }
  if (::listen(fd.get(), 1) != 0) fail_errno("listen('" + path + "')");
  return fd;
}

Fd accept_client(const Fd& listener) {
  for (;;) {
    const int client = ::accept(listener.get(), nullptr, nullptr);
    if (client >= 0) return Fd(client);
    if (errno == EINTR) continue;
    fail_errno("accept");
  }
}

Fd connect_unix(const std::string& path) {
  const sockaddr_un address = make_address(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) fail_errno("socket(AF_UNIX)");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    fail_errno("connect('" + path + "')");
  }
  return fd;
}

void write_all(const Fd& fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    // MSG_NOSIGNAL: a closed peer must fail this write with EPIPE, not
    // kill the process with SIGPIPE.
    const ssize_t n =
        ::send(fd.get(), data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("send");
    }
    if (n == 0) throw std::runtime_error("send: peer closed the socket");
    written += static_cast<std::size_t>(n);
  }
}

void send_frame(const Fd& fd, FrameType type,
                const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload);
  write_all(fd, frame.data(), frame.size());
}

bool recv_frame(const Fd& fd, FrameAssembler& assembler, Frame& out) {
  if (assembler.next(out)) return true;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd.get(), buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("read");
    }
    if (n == 0) {
      if (assembler.buffered() != 0) {
        throw CodecError("peer closed the socket mid-frame (" +
                         std::to_string(assembler.buffered()) +
                         " bytes buffered)");
      }
      return false;  // clean EOF on a frame boundary
    }
    assembler.feed(buffer, static_cast<std::size_t>(n));
    if (assembler.next(out)) return true;
  }
}

}  // namespace eotora::serve

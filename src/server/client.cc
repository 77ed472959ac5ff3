#include "src/server/client.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace vc {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

ServeClient::~ServeClient() { Close(); }

std::unique_ptr<ServeClient> ServeClient::ConnectUnix(const std::string& path,
                                                      std::string* error) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = Errno("socket(AF_UNIX)");
    }
    return nullptr;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "socket path too long: " + path;
    }
    ::close(fd);
    return nullptr;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) {
      *error = Errno("connect(" + path + ")");
    }
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<ServeClient>(new ServeClient(fd));
}

std::unique_ptr<ServeClient> ServeClient::ConnectTcp(int port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = Errno("socket(AF_INET)");
    }
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) {
      *error = Errno("connect(127.0.0.1:" + std::to_string(port) + ")");
    }
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<ServeClient>(new ServeClient(fd));
}

bool ServeClient::Call(const std::string& request_json, std::string* response_json,
                       std::string* error, double timeout_seconds) {
  if (!SendFrame(request_json)) {
    if (error != nullptr) {
      *error = Errno("send");
    }
    return false;
  }
  return ReceiveFrame(response_json, error, timeout_seconds);
}

bool ServeClient::SendBytes(const void* data, size_t n) {
  if (fd_ < 0) {
    return false;
  }
  const char* bytes = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < n) {
    ssize_t w = ::send(fd_, bytes + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  return true;
}

bool ServeClient::ReceiveFrame(std::string* payload, std::string* error,
                               double timeout_seconds) {
  if (decoder_.Pop(payload)) {
    return true;  // a previous read already buffered it
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (fd_ >= 0) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      if (error != nullptr) {
        *error = "timed out waiting for response frame";
      }
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (error != nullptr) {
        *error = Errno("poll");
      }
      return false;
    }
    if (ready == 0) {
      continue;  // re-check the deadline
    }
    char buf[64 * 1024];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (error != nullptr) {
        *error = Errno("recv");
      }
      return false;
    }
    if (n == 0) {
      if (error != nullptr) {
        *error = "connection closed by server";
      }
      return false;
    }
    decoder_.Feed(buf, static_cast<size_t>(n));
    if (decoder_.error()) {
      if (error != nullptr) {
        *error = "protocol error from server: " + decoder_.error_message();
      }
      return false;
    }
    if (decoder_.Pop(payload)) {
      return true;
    }
  }
  if (error != nullptr) {
    *error = "client not connected";
  }
  return false;
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace vc

// Blocking client for the serve protocol — used by vc_loadgen, the server
// tests, and anyone scripting the daemon from C++. One connection, one
// outstanding request at a time (the loadgen's closed-loop model); the raw
// send/receive surface is exposed so tests can write partial frames, garbage
// prefixes, and mid-stream disconnects.

#ifndef VALUECHECK_SRC_SERVER_CLIENT_H_
#define VALUECHECK_SRC_SERVER_CLIENT_H_

#include <cstddef>
#include <memory>
#include <string>

#include "src/server/protocol.h"

namespace vc {

class ServeClient {
 public:
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  static std::unique_ptr<ServeClient> ConnectUnix(const std::string& path,
                                                  std::string* error);
  static std::unique_ptr<ServeClient> ConnectTcp(int port, std::string* error);

  // Frames and sends `request_json`, then blocks (up to `timeout_seconds`)
  // for one response payload. False on any transport failure or timeout.
  bool Call(const std::string& request_json, std::string* response_json,
            std::string* error, double timeout_seconds = 30.0);

  // Raw building blocks for protocol-abuse tests and chaos clients.
  bool SendBytes(const void* data, size_t n);
  bool SendFrame(const std::string& payload) { return SendBytes(EncodeFrame(payload).data(), payload.size() + 4); }
  bool ReceiveFrame(std::string* payload, std::string* error,
                    double timeout_seconds = 30.0);

  // Hard-closes the socket.
  void Close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  explicit ServeClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_SERVER_CLIENT_H_

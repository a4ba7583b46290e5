// Client side of the newline-JSON wire protocol over loopback TCP, for a
// load generator that drives several connections from one thread: each
// LineConnection is non-blocking, queues outgoing lines, and hands back
// complete response lines as they arrive.

#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class LineConnection {
 public:
  LineConnection() = default;
  ~LineConnection();

  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  /// Connects to 127.0.0.1:port (blocking connect, then non-blocking I/O
  /// with TCP_NODELAY).
  rll::Status Connect(int port);
  void Close();

  int fd() const { return fd_; }
  bool wants_write() const { return !out_.empty(); }

  /// Queues `line` (a newline is appended) and writes as much as the
  /// socket takes now.
  rll::Status Send(const std::string& line);
  /// Writes queued bytes until the socket would block.
  rll::Status Flush();
  /// Reads what is available and appends each complete line (without its
  /// newline) to *lines. Fails on EOF or a socket error.
  rll::Status ReadLines(std::vector<std::string>* lines);

 private:
  int fd_ = -1;
  std::string in_;
  std::string out_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_

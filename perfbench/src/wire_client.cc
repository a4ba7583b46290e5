#include "wire_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace perfbench {

LineConnection::~LineConnection() { Close(); }

void LineConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

rll::Status LineConnection::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return rll::Status::Internal("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    Close();
    return rll::Status::Internal("connect failed: " + why);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  return rll::Status::OK();
}

rll::Status LineConnection::Send(const std::string& line) {
  out_ += line;
  out_ += '\n';
  return Flush();
}

rll::Status LineConnection::Flush() {
  while (!out_.empty()) {
    const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      out_.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return rll::Status::Internal("send failed");
  }
  return rll::Status::OK();
}

rll::Status LineConnection::ReadLines(std::vector<std::string>* lines) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return rll::Status::Internal("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return rll::Status::Internal("recv failed");
  }
  size_t start = 0;
  for (;;) {
    const size_t eol = in_.find('\n', start);
    if (eol == std::string::npos) break;
    lines->push_back(in_.substr(start, eol - start));
    start = eol + 1;
  }
  in_.erase(0, start);
  return rll::Status::OK();
}

}  // namespace perfbench

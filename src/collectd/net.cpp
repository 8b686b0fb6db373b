#include "collectd/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <strings.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tempest::collectd {
namespace {

constexpr std::string_view kHeadEnd = "\r\n\r\n";

Status errno_status(const std::string& what) {
  return Status::error(what + ": " + std::strerror(errno));
}

/// Close `fd` after a failed call; the error names `what` and errno.
Result<int> close_failed(int fd, const std::string& what) {
  const Status s = errno_status(what);
  ::close(fd);
  return Result<int>::error(s.message());
}

/// Value of the first `name:` header in an HTTP head (the start line,
/// then CRLF-separated headers, without the blank line), trimmed of
/// blanks; "" when absent.
std::string_view header_value(std::string_view head, std::string_view name) {
  constexpr auto npos = std::string_view::npos;
  for (std::size_t eol = head.find("\r\n"); eol != npos;) {
    const std::size_t begin = eol + 2;
    eol = head.find("\r\n", begin);
    const std::string_view line =
        head.substr(begin, eol == npos ? npos : eol - begin);
    if (line.find(':') != name.size() ||
        ::strncasecmp(line.data(), name.data(), name.size()) != 0) {
      continue;
    }
    const std::string_view value = line.substr(name.size() + 1);
    const std::size_t first = value.find_first_not_of(" \t");
    if (first == npos) return {};
    return value.substr(first, value.find_last_not_of(" \t") + 1 - first);
  }
  return {};
}

Result<int> finish_connect(int fd, double timeout_s, const std::string& what) {
  // Non-blocking connect + poll: a dead collector must not stall the
  // profiled application past its (sub-second) timeout.
  if (!set_nonblocking(fd).is_ok()) {
    ::close(fd);
    return Result<int>::error(what + ": cannot set O_NONBLOCK");
  }
  struct pollfd pfd {};
  pfd.fd = fd;
  pfd.events = POLLOUT;
  const int timeout_ms = timeout_s <= 0 ? 0 : static_cast<int>(timeout_s * 1000.0);
  if (::poll(&pfd, 1, timeout_ms) <= 0) {
    ::close(fd);
    return Result<int>::error(what + ": connect timed out");
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    ::close(fd);
    return Result<int>::error(what + ": " + std::strerror(err != 0 ? err : errno));
  }
  // Back to blocking: senders want simple blocking writes with a send
  // timeout rather than their own poll loop.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  struct timeval tv {};
  tv.tv_sec = 5;
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

}  // namespace

bool parse_endpoint(const std::string& spec, Endpoint* out) {
  *out = Endpoint{};
  std::string rest = spec;
  if (rest.rfind("uds:", 0) == 0) {
    out->uds = true;
    out->path = rest.substr(4);
    return !out->path.empty();
  }
  if (rest.rfind("tcp:", 0) == 0) rest = rest.substr(4);
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size()) {
    return false;
  }
  out->host = rest.substr(0, colon);
  const std::string port_str = rest.substr(colon + 1);
  long port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') return false;
    port = port * 10 + (c - '0');
    if (port > 65535) return false;
  }
  out->port = static_cast<std::uint16_t>(port);
  return true;
}

Result<int> connect_endpoint(const Endpoint& ep, double timeout_s) {
  if (ep.uds) {
    struct sockaddr_un addr {};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path)) {
      return Result<int>::error("uds path too long: " + ep.path);
    }
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Result<int>::error("socket: " + std::string(std::strerror(errno)));
    if (!set_nonblocking(fd).is_ok()) {
      ::close(fd);
      return Result<int>::error("uds connect: cannot set O_NONBLOCK");
    }
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS && errno != EAGAIN) {
      return close_failed(fd, "uds connect " + ep.path);
    }
    return finish_connect(fd, timeout_s, "uds connect " + ep.path);
  }

  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port_str = std::to_string(ep.port);
  if (::getaddrinfo(ep.host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return Result<int>::error("cannot resolve " + ep.host);
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype | SOCK_CLOEXEC,
                          res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return Result<int>::error("socket: " + std::string(std::strerror(errno)));
  }
  (void)set_nonblocking(fd);
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0 && errno != EINPROGRESS && errno != EAGAIN) {
    return close_failed(fd, "tcp connect " + ep.host + ":" + port_str);
  }
  return finish_connect(fd, timeout_s, "tcp connect " + ep.host + ":" + port_str);
}

Result<int> listen_endpoint(const Endpoint& ep, int backlog) {
  if (ep.uds) {
    struct sockaddr_un addr {};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path)) {
      return Result<int>::error("uds path too long: " + ep.path);
    }
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Result<int>::error("socket: " + std::string(std::strerror(errno)));
    (void)::unlink(ep.path.c_str());  // stale socket from a dead daemon
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
      return close_failed(fd, "bind " + ep.path);
    }
    if (::listen(fd, backlog) != 0) return close_failed(fd, "listen " + ep.path);
    return fd;
  }

  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (ep.host.empty() || ep.host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    return Result<int>::error("listen host must be a numeric IPv4 address: " +
                              ep.host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Result<int>::error("socket: " + std::string(std::strerror(errno)));
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    return close_failed(fd, "bind " + ep.host + ":" + std::to_string(ep.port));
  }
  if (::listen(fd, backlog) != 0) return close_failed(fd, "listen");
  return fd;
}

Result<std::uint16_t> local_port(int fd) {
  struct sockaddr_in addr {};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return Result<std::uint16_t>::error("getsockname failed");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return errno_status("fcntl O_NONBLOCK");
  }
  return Status::ok();
}

Status send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return errno_status("send");
    }
    if (sent == 0) return Status::error("send: connection closed");
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return Status::ok();
}

Result<std::string> http_get(const std::string& spec, const std::string& target,
                             double timeout_s) {
  Endpoint ep;
  if (!parse_endpoint(spec, &ep)) {
    return Result<std::string>::error("malformed endpoint: " + spec);
  }
  auto conn = connect_endpoint(ep, timeout_s);
  if (!conn.is_ok()) return Result<std::string>::error(conn.message());
  const int fd = conn.value();
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nConnection: close\r\n\r\n";
  const Status sent = send_all(fd, request.data(), request.size());
  if (!sent.is_ok()) {
    ::close(fd);
    return Result<std::string>::error(sent.message());
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
    if (response.size() > (std::size_t{16} << 20)) break;  // runaway guard
  }
  ::close(fd);
  HttpReply reply;
  std::string_view status_line;
  if (!parse_http_response(response, &reply, &status_line)) {
    return Result<std::string>::error("malformed HTTP response from " + spec);
  }
  if (reply.status != 200) {
    return Result<std::string>::error("HTTP error from " + spec + ": " +
                                      std::string(status_line));
  }
  return std::move(reply.body);
}

HttpParse parse_http_request(std::string_view in, HttpRequest* out) {
  const std::size_t end = in.find(kHeadEnd);
  if (end == std::string_view::npos) {
    return in.size() > kMaxHttpRequestBytes ? HttpParse::kTooLarge
                                            : HttpParse::kIncomplete;
  }
  if (end + kHeadEnd.size() > kMaxHttpRequestBytes) return HttpParse::kTooLarge;
  const std::string_view head = in.substr(0, end);
  const std::string_view line = head.substr(0, head.find("\r\n"));
  if (line.substr(0, 4) != "GET ") return HttpParse::kBadMethod;
  const std::string_view target = line.substr(4);
  out->target = std::string(target.substr(0, target.find(' ')));
  out->accept = std::string(header_value(head, "accept"));
  return HttpParse::kOk;
}

std::string format_http_response(const HttpReply& reply) {
  const int code = reply.status;
  const char* reason = code == 200   ? "OK"
                       : code == 400 ? "Bad Request"
                       : code == 405 ? "Method Not Allowed"
                                     : "Not Found";
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + reply.content_type +
                    "\r\nContent-Length: " + std::to_string(reply.body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += reply.body;
  return out;
}

bool parse_http_response(std::string_view in, HttpReply* out,
                         std::string_view* status_line) {
  const std::size_t end = in.find(kHeadEnd);
  if (end == std::string_view::npos) return false;
  const std::string_view head = in.substr(0, end);
  const std::string_view line = head.substr(0, head.find("\r\n"));
  *status_line = line;
  // "HTTP/1.x" SP 3DIGIT, then SP or the end of the line.
  const std::size_t at = line.find(' ') + 1;  // 0 when there is none
  const std::string_view code = line.substr(at, 3);
  if (line.substr(0, 5) != "HTTP/" || at == 0 || code.size() != 3 ||
      code.find_first_not_of("0123456789") != std::string_view::npos ||
      (line.size() > at + 3 && line[at + 3] != ' ')) {
    return false;
  }
  out->status = (code[0] - '0') * 100 + (code[1] - '0') * 10 + (code[2] - '0');
  out->content_type = std::string(header_value(head, "content-type"));
  out->body = std::string(in.substr(end + kHeadEnd.size()));
  return true;
}

}  // namespace tempest::collectd

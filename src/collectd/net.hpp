// Minimal POSIX socket plumbing shared by the collect client, the
// collector daemon, and tempest-top --connect, plus HTTP/1.0 as pure
// functions over bytes: the request parser the collector's query
// plane reads peers through, and the response parser behind http_get.
//
// Endpoints are spelled "uds:/path" or "tcp:host:port"; a bare
// "host:port" is accepted as TCP for CLI ergonomics. Everything here is
// blocking-with-timeout from the caller's perspective; the collector's
// IO loop flips accepted fds to non-blocking itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace tempest::collectd {

struct Endpoint {
  bool uds = false;
  std::string path;  ///< socket path (uds)
  std::string host;  ///< numeric or resolvable host (tcp)
  std::uint16_t port = 0;
};

/// Parse "uds:/path", "tcp:host:port", or "host:port". False on
/// malformed specs (empty path, non-numeric port, ...).
bool parse_endpoint(const std::string& spec, Endpoint* out);

/// Connect with a timeout; the returned fd is blocking again.
Result<int> connect_endpoint(const Endpoint& ep, double timeout_s);

/// Bind + listen (unlinking a stale UDS path first). TCP port 0 binds
/// an ephemeral port — read it back with local_port().
Result<int> listen_endpoint(const Endpoint& ep, int backlog);

/// The locally bound TCP port of a listening/connected socket.
Result<std::uint16_t> local_port(int fd);

Status set_nonblocking(int fd);

/// Write all of `data`, retrying short writes/EINTR. MSG_NOSIGNAL: a
/// dead peer returns EPIPE instead of raising SIGPIPE.
Status send_all(int fd, const char* data, std::size_t n);

/// One-shot HTTP/1.0 GET against a collector endpoint. Returns the
/// response body on a 200; errors carry the status line otherwise.
Result<std::string> http_get(const std::string& spec, const std::string& target,
                             double timeout_s);

/// Longest request head (request line, headers, blank line) accepted.
inline constexpr std::size_t kMaxHttpRequestBytes = 8 * 1024;

struct HttpRequest {
  std::string target;  ///< e.g. "/profile?top=5"
  std::string accept;  ///< the Accept header's value, "" when absent
};

enum class HttpParse {
  kIncomplete,  ///< no CRLFCRLF yet, and the head still fits the cap
  kOk,
  kTooLarge,    ///< the head runs past kMaxHttpRequestBytes: 400
  kBadMethod,   ///< a complete head whose method is not GET: 405
};

/// Parse the request head at the front of `in`. Header names match
/// case-insensitively; values are trimmed of blanks.
HttpParse parse_http_request(std::string_view in, HttpRequest* out);

/// What the query plane serves and what http_get reads.
struct HttpReply {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// `reply` as HTTP/1.0 bytes with Connection: close.
std::string format_http_response(const HttpReply& reply);

/// Parse a whole response: the status code read from its own field
/// ("HTTP/1.x" SP 3DIGIT, then SP or the line end), Content-Type, and
/// the body after CRLFCRLF. False when the head is incomplete or the
/// status line is malformed; *status_line receives the first line.
bool parse_http_response(std::string_view in, HttpReply* out,
                         std::string_view* status_line);

}  // namespace tempest::collectd

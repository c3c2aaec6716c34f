#include "mog/telemetry/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "mog/common/error.hpp"
#include "mog/common/strutil.hpp"

namespace mog::telemetry {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

void write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer went away; nothing to salvage
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool percent_decode(std::string_view in, std::string& out) {
  out.clear();
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '+') {
      out.push_back(' ');
      continue;
    }
    if (c != '%') {
      out.push_back(c);
      continue;
    }
    const auto hex = [](char h) -> int {
      if (h >= '0' && h <= '9') return h - '0';
      if (h >= 'a' && h <= 'f') return h - 'a' + 10;
      if (h >= 'A' && h <= 'F') return h - 'A' + 10;
      return -1;
    };
    if (i + 2 >= in.size()) return false;  // truncated escape
    const int hi = hex(in[i + 1]), lo = hex(in[i + 2]);
    if (hi < 0 || lo < 0) return false;  // non-hex escape
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return true;
}

bool parse_query_string(
    std::string_view in,
    std::vector<std::pair<std::string, std::string>>& out) {
  out.clear();
  if (in.empty()) return true;
  std::size_t start = 0;
  while (start <= in.size()) {
    const std::size_t amp = in.find('&', start);
    const std::size_t end = amp == std::string_view::npos ? in.size() : amp;
    const std::string_view pair = in.substr(start, end - start);
    const std::size_t eq = pair.find('=');
    if (pair.empty() || eq == std::string_view::npos || eq == 0) return false;
    std::string key, value;
    if (!percent_decode(pair.substr(0, eq), key) ||
        !percent_decode(pair.substr(eq + 1), value))
      return false;
    out.emplace_back(std::move(key), std::move(value));
    if (amp == std::string_view::npos) break;
    start = amp + 1;
  }
  return true;
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, Handler handler) {
  MOG_CHECK(!running_, "register handlers before start()");
  MOG_CHECK(handler != nullptr, "null HTTP handler");
  handlers_.emplace_back(std::move(path), std::move(handler));
}

void HttpServer::set_read_timeout(double seconds) {
  MOG_CHECK(!running_, "set_read_timeout before start()");
  read_timeout_seconds_ = seconds;
}

void HttpServer::set_max_request_bytes(std::size_t bytes) {
  MOG_CHECK(!running_, "set_max_request_bytes before start()");
  MOG_CHECK(bytes >= 64, "request bound too small to hold a request line");
  max_request_bytes_ = bytes;
}

void HttpServer::start(int port) {
  MOG_CHECK(!running_, "HTTP server already running");
  MOG_CHECK(port >= 0 && port <= 65535, "HTTP port out of range");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MOG_CHECK(listen_fd_ >= 0, "socket() failed");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error{strprintf("cannot bind 127.0.0.1:%d: %s", port,
                          std::strerror(err))};
  }

  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  running_ = true;
  thread_ = std::thread([this] { serve_loop(); });
}

void HttpServer::stop() {
  if (!running_) return;
  running_ = false;
  // Unblock accept(): shutdown on a listening socket returns it with an
  // error on Linux. The close happens after the join so the fd cannot be
  // reused by another thread while accept still references it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = -1;
}

void HttpServer::serve_loop() {
  while (running_) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (!running_) break;
      if (errno == EINTR) continue;
      break;  // listener broken: stop serving rather than spin
    }

    // Bound how long this request may take to arrive: the single server
    // thread must not be parked forever by a peer that connects and stalls.
    if (read_timeout_seconds_ > 0) {
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(read_timeout_seconds_);
      tv.tv_usec = static_cast<suseconds_t>(
          (read_timeout_seconds_ - static_cast<double>(tv.tv_sec)) * 1e6);
      ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }

    // Read until the end of the request headers (the endpoints are all GET,
    // so no body), bounded in both bytes and time.
    std::string raw;
    bool timed_out = false;
    char buf[2048];
    while (raw.find("\r\n\r\n") == std::string::npos &&
           raw.size() < max_request_bytes_) {
      const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        timed_out = true;
        break;
      }
      if (n <= 0) break;  // peer closed or hard error: whatever arrived is it
      raw.append(buf, static_cast<std::size_t>(n));
    }
    if (raw.empty() && !timed_out) {
      // Connect-and-close probe (port scan, health check): nothing to say.
      ::close(client);
      continue;
    }

    HttpResponse response;
    const std::size_t line_end = raw.find("\r\n");
    std::size_t sp1 = std::string::npos, sp2 = std::string::npos;
    if (line_end != std::string::npos) {
      sp1 = raw.find(' ');
      sp2 = sp1 == std::string::npos ? std::string::npos
                                     : raw.find(' ', sp1 + 1);
    }
    if (raw.size() >= max_request_bytes_) {
      response.status = 431;
      response.body = "request too large\n";
    } else if (timed_out) {
      response.status = 408;
      response.body = "request timed out\n";
    } else if (sp2 == std::string::npos || sp2 > line_end) {
      response.status = 400;
      response.body = "malformed request\n";
    } else {
      HttpRequest request;
      request.method = raw.substr(0, sp1);
      request.path = raw.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::size_t query = request.path.find('?');
      bool query_ok = true;
      if (query != std::string::npos) {
        query_ok = parse_query_string(
            std::string_view{request.path}.substr(query + 1), request.query);
        request.path.resize(query);
      }
      if (!query_ok) {
        response.status = 400;
        response.body = "malformed query string\n";
      } else {
        response = dispatch(request);
      }
    }

    std::string out = strprintf(
        "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        response.status, status_text(response.status),
        response.content_type.c_str(), response.body.size());
    out += response.body;
    write_all(client, out);
    ::shutdown(client, SHUT_WR);
    ::close(client);
  }
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) const {
  if (request.method != "GET" && request.method != "HEAD")
    return {405, "text/plain; charset=utf-8", "method not allowed\n"};
  for (const auto& [path, handler] : handlers_)
    if (path == request.path) return handler(request);
  return {404, "text/plain; charset=utf-8",
          "not found; try /metrics, /healthz, /statusz\n"};
}

}  // namespace mog::telemetry

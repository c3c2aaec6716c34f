// Minimal embedded HTTP/1.1 server for the observability endpoints.
//
// POSIX sockets only — no third-party dependency. One listener bound to
// 127.0.0.1 (observability is host-local; put a real proxy in front for
// anything else), one blocking accept loop on its own thread, one request
// per connection (Connection: close). That is deliberately primitive: a
// /metrics scrape every few seconds and the occasional /healthz probe do
// not justify a connection pool.
//
// Handlers run on the server thread and may block briefly (they typically
// take the owning subsystem's mutex to snapshot state). Registration is
// done before start(); the server never mutates handler state.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace mog::telemetry {

/// RFC 3986 percent-decoding ('+' also decodes to space, as browsers send
/// it in query strings). Returns false on a truncated or non-hex escape.
bool percent_decode(std::string_view in, std::string& out);

/// Parse "k1=v1&k2=v2" into decoded pairs. Strict: every pair needs a
/// non-empty key, an '=', and valid escapes; empty segments ("a=1&&b=2")
/// are malformed. The empty string is a valid empty query. Returns false
/// (with `out` unspecified) on malformed input — the server maps that to
/// 400 rather than silently dropping parameters.
bool parse_query_string(std::string_view in,
                        std::vector<std::pair<std::string, std::string>>& out);

struct HttpRequest {
  std::string method;
  std::string path;  ///< without query string
  /// Percent-decoded query parameters in URL order. A syntactically invalid
  /// query string never reaches a handler — the server answers 400 first.
  std::vector<std::pair<std::string, std::string>> query;

  /// First value for `key`; nullptr when absent.
  const std::string* param(std::string_view key) const {
    for (const auto& [k, v] : query)
      if (k == key) return &v;
    return nullptr;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Content type Prometheus scrapers expect from /metrics.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register an exact-path handler (no patterns). Must precede start().
  void handle(std::string path, Handler handler);

  /// Bound how long one request may take to arrive (SO_RCVTIMEO on the
  /// client socket). A connection that dribbles or stalls past the deadline
  /// gets "408 Request Timeout" instead of parking the server thread
  /// forever. Must precede start(); <= 0 disables the bound.
  void set_read_timeout(double seconds);

  /// Bound the request head size. Anything larger gets "431 Request Header
  /// Fields Too Large" without buffering the rest. Must precede start().
  void set_max_request_bytes(std::size_t bytes);

  /// Bind 127.0.0.1:`port` (0 picks an ephemeral port — tests) and start
  /// the accept loop. Throws mog::Error when the bind fails.
  void start(int port);

  /// Stop accepting, join the server thread. Idempotent.
  void stop();

  bool running() const { return running_; }

  /// The actually bound port (resolves port 0); -1 before start().
  int port() const { return port_; }

 private:
  void serve_loop();
  HttpResponse dispatch(const HttpRequest& request) const;

  std::vector<std::pair<std::string, Handler>> handlers_;
  double read_timeout_seconds_ = 5.0;
  std::size_t max_request_bytes_ = 16384;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace mog::telemetry

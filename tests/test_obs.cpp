// Tests for the live observability plane: structured logging (fan-out,
// thresholds, deterministic rate limiting), Prometheus text exposition
// (rendering + grammar validation), the embedded HTTP server over a real
// socket, frame-ticket trace propagation, trace-truncation surfacing, and an
// end-to-end /metrics + /healthz scrape of a running one-device fleet.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mog/cluster/device_fleet.hpp"
#include "mog/common/strutil.hpp"
#include "mog/fault/fault_injector.hpp"
#include "mog/telemetry/flame.hpp"
#include "mog/telemetry/frame_ticket.hpp"
#include "mog/telemetry/heatmap.hpp"
#include "mog/telemetry/http_server.hpp"
#include "mog/telemetry/log.hpp"
#include "mog/telemetry/prometheus.hpp"
#include "mog/telemetry/sampler.hpp"
#include "mog/telemetry/telemetry.hpp"
#include "mog/video/scene.hpp"

namespace mog::telemetry {
namespace {

// --- structured logging ------------------------------------------------------

TEST(Log, FormatJsonlIsOneParsableObjectPerRecord) {
  LogRecord rec;
  rec.level = LogLevel::kWarn;
  rec.component = "serve";
  rec.message = "queue \"full\"";  // quotes must be escaped
  rec.fields = {{"stream", Json{3}}, {"dropped", Json{true}}};
  rec.ts_us = 1234;
  rec.suppressed = 2;

  const std::string line = format_jsonl(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const Json doc = Json::parse(line);
  EXPECT_EQ(doc.find("level")->as_string(), "warn");
  EXPECT_EQ(doc.find("component")->as_string(), "serve");
  EXPECT_EQ(doc.find("msg")->as_string(), "queue \"full\"");
  EXPECT_DOUBLE_EQ(doc.find("stream")->as_number(), 3.0);
  EXPECT_TRUE(doc.find("dropped")->as_bool());
  EXPECT_DOUBLE_EQ(doc.find("ts_us")->as_number(), 1234.0);
  EXPECT_DOUBLE_EQ(doc.find("suppressed")->as_number(), 2.0);
}

TEST(Log, ThresholdAndFanOut) {
  Logger logger{LogLevel::kInfo};
  RingBufferSink a, b;
  logger.add_sink(&a);
  logger.add_sink(&b);

  logger.log(LogLevel::kDebug, "t", "below threshold");
  logger.log(LogLevel::kInfo, "t", "hello");
  logger.log(LogLevel::kError, "t", "boom");

  for (const RingBufferSink* sink : {&a, &b}) {
    const std::vector<LogRecord> got = sink->snapshot();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].message, "hello");
    EXPECT_EQ(got[1].message, "boom");
  }

  logger.set_threshold(LogLevel::kDebug);
  logger.log(LogLevel::kDebug, "t", "now visible");
  EXPECT_EQ(a.snapshot().back().message, "now visible");

  logger.remove_sink(&b);
  logger.log(LogLevel::kInfo, "t", "only a");
  EXPECT_EQ(a.total_written(), 4u);
  EXPECT_EQ(b.total_written(), 3u);
}

TEST(Log, SinklessLoggingIsANoOp) {
  Logger logger;
  EXPECT_FALSE(logger.has_sinks());
  logger.log(LogLevel::kError, "t", "dropped on the floor");
  EXPECT_EQ(logger.records_emitted(), 0u);
}

TEST(Log, RateLimitIsDeterministicAndCountBased) {
  Logger logger{LogLevel::kDebug};
  RingBufferSink sink;
  logger.add_sink(&sink);
  logger.set_rate_limit({/*max_burst=*/2, /*every=*/3});

  for (int i = 0; i < 8; ++i) logger.log(LogLevel::kInfo, "t", "repeat");

  // Records 1, 2 pass as the burst; afterwards every 3rd repeat passes:
  // 3 and 4 suppressed, 5 passes (suppressed=2), 6 and 7 suppressed,
  // 8 passes (suppressed=2).
  const std::vector<LogRecord> got = sink.snapshot();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].suppressed, 0u);
  EXPECT_EQ(got[1].suppressed, 0u);
  EXPECT_EQ(got[2].suppressed, 2u);
  EXPECT_EQ(got[3].suppressed, 2u);
  EXPECT_EQ(logger.records_suppressed(), 4u);

  // A different (component, message) key is not affected...
  logger.log(LogLevel::kInfo, "other", "repeat");
  EXPECT_EQ(sink.snapshot().back().component, "other");

  // ...and errors are never suppressed.
  for (int i = 0; i < 8; ++i) logger.log(LogLevel::kError, "t", "fatal");
  std::size_t errors = 0;
  for (const LogRecord& r : sink.snapshot()) errors += r.message == "fatal";
  EXPECT_EQ(errors, 8u);
}

TEST(Log, RingBufferKeepsLastN) {
  Logger logger{LogLevel::kDebug};
  RingBufferSink sink{3};
  logger.add_sink(&sink);
  logger.set_rate_limit({/*max_burst=*/100, /*every=*/1});
  for (int i = 0; i < 5; ++i)
    logger.log(LogLevel::kInfo, "t", strprintf("m%d", i));
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.total_written(), 5u);
  EXPECT_EQ(sink.snapshot().front().message, "m2");
  EXPECT_EQ(sink.snapshot().back().message, "m4");
}

TEST(Log, ScopedLoggerStampsComponent) {
  Logger logger{LogLevel::kDebug};
  RingBufferSink sink;
  logger.add_sink(&sink);
  const ScopedLogger slog{"fault", &logger};
  slog.warn("degraded", {{"from", Json{"tiled"}}});
  const std::vector<LogRecord> got = sink.snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].component, "fault");
  EXPECT_EQ(got[0].level, LogLevel::kWarn);
  ASSERT_EQ(got[0].fields.size(), 1u);
  EXPECT_EQ(got[0].fields[0].first, "from");
}

// --- Prometheus exposition ---------------------------------------------------

TEST(Prometheus, RenderedPagePassesItsOwnValidator) {
  std::vector<MetricFamily> families;
  MetricFamily gauge;
  gauge.name = "mog_serve_queue_depth";
  gauge.help = "frames waiting per stream; quotes \" and \\ escape";
  gauge.type = MetricType::kGauge;
  gauge.samples = {{{{"stream", "0"}}, 3.0},
                   {{{"stream", "1"}, {"tier", "tiled\"gpu"}}, 0.0}};
  families.push_back(gauge);

  MetricFamily counter;
  counter.name = "mog_serve_frames_dropped_total";
  counter.type = MetricType::kCounter;
  counter.samples = {{{}, 42.0}};
  families.push_back(counter);

  MetricFamily hist;
  hist.name = "mog_serve_latency_seconds";
  hist.type = MetricType::kHistogram;
  hist.histograms = {make_histogram({0.001, 0.002, 0.5}, {{"stream", "0"}})};
  families.push_back(hist);

  const std::string page = render(families);
  EXPECT_EQ(validate_exposition(page), "") << page;
  EXPECT_NE(page.find("# TYPE mog_serve_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE mog_serve_frames_dropped_total counter"),
            std::string::npos);
  EXPECT_NE(page.find("mog_serve_latency_seconds_bucket{stream=\"0\",le="),
            std::string::npos);
  EXPECT_NE(page.find("mog_serve_latency_seconds_count{stream=\"0\"} 3"),
            std::string::npos);
}

TEST(Prometheus, ValidatorRejectsMalformedPages) {
  EXPECT_NE(validate_exposition("bad-name 1\n"), "");
  EXPECT_NE(validate_exposition("# TYPE x gauge\ny 1\n"), "");
  EXPECT_NE(validate_exposition("x{label=\"unterminated} 1\n"), "");
}

TEST(Prometheus, AdversarialLabelValuesAndHelpEscapeCleanly) {
  // Stream names are operator-controlled; backslashes, quotes and newlines
  // must come out as the spec's escape sequences, never as raw bytes that
  // break the line-oriented grammar.
  MetricFamily f;
  f.name = "mog_serve_frames_submitted_total";
  f.help = "per-stream \\ backslash and\nan embedded newline";
  f.type = MetricType::kCounter;
  f.samples = {{{{"stream", "cam\\1"}}, 1.0},
               {{{"stream", "quote\"inside"}}, 2.0},
               {{{"stream", "new\nline"}}, 3.0},
               {{{"stream", "trailing\\"}}, 4.0}};

  const std::string page = render({f});
  EXPECT_EQ(validate_exposition(page), "") << page;
  EXPECT_NE(page.find("stream=\"cam\\\\1\""), std::string::npos) << page;
  EXPECT_NE(page.find("stream=\"quote\\\"inside\""), std::string::npos)
      << page;
  EXPECT_NE(page.find("stream=\"new\\nline\""), std::string::npos) << page;
  EXPECT_NE(page.find("stream=\"trailing\\\\\""), std::string::npos) << page;
  EXPECT_NE(page.find("# HELP mog_serve_frames_submitted_total per-stream "
                      "\\\\ backslash and\\nan embedded newline\n"),
            std::string::npos)
      << page;
  // Exactly HELP + TYPE + four sample lines: nothing leaked a raw newline.
  EXPECT_EQ(std::count(page.begin(), page.end(), '\n'), 6);
}

TEST(Prometheus, SanitizeMetricName) {
  EXPECT_EQ(sanitize_metric_name("serve.latency_seconds"),
            "serve_latency_seconds");
  EXPECT_EQ(sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(sanitize_metric_name("ok_name:x"), "ok_name:x");
}

TEST(Prometheus, MakeHistogramBucketsAreCumulative) {
  const HistogramSeries h =
      make_histogram({0.5, 1.5, 2.5, 100.0}, {}, {1.0, 2.0, 3.0});
  ASSERT_EQ(h.counts.size(), 4u);  // 3 bounds + the implicit +Inf bucket
  EXPECT_EQ(h.counts[0], 1u);      // <= 1.0
  EXPECT_EQ(h.counts[1], 2u);      // <= 2.0
  EXPECT_EQ(h.counts[2], 3u);      // <= 3.0
  EXPECT_EQ(h.counts[3], 4u);      // +Inf
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 104.5);
}

TEST(Prometheus, CounterRegistryAndTraceHealthFamilies) {
  CounterRegistry reg;
  gpusim::KernelStats stats;
  stats.num_warps = 32;
  reg.on_kernel_launch(stats);

  TraceRecorder trace{2};
  trace.instant("a");
  trace.instant("b");
  trace.instant("dropped");  // over capacity

  std::vector<MetricFamily> families;
  append_counter_registry(reg, families);
  append_trace_health(trace, families);
  const std::string page = render(families);
  EXPECT_EQ(validate_exposition(page), "") << page;
  EXPECT_NE(page.find("mog_kernel_launches_total 1"), std::string::npos);
  EXPECT_NE(page.find("mog_kernel_num_warps{stat=\"mean\"} 32"),
            std::string::npos);
  EXPECT_NE(page.find("mog_trace_dropped_total 1"), std::string::npos);
}

// --- embedded HTTP server ----------------------------------------------------

/// Blocking one-shot HTTP client against 127.0.0.1:`port` (tests only).
std::string http_get(int port, const std::string& target,
                     const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(Http, ServesHandlersOverARealSocket) {
  HttpServer server;
  server.handle("/ping", [](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = "pong " + req.method;
    return resp;
  });
  server.start(0);  // ephemeral port
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string ok = http_get(server.port(), "/ping");
  EXPECT_NE(ok.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(body_of(ok), "pong GET");

  // Query strings are stripped before dispatch.
  EXPECT_EQ(body_of(http_get(server.port(), "/ping?x=1")), "pong GET");

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  const std::string post = http_get(server.port(), "/ping", "POST");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(Http, ConcurrentScrapesAllSucceed) {
  HttpServer server;
  server.handle("/metrics", [](const HttpRequest&) {
    HttpResponse resp;
    resp.content_type = kPrometheusContentType;
    resp.body = "mog_up 1\n";
    return resp;
  });
  server.start(0);
  std::vector<std::thread> clients;
  std::vector<std::string> bodies(4);
  for (std::size_t i = 0; i < bodies.size(); ++i)
    clients.emplace_back([&, i] {
      bodies[i] = body_of(http_get(server.port(), "/metrics"));
    });
  for (std::thread& t : clients) t.join();
  for (const std::string& body : bodies) EXPECT_EQ(body, "mog_up 1\n");
  server.stop();
}

/// Send raw bytes (possibly a partial or malformed request) and read whatever
/// the server answers before closing. With `half_close` the write side is shut
/// down after sending, so the server sees EOF; without it our end stays open,
/// which lets read-timeout behaviour be observed.
std::string http_raw(int port, const std::string& bytes,
                     bool half_close = false) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  if (!bytes.empty()) {
    EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  if (half_close) ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(Http, OversizedRequestIsRefusedWith431) {
  HttpServer server;
  server.handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  server.set_max_request_bytes(64);
  server.start(0);

  const std::string big = "GET /ping HTTP/1.1\r\nX-Pad: " +
                          std::string(512, 'a') + "\r\n\r\n";
  const std::string refused = http_raw(server.port(), big);
  EXPECT_NE(refused.find("HTTP/1.1 431"), std::string::npos) << refused;

  // One abusive client must not take the endpoint down.
  EXPECT_TRUE(server.running());
  EXPECT_NE(http_get(server.port(), "/ping").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
}

TEST(Http, StalledRequestTimesOutWith408AndServerStaysUp) {
  HttpServer server;
  server.handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  server.set_read_timeout(0.2);
  server.start(0);

  // A peer that sends half a request line and then goes quiet would park the
  // single serve thread forever without the read deadline.
  const std::string stalled = http_raw(server.port(), "GET /ping HTT");
  EXPECT_NE(stalled.find("HTTP/1.1 408"), std::string::npos) << stalled;

  // A connect-and-close probe (port scan / TCP health check) gets silence,
  // not an error page, and the server keeps serving afterwards.
  EXPECT_EQ(http_raw(server.port(), "", /*half_close=*/true), "");
  EXPECT_TRUE(server.running());
  EXPECT_NE(http_get(server.port(), "/ping").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
}

TEST(Http, HardeningKnobsRejectMisuse) {
  HttpServer server;
  EXPECT_THROW(server.set_max_request_bytes(8), Error);  // below floor
  server.start(0);
  EXPECT_THROW(server.set_read_timeout(1.0), Error);       // while running
  EXPECT_THROW(server.set_max_request_bytes(4096), Error);  // while running
  server.stop();
}

TEST(Http, PercentDecodeAndQueryStringParsing) {
  std::string out;
  EXPECT_TRUE(percent_decode("plain", out));
  EXPECT_EQ(out, "plain");
  EXPECT_TRUE(percent_decode("a%20b+c%2Fd%41", out));
  EXPECT_EQ(out, "a b c/dA");
  EXPECT_TRUE(percent_decode("", out));
  EXPECT_EQ(out, "");
  EXPECT_FALSE(percent_decode("truncated%2", out));
  EXPECT_FALSE(percent_decode("truncated%", out));
  EXPECT_FALSE(percent_decode("nonhex%G1", out));

  std::vector<std::pair<std::string, std::string>> q;
  EXPECT_TRUE(parse_query_string("", q));
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(parse_query_string("a=1&b=two%20words&a=3", q));
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(q[1], (std::pair<std::string, std::string>{"b", "two words"}));
  EXPECT_EQ(q[2], (std::pair<std::string, std::string>{"a", "3"}));
  EXPECT_TRUE(parse_query_string("empty=", q));  // empty value is fine
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q[0].second, "");

  EXPECT_FALSE(parse_query_string("=1", q));        // empty key
  EXPECT_FALSE(parse_query_string("bare", q));      // no '='
  EXPECT_FALSE(parse_query_string("a=1&&b=2", q));  // empty pair
  EXPECT_FALSE(parse_query_string("a=1&", q));      // trailing empty pair
  EXPECT_FALSE(parse_query_string("a=%zz", q));     // bad escape
}

TEST(Http, QueryParamsDecodedAndMalformedQueryGets400) {
  HttpServer server;
  server.handle("/echo", [](const HttpRequest& req) {
    HttpResponse resp;
    const std::string* x = req.param("x");
    resp.body = x != nullptr ? *x : "<missing>";
    return resp;
  });
  server.start(0);

  EXPECT_EQ(body_of(http_get(server.port(), "/echo?x=hello%20world&y=1")),
            "hello world");
  EXPECT_EQ(body_of(http_get(server.port(), "/echo?x=a%2Fb+c")), "a/b c");
  EXPECT_EQ(body_of(http_get(server.port(), "/echo")), "<missing>");

  // Malformed query strings are rejected before dispatch, and the server
  // keeps serving afterwards.
  for (const char* target :
       {"/echo?x=%G1", "/echo?noequals", "/echo?=1", "/echo?a=1&&b=2"}) {
    const std::string resp = http_get(server.port(), target);
    EXPECT_NE(resp.find("HTTP/1.1 400"), std::string::npos) << target;
    EXPECT_NE(body_of(resp).find("malformed query string"), std::string::npos)
        << target;
  }
  EXPECT_EQ(body_of(http_get(server.port(), "/echo?x=ok")), "ok");
  server.stop();
}

// --- frame tickets and flow propagation --------------------------------------

TEST(FrameTicket, MintedUniqueAndScopedPerThread) {
  const std::uint64_t a = mint_frame_ticket();
  const std::uint64_t b = mint_frame_ticket();
  EXPECT_GT(a, 0u);
  EXPECT_NE(a, b);

  EXPECT_EQ(current_frame_ticket(), 0u);
  {
    FrameTicketScope outer{a};
    EXPECT_EQ(current_frame_ticket(), a);
    {
      FrameTicketScope inner{b};
      EXPECT_EQ(current_frame_ticket(), b);
    }
    EXPECT_EQ(current_frame_ticket(), a);

    // Tickets are thread-local: another thread sees none.
    std::uint64_t seen = 99;
    std::thread{[&] { seen = current_frame_ticket(); }}.join();
    EXPECT_EQ(seen, 0u);
  }
  EXPECT_EQ(current_frame_ticket(), 0u);
}

TEST(ServeFlow, FrameJourneyEmitsConnectedFlowEvents) {
  TraceRecorder trace;
  set_tracer(&trace);
  {
    cluster::FleetConfig cfg;
    cfg.devices = 1;
    cluster::DeviceFleet<double> fleet{cfg};
    cluster::DeviceFleet<double>::GpuConfig gpu;
    gpu.width = 48;
    gpu.height = 36;
    SceneConfig sc;
    sc.width = 48;
    sc.height = 36;
    const SyntheticScene scene{sc};
    const int id = fleet.open_stream(gpu);
    constexpr int kFrames = 4;
    for (int t = 0; t < kFrames; ++t)
      fleet.submit(id, scene.frame(t), t / 30.0);
    fleet.drain();
  }
  set_tracer(nullptr);

  // Every frame's journey is an s -> t... -> f chain keyed by its ticket.
  std::vector<std::uint64_t> begins, steps, ends;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.cat != "serve.flow") continue;
    EXPECT_EQ(ev.name, "frame");
    EXPECT_GE(ev.tid, TraceRecorder::kServeTrackBase);
    EXPECT_GT(ev.flow_id, 0u);
    if (ev.phase == 's') begins.push_back(ev.flow_id);
    if (ev.phase == 't') steps.push_back(ev.flow_id);
    if (ev.phase == 'f') ends.push_back(ev.flow_id);
  }
  EXPECT_EQ(begins.size(), 4u);
  EXPECT_EQ(ends.size(), 4u);
  EXPECT_FALSE(steps.empty());
  // Each completed chain ends with the ticket it began with.
  for (const std::uint64_t ticket : ends)
    EXPECT_NE(std::find(begins.begin(), begins.end(), ticket), begins.end());
}

TEST(Trace, TruncationIsSurfacedInTheExport) {
  TraceRecorder trace{2};
  trace.instant("kept1");
  trace.instant("kept2");
  trace.instant("lost1");
  trace.instant("lost2");
  EXPECT_EQ(trace.dropped(), 2u);

  const Json doc = trace.to_json();
  const Json::Array& events = doc.find("traceEvents")->as_array();
  bool truncated_seen = false, counter_seen = false;
  for (const Json& ev : events) {
    const Json* name = ev.find("name");
    if (name == nullptr) continue;
    if (name->as_string() == "trace.truncated") {
      truncated_seen = true;
      const Json* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->find("dropped_events")->as_number(), 2.0);
      EXPECT_DOUBLE_EQ(args->find("capacity")->as_number(), 2.0);
    }
    if (name->as_string() == "trace.dropped") counter_seen = true;
  }
  EXPECT_TRUE(truncated_seen);
  EXPECT_TRUE(counter_seen);

  // An untruncated trace carries no such marker.
  TraceRecorder roomy;
  roomy.instant("only");
  const Json clean = roomy.to_json();
  for (const Json& ev : clean.find("traceEvents")->as_array())
    EXPECT_NE(ev.find("name")->as_string(), "trace.truncated");
}

// --- end-to-end: scraping a running one-device fleet ------------------------

cluster::FleetConfig one_device_fleet() {
  cluster::FleetConfig cfg;
  cfg.devices = 1;
  cfg.obs_port = 0;  // ephemeral loopback port
  return cfg;
}

TEST(ServerObs, MetricsHealthzStatuszOverHttp) {
  CounterRegistry reg;
  set_counters(&reg);

  cluster::DeviceFleet<double> fleet{one_device_fleet()};
  ASSERT_GT(fleet.obs_port(), 0);

  cluster::DeviceFleet<double>::GpuConfig gpu;
  gpu.width = 48;
  gpu.height = 36;
  SceneConfig sc;
  sc.width = 48;
  sc.height = 36;
  const SyntheticScene scene{sc};
  const int id = fleet.open_stream(gpu);
  for (int t = 0; t < 6; ++t) fleet.submit(id, scene.frame(t), t / 30.0);
  fleet.drain();

  // /metrics: Prometheus-parseable, right content type, live counters.
  const std::string metrics = http_get(fleet.obs_port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find(kPrometheusContentType), std::string::npos);
  const std::string page = body_of(metrics);
  EXPECT_EQ(validate_exposition(page), "") << page;
  EXPECT_NE(
      page.find("mog_serve_frames_submitted_total{stream=\"0\"} 6"),
      std::string::npos);
  EXPECT_NE(page.find("mog_serve_masks_delivered_total{stream=\"0\"} 6"),
            std::string::npos);
  EXPECT_NE(page.find("mog_serve_latency_seconds_bucket"), std::string::npos);
  EXPECT_NE(page.find("mog_fleet_engine_busy_seconds"), std::string::npos);
  EXPECT_NE(page.find("mog_kernel_launches_total"), std::string::npos);

  // /healthz: all streams on a GPU tier, model validates -> 200.
  const std::string health = http_get(fleet.obs_port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(body_of(health).find("stream 0: tier="), std::string::npos);

  // /statusz: human-readable digest.
  const std::string status = http_get(fleet.obs_port(), "/statusz");
  EXPECT_NE(status.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_FALSE(body_of(status).empty());

  set_counters(nullptr);
}

TEST(ServerObs, HealthzFlipsTo503OnForcedDegradation) {
  cluster::FleetConfig cfg = one_device_fleet();
  cfg.serve.resilience.retry.max_attempts = 2;
  cfg.serve.resilience.degrade_after_failures = 1;
  cluster::DeviceFleet<double> fleet{cfg};

  auto injector = std::make_shared<fault::FaultInjector>([] {
    fault::FaultConfig fc;
    fc.launch_fault_prob = 1.0;  // every launch dies -> ladder to CPU tier
    return fc;
  }());
  cluster::DeviceFleet<double>::GpuConfig gpu;
  gpu.width = 48;
  gpu.height = 36;
  // The device's fault domain, not the camera, is sick.
  fleet.set_device_injector(0, injector);
  const int id = fleet.open_stream(gpu);

  EXPECT_NE(http_get(fleet.obs_port(), "/healthz").find("HTTP/1.1 200"),
            std::string::npos);

  SceneConfig sc;
  sc.width = 48;
  sc.height = 36;
  const SyntheticScene scene{sc};
  for (int t = 0; t < 4; ++t) fleet.submit(id, scene.frame(t));
  fleet.drain();
  // The lone device is lost on the first strike, with nowhere to migrate:
  // the stream rides its own ladder down to the CPU tier in place.
  ASSERT_EQ(fleet.stream_info(id).tier, fault::ExecutionTier::kCpuSerial);

  const std::string sick = http_get(fleet.obs_port(), "/healthz");
  EXPECT_NE(sick.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(body_of(sick).find("cpu-serial"), std::string::npos);

  // The degraded tier is also visible on /metrics as a gauge.
  const std::string page = body_of(http_get(fleet.obs_port(), "/metrics"));
  EXPECT_EQ(validate_exposition(page), "") << page;
  EXPECT_NE(page.find("mog_serve_stream_tier{stream=\"0\"} 2"),
            std::string::npos);
}

TEST(ServerObs, ObsPortDisabledByDefault) {
  cluster::FleetConfig cfg;
  cfg.devices = 1;
  cluster::DeviceFleet<double> fleet{cfg};
  EXPECT_EQ(fleet.obs_port(), -1);
  // The in-process bodies still work without a socket.
  std::string detail;
  EXPECT_TRUE(fleet.healthz(detail));
  EXPECT_EQ(validate_exposition(fleet.metrics_text()), "");
  EXPECT_FALSE(fleet.statusz().empty());
}

// --- sampling profiler -------------------------------------------------------

TEST(Sampler, StartStopDoubleStartAndTake) {
  Sampler sampler;
  EXPECT_FALSE(sampler.running());
  sampler.stop();  // stop before start is a no-op
  EXPECT_THROW(sampler.start(0), Error);      // below range
  EXPECT_THROW(sampler.start(30000), Error);  // above range

  ASSERT_TRUE(sampler.start(500));
  EXPECT_TRUE(sampler.running());
  EXPECT_FALSE(sampler.start(500)) << "double start must be refused";
  // One running sampler process-wide: a second instance is refused too.
  EXPECT_FALSE(Sampler::global().start(500));
  EXPECT_THROW(sampler.take(), Error);  // take() requires stop() first

  {
    const ProfSpan span{ProfTag::kDecode};
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  sampler.stop();
  sampler.stop();  // idempotent
  EXPECT_FALSE(sampler.running());

  const FlameProfile profile = sampler.take();
  EXPECT_EQ(profile.hz, 500);
  EXPECT_GT(profile.seconds, 0.0);
  EXPECT_GT(profile.ticks, 0u);
  EXPECT_TRUE(sampler.take().empty()) << "take() clears the stored profile";

  // The registry is re-armed after stop: a fresh capture works.
  ASSERT_TRUE(Sampler::global().start(500));
  Sampler::global().stop();
  Sampler::global().take();
}

TEST(Sampler, TagStackOverflowTruncatesButKeepsCounting) {
  Sampler sampler;
  ASSERT_TRUE(sampler.start(4000));

  std::thread deep([] {
    prof_set_thread_name("deep");
    // 20 nested spans: the published stack caps at kProfMaxDepth frames,
    // the 4 pushes beyond it are tallied, and the pops balance on unwind.
    std::vector<std::unique_ptr<ProfSpan>> spans;
    for (int i = 0; i < 20; ++i)
      spans.push_back(std::make_unique<ProfSpan>(ProfTag::kWarpDispatch));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    while (!spans.empty()) spans.pop_back();
    // After full unwind the thread samples as idle, not as a corrupt stack.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  deep.join();
  sampler.stop();

  const FlameProfile profile = sampler.take();
  EXPECT_GE(profile.truncated, 4u);
  bool saw_capped = false;
  for (const FlameStack& stack : profile.stacks) {
    if (stack.thread != "deep") continue;
    EXPECT_LE(stack.frames.size(), kProfMaxDepth);
    if (stack.frames.size() == kProfMaxDepth) {
      saw_capped = true;
      for (const std::string& frame : stack.frames)
        EXPECT_EQ(frame, "warp_dispatch");
    }
  }
  EXPECT_TRUE(saw_capped) << "expected a depth-capped stack from 'deep'";
}

TEST(Flame, CollapsedRoundTripGolden) {
  FlameProfile profile;
  profile.hz = 997;
  profile.stacks = {
      {"exec0", {"kernel_launch", "warp_dispatch", "coalescer_access"}, 42},
      {"exec0", {"kernel_launch", "warp_dispatch"}, 17},
      {"serve.pump", {"pump"}, 9},
      {"decode1", {}, 5},  // idle
  };
  profile.samples = 68;
  profile.idle = 5;

  const std::string text = render_collapsed(profile);
  EXPECT_EQ(text,
            "exec0;kernel_launch;warp_dispatch;coalescer_access 42\n"
            "exec0;kernel_launch;warp_dispatch 17\n"
            "serve.pump;pump 9\n"
            "decode1;(idle) 5\n");

  const FlameProfile parsed = parse_collapsed(text);
  ASSERT_EQ(parsed.stacks.size(), profile.stacks.size());
  for (std::size_t i = 0; i < parsed.stacks.size(); ++i) {
    EXPECT_EQ(parsed.stacks[i].thread, profile.stacks[i].thread);
    EXPECT_EQ(parsed.stacks[i].frames, profile.stacks[i].frames);
    EXPECT_EQ(parsed.stacks[i].count, profile.stacks[i].count);
  }
  EXPECT_EQ(parsed.samples, 68u);
  EXPECT_EQ(parsed.idle, 5u);
  EXPECT_EQ(render_collapsed(parsed), text) << "round-trip is stable";

  EXPECT_THROW(parse_collapsed("nocount\n"), Error);
  EXPECT_THROW(parse_collapsed(";frame 1\n"), Error);     // empty thread
  EXPECT_THROW(parse_collapsed("t;;frame 1\n"), Error);   // empty frame
  EXPECT_THROW(parse_collapsed("t;frame 12x\n"), Error);  // bad count
}

TEST(Flame, ReportJsonAndSpeedscopeExports) {
  FlameProfile profile;
  profile.hz = 199;
  profile.seconds = 0.5;
  profile.ticks = 100;
  profile.samples = 30;
  profile.idle = 10;
  profile.truncated = 2;
  profile.stacks = {{"exec0", {"kernel_launch", "warp_dispatch"}, 30},
                    {"exec0", {}, 10}};

  const Json prof = profile_report_json(profile);
  const FlameProfile back = profile_from_report_json(prof);
  EXPECT_EQ(back.hz, 199);
  EXPECT_DOUBLE_EQ(back.seconds, 0.5);
  EXPECT_EQ(back.ticks, 100u);
  EXPECT_EQ(back.samples, 30u);
  EXPECT_EQ(back.idle, 10u);
  EXPECT_EQ(back.truncated, 2u);
  EXPECT_EQ(render_collapsed(back), render_collapsed(profile));

  const Json scope = render_speedscope(profile);
  EXPECT_NE(scope.find("$schema"), nullptr);
  ASSERT_NE(scope.find("shared"), nullptr);
  ASSERT_NE(scope.find("profiles"), nullptr);
  EXPECT_EQ(scope.find("profiles")->as_array().size(), 1u);  // one thread
  const Json& entry = scope.find("profiles")->as_array()[0];
  EXPECT_EQ(entry.find("type")->as_string(), "sampled");
  EXPECT_EQ(entry.find("samples")->as_array().size(), 2u);
  // The table renderer mentions the truncation so it is never silent.
  EXPECT_NE(render_flame_table(profile).find("truncated"), std::string::npos);
}

// --- per-block heatmaps ------------------------------------------------------

TEST(Heatmap, BinsBlockDeltasByPixelOverlap) {
  HeatmapSink sink;
  sink.bind_frame(32, 16, 8);  // 4x2 cells, 8x8 px each
  gpusim::KernelStats launch;
  sink.on_kernel_launch(launch);

  // One block covering the top half of the frame (rows 0..7): its weight
  // spreads evenly over the four top cells, and the bottom row stays cold.
  gpusim::BlockStats top;
  top.block_id = 0;
  top.first_thread = 0;
  top.threads = 256;
  top.delta.issue_cycles = 400;
  top.delta.branches_executed = 80;
  top.delta.branches_divergent = 20;
  top.delta.load_instructions = 30;
  top.delta.store_instructions = 10;
  top.delta.load_transactions = 100;
  top.delta.bytes_transferred_load = 6400;
  sink.on_block_stats(top);

  const Heatmap map = sink.snapshot();
  EXPECT_EQ(map.cells_x, 4);
  EXPECT_EQ(map.cells_y, 2);
  EXPECT_EQ(map.launches, 1u);
  EXPECT_EQ(map.blocks, 1u);
  ASSERT_EQ(map.issue_cycles.size(), 8u);
  for (int cx = 0; cx < 4; ++cx) {
    EXPECT_DOUBLE_EQ(map.issue_cycles[cx], 100.0) << "top cell " << cx;
    EXPECT_DOUBLE_EQ(map.issue_cycles[4 + cx], 0.0) << "bottom cell " << cx;
  }
  double total = 0;
  for (const double v : map.dram_bytes) total += v;
  EXPECT_DOUBLE_EQ(total, 6400.0) << "distribution conserves the block total";

  // Derived views: divergence ratio and coalescing replay per cell.
  const std::vector<double> div = divergence_grid(map);
  EXPECT_DOUBLE_EQ(div[0], 0.25);
  const std::vector<double> replay = replay_grid(map);
  EXPECT_DOUBLE_EQ(replay[0], 25.0 - 10.0);  // transactions - mem insts

  // A block entirely past the frame (fused-epilogue halo) is ignored.
  gpusim::BlockStats halo;
  halo.first_thread = 32 * 16;
  halo.threads = 64;
  halo.delta.issue_cycles = 999;
  sink.on_block_stats(halo);
  EXPECT_EQ(sink.snapshot().blocks, 1u);

  // Rebinding with the same geometry keeps accumulating; a new geometry
  // resets.
  sink.bind_frame(32, 16, 8);
  EXPECT_EQ(sink.snapshot().blocks, 1u);
  sink.bind_frame(64, 16, 8);
  EXPECT_EQ(sink.snapshot().blocks, 0u);
}

TEST(Heatmap, JsonRoundTripAndRenderers) {
  HeatmapSink sink;
  sink.bind_frame(16, 16, 8);  // 2x2 cells
  gpusim::BlockStats block;
  block.first_thread = 0;
  block.threads = 16 * 16;
  block.delta.issue_cycles = 1000;
  block.delta.load_transactions = 40;
  block.delta.load_instructions = 10;
  sink.on_block_stats(block);
  const Heatmap map = sink.snapshot();

  const Json doc = heatmap_to_json(map);
  EXPECT_EQ(doc.find("schema")->as_string(), "mog-heatmap-v1");
  const Heatmap back = heatmap_from_json(doc);
  EXPECT_EQ(back.width, map.width);
  EXPECT_EQ(back.cells_x, map.cells_x);
  EXPECT_EQ(back.blocks, map.blocks);
  EXPECT_EQ(back.issue_cycles, map.issue_cycles);
  EXPECT_EQ(back.transactions, map.transactions);

  Json bad = heatmap_to_json(map);
  bad.set("schema", "not-a-heatmap");
  EXPECT_THROW(heatmap_from_json(bad), Error);

  const std::string pgm =
      heatmap_to_pgm(map.issue_cycles, map.cells_x, map.cells_y);
  EXPECT_EQ(pgm.substr(0, 9), "P2\n2 2\n25");
  EXPECT_NE(pgm.find("255"), std::string::npos);  // hottest cell saturates
  const std::string csv =
      heatmap_to_csv(map.issue_cycles, map.cells_x, map.cells_y);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
  EXPECT_NE(render_heatmap_summary(map).find("hottest"), std::string::npos);
}

// --- GET /profilez -----------------------------------------------------------

TEST(Profilez, CapturesOverHttpWith400And503Paths) {
  HttpServer server;
  server.handle("/profilez", profilez_response);
  server.start(0);

  // Keep a tagged thread busy so the capture has something to see.
  std::atomic<bool> stop{false};
  std::thread busy([&stop] {
    prof_set_thread_name("busy");
    while (!stop.load(std::memory_order_relaxed)) {
      const ProfSpan span{ProfTag::kDecode};
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const std::string ok =
      http_get(server.port(), "/profilez?seconds=0.15&hz=2000");
  EXPECT_NE(ok.find("HTTP/1.1 200"), std::string::npos) << ok;
  EXPECT_NE(body_of(ok).find("busy;decode"), std::string::npos) << ok;

  const std::string scope = http_get(
      server.port(), "/profilez?seconds=0.05&hz=500&format=speedscope");
  EXPECT_NE(scope.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(body_of(scope).find("speedscope.app"), std::string::npos);

  const std::string table =
      http_get(server.port(), "/profilez?seconds=0.05&hz=500&format=table");
  EXPECT_NE(table.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(body_of(table).find("frame"), std::string::npos);

  stop.store(true, std::memory_order_relaxed);
  busy.join();

  // Out-of-range or unparsable knobs are a client error, not a capture.
  for (const char* target :
       {"/profilez?seconds=31", "/profilez?seconds=abc", "/profilez?hz=0",
        "/profilez?hz=99999", "/profilez?format=xml"}) {
    EXPECT_NE(http_get(server.port(), target).find("HTTP/1.1 400"),
              std::string::npos)
        << target;
  }

  // A capture already in flight (here: a long-running manual one) gets 503.
  ASSERT_TRUE(Sampler::global().start(50));
  const std::string b = http_get(server.port(), "/profilez?seconds=0.05");
  EXPECT_NE(b.find("HTTP/1.1 503"), std::string::npos) << b;
  Sampler::global().stop();
  Sampler::global().take();

  server.stop();
}

}  // namespace
}  // namespace mog::telemetry

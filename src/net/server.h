#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "net/http.h"
#include "net/reactor.h"
#include "obs/registry.h"
#include "service/service.h"

namespace tetris::net {

/// Server knobs.
struct ServerConfig {
  std::string host = "127.0.0.1";  ///< bind address (loopback by default)
  int port = 0;                    ///< 0 = ephemeral; see Server::port()
  int backlog = 64;
  /// Idle timeout: a keep-alive connection with no request in flight and no
  /// bytes arriving for this long is dropped (silently — no response owed).
  int io_timeout_ms = 10000;
  /// Wall-clock budget from the first byte of a request to its completion;
  /// a peer dribbling one header byte per poll wakeup (slow-loris) is
  /// answered 408 and closed when this expires.
  int request_deadline_ms = 30000;
  /// Requests served on one connection before the server closes it (the
  /// final response carries "Connection: close"); 0 = unlimited.
  std::size_t max_requests_per_connection = 0;
  /// Header-block cap; requests with larger heads are answered 431.
  std::size_t max_header_bytes = std::size_t{16} << 10;
  /// Body cap (also the json::parse max_bytes); larger bodies answer 413.
  std::size_t max_body_bytes = std::size_t{1} << 20;
  /// HTTP-layer telemetry: the reactor's request-latency observation and the
  /// per-route request counters recorded by handle(). On by default; off
  /// takes that recording out of the request path — the mode
  /// bench/serve_throughput.cpp compares against to bound telemetry overhead
  /// (<= 3%). /metrics itself stays routable either way (those series just
  /// stop moving; the reactor's connection and response counters keep
  /// counting).
  bool telemetry = true;
};

/// Embedded REST front-end over a service::Service.
///
/// Endpoints (all request/response bodies are JSON):
///
///   POST   /v1/jobs        submit a job; body carries the circuit (inline
///                          OpenQASM under "qasm" or a built-in RevLib name
///                          under "benchmark"), optional "name", "seed",
///                          "measured" and "config" {shots, max_gates,
///                          alphabet, gap, fuse, sample_jobs}; answers 202
///                          {"id", "state", "url"}
///   GET    /v1/jobs/{id}   job outcome. Terminal jobs answer the full
///                          serialize.h JobOutcome document (append
///                          ?timing=0 to omit the wall-time fields and make
///                          the body byte-identical across runs); queued/
///                          running jobs answer {"id", "state"} . Repeatable:
///                          served via Service::outcome, which never touches
///                          drain's once-only cursor
///   GET    /v1/jobs/{id}/artifact
///                          the job's versioned binary artifact
///                          (docs/FORMATS.md) as application/octet-stream —
///                          byte-identical to the artifact store's file for
///                          the same job. 409 "no_artifact" unless the job
///                          is done
///   GET    /v1/jobs/{id}/trace
///                          the job's stage trace (serialize.h
///                          trace_to_json): one span per pipeline/service
///                          stage with offsets, durations, and attributes.
///                          409 "no_trace" unless the job is terminal.
///                          Timing lives ONLY here — the default job
///                          document stays byte-identical with tracing on
///   DELETE /v1/jobs/{id}   cancel-if-queued; answers {"id", "cancelled",
///                          "state"}
///   GET    /v1/status      start time, uptime, engine capabilities, store
///                          directory, and every /metrics family as JSON
///                          (schema service::kStatusSchema)
///   GET    /metrics        Prometheus text exposition (format 0.0.4) of
///                          the Service registry merged with the server's
///                          own (docs/OBSERVABILITY.md)
///
/// docs/API.md is the full route-by-route reference with request/response
/// schemas and curl examples.
///
/// Errors are structured: {"error": {"code", "message"}} with the HTTP
/// status mapped from the service::StatusCode family (invalid_argument and
/// parse_error are 400, compile/lock errors 422, internals 500) plus the
/// transport-level codes (not_found, method_not_allowed, payload_too_large,
/// length_required, request_timeout, bad_request).
///
/// Threading: the server is a thin route table over a net::Reactor — one
/// event-loop thread owns every socket (accept + readiness + write-back) and
/// runs `handle()` inline for each complete request. Handlers only parse,
/// route and serialize; job compute runs on the Service's pool, so the loop
/// never waits on a flow. Connections are persistent (HTTP/1.1 keep-alive)
/// and pipelined requests are answered in order.
///
/// Determinism over the wire: a job's outcome is a pure function of
/// (circuit, seed, flow fingerprint), so GET /v1/jobs/{id}?timing=0 is
/// byte-identical to service::to_json(outcome, /*include_timing=*/false) of
/// the same submission in-process — the contract tests/test_net.cpp pins.
class Server {
 public:
  /// Binds and listens immediately (so port() is valid), but serves nothing
  /// until start(). Throws on bind failure.
  Server(service::Service& service, ServerConfig config = {});
  /// stop()s if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts the event loop. start() after stop() is not supported.
  void start();

  /// Stops accepting, waits for in-flight handlers, flushes queued
  /// responses, joins the loop. Idempotent. Jobs already submitted keep
  /// running in the Service (its destructor waits for them).
  void stop();

  int port() const;
  std::string base_url() const;
  const ServerConfig& config() const { return config_; }

  /// The server's own registry (requests by route, latency, the reactor's
  /// traffic counters); both status views merge it with the Service's.
  obs::Registry& telemetry() { return registry_; }
  const obs::Registry& telemetry() const { return registry_; }

  /// Routes one parsed request to a response — the pure core of the server,
  /// also exercised directly by unit tests (no sockets involved).
  http::Response handle(const http::Request& request);

 private:
  /// Normalized route keys for the per-route request counters: one label
  /// value per route shape (ids collapse to "{id}"), so cardinality is fixed
  /// whatever clients request.
  enum class Route {
    kJobs = 0,        // POST /v1/jobs
    kJob,             // /v1/jobs/{id}
    kJobArtifact,     // /v1/jobs/{id}/artifact
    kJobTrace,        // /v1/jobs/{id}/trace
    kStatus,          // /v1/status
    kMetrics,         // /metrics
    kOther,           // everything else (404s, bad paths)
    kCount_,
  };
  static constexpr std::size_t kRouteCount =
      static_cast<std::size_t>(Route::kCount_);
  static constexpr std::size_t kStatusClassCount = 3;  // 2xx / 4xx / 5xx
  static const char* route_name(Route route);

  http::Response handle_submit(const http::Request& request);
  http::Response handle_job_get(std::uint64_t id, const http::Request& request);
  http::Response handle_job_artifact(std::uint64_t id);
  http::Response handle_job_trace(std::uint64_t id);
  http::Response handle_job_delete(std::uint64_t id);
  http::Response handle_status();
  http::Response handle_metrics();
  http::Response route(const http::Request& request, Route& route_key);
  /// The Service's families, then the server's: what both views render.
  std::vector<obs::Family> collect() const;

  service::Service& service_;
  ServerConfig config_;

  /// HTTP-layer telemetry, separate from the Service's registry so neither
  /// object holds a collector into the other's lifetime. Instruments are
  /// pre-registered in the constructor — the request path only touches
  /// stable references. Declared before the reactor, which counts into it.
  obs::Registry registry_;
  std::unique_ptr<Reactor> reactor_;
  obs::Counter* requests_by_route_[kRouteCount][kStatusClassCount] = {};
  std::chrono::steady_clock::time_point start_steady_;
  std::int64_t started_unix_ = 0;  ///< wall-clock start, unix seconds
};

}  // namespace tetris::net

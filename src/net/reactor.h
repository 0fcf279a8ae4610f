#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/http.h"
#include "obs/registry.h"

namespace tetris::runtime {
class ThreadPool;
}

namespace tetris::net {

/// Tuning knobs for the event loop. Defaults suit loopback/infra-LAN REST
/// traffic; tests shrink the timeouts to keep slow-path cases fast.
struct ReactorConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; Reactor::port() reports the bound port
  int backlog = 64;

  /// Idle timeout: a connection that makes no forward progress for this long
  /// (no bytes of a request arriving, or an unread response stalling in the
  /// out-buffer) is dropped. A silent keep-alive connection is closed without
  /// a response; a peer that started a request gets the 408 below instead.
  int idle_timeout_ms = 10000;

  /// Wall-clock cap from the first byte of a request to its completion. A
  /// slow-loris peer trickling one header byte per poll wakeup is answered
  /// 408 and closed when this expires.
  int request_deadline_ms = 30000;

  /// Requests served per connection before the server closes it (the last
  /// response carries "Connection: close"). Bounds per-connection state
  /// lifetime; 0 means unlimited.
  std::size_t max_requests_per_connection = 0;

  std::size_t max_header_bytes = std::size_t{16} << 10;  ///< 431 above this
  std::size_t max_body_bytes = std::size_t{1} << 20;     ///< 413 above this

  /// Pool the handler runs on, owned by the Reactor's owner. nullptr runs
  /// handlers synchronously on the loop thread, which saves two context
  /// switches per request — the right call when every handler is quick and
  /// non-blocking (net::Server qualifies: job compute lives on the Service
  /// pool, its route handlers only parse/serialize). Handlers that block,
  /// e.g. the dispatcher's upstream proxy legs, need a pool: an inline
  /// blocking handler would stall every connection.
  runtime::ThreadPool* handler_pool = nullptr;

  /// Response observation hook, invoked on the loop thread as each response
  /// is queued with the HTTP status and the seconds elapsed since the
  /// request's first byte arrived (the same reference the 408 deadline
  /// uses) — the feed for the server's request-latency histogram. Must be
  /// cheap and non-blocking: it runs inside the event loop. For pipelined
  /// requests parsed from already-buffered bytes the measured window starts
  /// at the batch's arrival, slightly overstating per-request latency; a
  /// null function disables observation entirely (the telemetry-off bench
  /// mode). nullptr by default.
  std::function<void(int status, double seconds)> observe_response;
};

/// poll(2)-based readiness event loop: one thread owns the listener, a wake
/// pipe, and every connection socket (all non-blocking). Per connection it
/// keeps an incremental http::RequestParser, an out-buffer, and timing state;
/// complete requests are handed to `handler` on the handler pool, and the
/// response is completed back onto the loop via the wake pipe (without a
/// pool the handler runs on the loop thread itself). The loop never
/// blocks on a socket and the handler never touches one — so one stalled or
/// malicious peer cannot delay any other connection.
///
/// Keep-alive + pipelining: after a response is queued the parser is fed any
/// already-buffered bytes, so back-to-back pipelined requests are answered in
/// order. At most one handler runs per connection; while it runs the loop
/// stops reading that socket (TCP backpressure caps per-peer buffering).
///
/// The Reactor is route-agnostic — net::Server and net::Dispatcher are both
/// thin handler wrappers over it. The handler must be thread-safe; protocol
/// errors never reach it (the reactor answers those itself and closes).
///
/// Traffic counters live in the owner's registry under the family prefix it
/// passes (`tetris_http`, `tetris_dispatch`): `<prefix>_connections_total`,
/// `_keepalive_reuses_total`, `_idle_evictions_total` (idle timeout or 408
/// deadline) and `_responses_total{class}` (protocol rejects included).
class Reactor {
 public:
  using Handler = std::function<http::Response(const http::Request&)>;

  /// Binds the listener immediately (so port() is valid before start());
  /// `registry` must outlive the reactor.
  Reactor(ReactorConfig config, Handler handler, obs::Registry& registry,
          const std::string& family_prefix);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();
  /// Stops accepting, waits for in-flight handlers, flushes pending
  /// responses (bounded grace), closes every connection, joins the loop.
  void stop();

  int port() const;
  const ReactorConfig& config() const { return config_; }

  struct Impl;  ///< loop internals (reactor.cpp); public for the loop class

 private:
  std::unique_ptr<Impl> impl_;
  ReactorConfig config_;
};

}  // namespace tetris::net

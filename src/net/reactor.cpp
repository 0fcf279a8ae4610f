#include "net/reactor.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "net/socket.h"
#include "obs/registry.h"
#include "runtime/thread_pool.h"

namespace tetris::net {

namespace {

using Clock = std::chrono::steady_clock;
using http::error_response;

/// One accepted socket plus everything the loop tracks about it.
struct Connection {
  Connection(std::uint64_t conn_id, Socket s,
             http::RequestParser::Limits limits)
      : id(conn_id), socket(std::move(s)), parser(limits) {}

  std::uint64_t id = 0;
  Socket socket;
  http::RequestParser parser;
  std::string in;   ///< read but not yet parsed (pipelined surplus)
  std::string out;  ///< formatted responses awaiting the socket
  std::size_t out_pos = 0;

  bool handler_inflight = false;
  bool close_after_write = false;  ///< last response queued; drain then close
  bool peer_closed = false;        ///< orderly FIN seen; finish writes, close
  std::size_t requests_served = 0;

  Clock::time_point last_activity;   ///< idle-timeout reference
  Clock::time_point request_start;   ///< 408-deadline reference
  bool request_in_progress = false;  ///< a request has started arriving

  bool want_read() const {
    return !handler_inflight && !close_after_write && !peer_closed;
  }
  bool want_write() const { return out_pos < out.size(); }
};

/// Response finished by a handler thread, travelling back to the loop.
struct Completion {
  std::uint64_t conn_id = 0;
  http::Response response;
  bool keep_alive = false;
};

}  // namespace

struct Reactor::Impl {
  Impl(const ReactorConfig& config, Handler handler, obs::Registry& registry,
       const std::string& prefix)
      : listener(config.host, config.port, config.backlog),
        handler(std::move(handler)),
        connections_total(registry.counter(prefix + "_connections_total",
                                           "Sockets accepted.")),
        keepalive_reuses(registry.counter(
            prefix + "_keepalive_reuses_total",
            "Requests beyond the first on their connection.")),
        idle_evictions(registry.counter(
            prefix + "_idle_evictions_total",
            "Connections dropped by the idle timeout or request deadline.")) {
    static constexpr const char* kClasses[3] = {"2xx", "4xx", "5xx"};
    for (std::size_t c = 0; c < 3; ++c) {
      responses[c] = &registry.counter(
          prefix + "_responses_total",
          "Responses queued, by status class (protocol rejects included).",
          {{"class", kClasses[c]}});
    }
    // A socketpair, not a pipe: the wake fds travel through Socket, whose
    // non-blocking I/O uses send/recv (ENOTSOCK on a pipe fd).
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw Error(std::string("net: socketpair: ") + std::strerror(errno));
    }
    wake_read = Socket(fds[0]);
    wake_write = Socket(fds[1]);
    wake_read.set_nonblocking();
    wake_write.set_nonblocking();
  }

  Listener listener;
  Handler handler;
  Socket wake_read;
  Socket wake_write;

  std::thread loop_thread;
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> inflight{0};

  std::mutex completion_mutex;
  std::deque<Completion> completions;

  // Traffic counters, owned by the registry; bumped on the loop thread.
  obs::Counter& connections_total;
  obs::Counter& keepalive_reuses;
  obs::Counter& idle_evictions;
  obs::Counter* responses[3] = {};  // 2xx, 4xx, 5xx

  std::unordered_map<std::uint64_t, Connection> connections;
  std::uint64_t next_conn_id = 1;

  void wake() {
    char byte = 1;
    std::size_t sent = 0;
    (void)wake_write.send_nonblocking(&byte, 1, &sent);
  }
};

Reactor::Reactor(ReactorConfig config, Handler handler,
                 obs::Registry& registry, const std::string& family_prefix)
    : impl_(std::make_unique<Impl>(config, std::move(handler), registry,
                                   family_prefix)),
      config_(std::move(config)) {
  TETRIS_REQUIRE(config_.idle_timeout_ms > 0,
                 "net: idle_timeout_ms must be positive");
  TETRIS_REQUIRE(config_.request_deadline_ms > 0,
                 "net: request_deadline_ms must be positive");
}

Reactor::~Reactor() { stop(); }

int Reactor::port() const { return impl_->listener.port(); }

namespace {

/// Everything the loop does per iteration lives here so the state threading
/// stays explicit. `Loop` is constructed on the loop thread and never leaves
/// it; only the completion queue and flags are shared.
class Loop {
 public:
  Loop(Reactor::Impl& impl, const ReactorConfig& config)
      : impl_(impl), config_(config) {}

  void run() {
    while (true) {
      const bool stopping = impl_.stopping.load(std::memory_order_acquire);
      if (stopping && impl_.inflight.load(std::memory_order_acquire) == 0 &&
          !drain_pending()) {
        break;
      }
      poll_once(stopping);
      drain_wake_pipe();
      apply_completions();
      service_timeouts();
    }
    flush_grace();
    impl_.connections.clear();
  }

 private:
  Reactor::Impl& impl_;
  const ReactorConfig& config_;
  std::vector<pollfd> pollfds_;
  std::vector<std::uint64_t> poll_ids_;  ///< conn id per pollfd (0 = special)
  std::vector<std::uint64_t> doomed_;

  bool drain_pending() {
    if (!impl_.completions.empty()) return true;
    for (auto& [id, conn] : impl_.connections) {
      (void)id;
      if (conn.want_write()) return true;
    }
    return false;
  }

  void poll_once(bool stopping) {
    pollfds_.clear();
    poll_ids_.clear();

    pollfds_.push_back({impl_.wake_read.fd(), POLLIN, 0});
    poll_ids_.push_back(0);
    std::size_t listener_index = 0;  // 0 = not polled (wake pipe owns slot 0)
    if (!stopping) {
      listener_index = pollfds_.size();
      pollfds_.push_back({impl_.listener.fd(), POLLIN, 0});
      poll_ids_.push_back(0);
    }
    const std::size_t first_conn = pollfds_.size();

    for (auto& [id, conn] : impl_.connections) {
      short events = 0;
      if (conn.want_read() && !stopping) events |= POLLIN;
      if (conn.want_write()) events |= POLLOUT;
      if (events == 0) continue;
      pollfds_.push_back({conn.socket.fd(), events, 0});
      poll_ids_.push_back(id);
    }

    int timeout = next_timeout_ms(stopping);
    int ready = ::poll(pollfds_.data(), pollfds_.size(), timeout);
    if (ready < 0) {
      if (errno == EINTR) return;
      throw Error(std::string("net: poll: ") + std::strerror(errno));
    }
    if (ready == 0) return;

    // Listener first so new connections see this iteration's timeouts.
    if (listener_index != 0 &&
        (pollfds_[listener_index].revents & POLLIN) != 0) {
      accept_all();
    }
    for (std::size_t i = first_conn; i < pollfds_.size(); ++i) {
      auto it = impl_.connections.find(poll_ids_[i]);
      if (it == impl_.connections.end()) continue;
      const short revents = pollfds_[i].revents;
      if (revents == 0) continue;
      Connection& conn = it->second;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        doomed_.push_back(poll_ids_[i]);
        continue;
      }
      if ((revents & POLLOUT) != 0 && !write_some(conn)) {
        doomed_.push_back(poll_ids_[i]);
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) != 0 && !read_some(conn)) {
        doomed_.push_back(poll_ids_[i]);
        continue;
      }
    }
    reap_doomed();
  }

  void reap_doomed() {
    for (std::uint64_t id : doomed_) impl_.connections.erase(id);
    doomed_.clear();
  }

  /// Idle/deadline bookkeeping → smallest poll timeout that cannot overshoot
  /// an expiry. Capped so stop-flag changes are noticed promptly.
  int next_timeout_ms(bool stopping) {
    if (stopping) return 10;
    Clock::time_point now = Clock::now();
    std::int64_t best = 1000;
    for (auto& [id, conn] : impl_.connections) {
      (void)id;
      std::int64_t remain = timeout_remaining_ms(conn, now);
      if (remain < best) best = remain;
    }
    return static_cast<int>(best < 0 ? 0 : best);
  }

  std::int64_t timeout_remaining_ms(const Connection& conn,
                                    Clock::time_point now) {
    using std::chrono::milliseconds;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    if (conn.request_in_progress) {
      auto deadline =
          conn.request_start + milliseconds(config_.request_deadline_ms);
      best = std::min<std::int64_t>(
          best, std::chrono::duration_cast<milliseconds>(deadline - now)
                    .count());
    }
    if (!conn.handler_inflight) {
      auto idle = conn.last_activity + milliseconds(config_.idle_timeout_ms);
      best = std::min<std::int64_t>(
          best,
          std::chrono::duration_cast<milliseconds>(idle - now).count());
    }
    return best == std::numeric_limits<std::int64_t>::max() ? 1000 : best;
  }

  void accept_all() {
    while (true) {
      Socket s = impl_.listener.accept(0);
      if (!s.valid()) break;
      s.set_nonblocking();
      s.set_nodelay();
      std::uint64_t id = impl_.next_conn_id++;
      http::RequestParser::Limits limits;
      limits.max_header_bytes = config_.max_header_bytes;
      limits.max_body_bytes = config_.max_body_bytes;
      auto [it, inserted] =
          impl_.connections.emplace(id, Connection(id, std::move(s), limits));
      TETRIS_REQUIRE(inserted, "net: duplicate connection id");
      it->second.last_activity = Clock::now();
      impl_.connections_total.inc();
    }
  }

  /// Reads everything available. Returns false when the connection must be
  /// dropped immediately (hard error, or FIN with nothing left to send).
  bool read_some(Connection& conn) {
    char buffer[16 << 10];
    bool got_bytes = false;
    while (conn.want_read()) {
      std::size_t received = 0;
      Socket::IoResult r =
          conn.socket.recv_nonblocking(buffer, sizeof(buffer), &received);
      if (r == Socket::IoResult::kOk) {
        conn.in.append(buffer, received);
        got_bytes = true;
        continue;
      }
      if (r == Socket::IoResult::kWouldBlock) break;
      if (r == Socket::IoResult::kClosed) {
        conn.peer_closed = true;
        break;
      }
      return false;  // kError: reset etc.
    }
    if (got_bytes) {
      conn.last_activity = Clock::now();
      if (!conn.request_in_progress) {
        conn.request_in_progress = true;
        conn.request_start = conn.last_activity;
      }
      if (!advance(conn)) return false;
      // Flush anything advance() queued (inline handlers, protocol rejects)
      // now instead of waiting a poll round trip for POLLOUT.
      if (conn.want_write() && !write_some(conn)) return false;
    }
    if (conn.peer_closed) {
      // A peer that half-closed mid-request is never answered; one that
      // closed between requests is just reaped once writes are flushed.
      return conn.handler_inflight || conn.want_write();
    }
    return true;
  }

  /// Feeds buffered bytes to the parser; dispatches at most one request (the
  /// rest stays in `conn.in` until the response is queued). Returns false to
  /// drop the connection.
  bool advance(Connection& conn) {
    while (!conn.handler_inflight && !conn.close_after_write) {
      if (!conn.in.empty()) {
        std::size_t used = conn.parser.consume(conn.in.data(), conn.in.size());
        conn.in.erase(0, used);
      }
      if (conn.parser.failed()) {
        const http::HttpError& e = conn.parser.error();
        conn.request_in_progress = false;
        queue_response(conn, error_response(e.status(), e.code(), e.what()),
                       /*keep_alive=*/false);
        return true;
      }
      if (!conn.parser.done()) return true;

      http::Request request = conn.parser.take();
      conn.request_in_progress = false;
      dispatch(conn, std::move(request));
    }
    return true;
  }

  void dispatch(Connection& conn, http::Request request) {
    const std::size_t served_after = conn.requests_served + 1;
    const bool cap_hit = config_.max_requests_per_connection != 0 &&
                         served_after >= config_.max_requests_per_connection;
    const bool keep = request.keep_alive() && !cap_hit && !conn.peer_closed;
    if (conn.requests_served > 0) impl_.keepalive_reuses.inc();
    if (config_.handler_pool == nullptr) {
      // Without a pool, handlers are quick and non-blocking and run right
      // here on the loop thread — no pool hop, no wake round trip.
      // advance()'s loop keeps draining pipelined requests afterwards.
      http::Response response;
      try {
        response = impl_.handler(request);
      } catch (...) {
        response = error_response(500, "internal_error",
                                  "request handler threw");
      }
      queue_response(conn, response, keep);
      return;
    }
    conn.handler_inflight = true;

    const std::uint64_t id = conn.id;
    Reactor::Impl* impl = &impl_;
    impl_.inflight.fetch_add(1, std::memory_order_acq_rel);
    runtime::ThreadPool& pool = *config_.handler_pool;
    try {
      pool.submit([impl, id, keep, request = std::move(request),
                   handler = &impl_.handler]() {
        Completion done;
        done.conn_id = id;
        done.keep_alive = keep;
        try {
          done.response = (*handler)(request);
        } catch (...) {
          done.response = error_response(500, "internal_error",
                                         "request handler threw");
        }
        {
          std::lock_guard<std::mutex> lock(impl->completion_mutex);
          impl->completions.push_back(std::move(done));
        }
        impl->wake();
        // Last touch of `impl`: once inflight hits 0 the loop may exit and
        // the Reactor may be destroyed.
        impl->inflight.fetch_sub(1, std::memory_order_acq_rel);
      });
    } catch (...) {
      // Pool refused the task (shutting down): answer directly on the loop.
      impl_.inflight.fetch_sub(1, std::memory_order_acq_rel);
      conn.handler_inflight = false;
      queue_response(conn,
                     error_response(503, "shutting_down",
                                    "server is shutting down"),
                     /*keep_alive=*/false);
    }
  }

  void queue_response(Connection& conn, const http::Response& response,
                      bool keep_alive) {
    conn.out += http::format_response(response, keep_alive);
    conn.close_after_write = !keep_alive;
    conn.last_activity = Clock::now();
    ++conn.requests_served;
    if (config_.observe_response) {
      // request_start was stamped when the request's first byte arrived;
      // every queue_response follows some byte arrival on this connection,
      // so it is always initialized here.
      config_.observe_response(
          response.status,
          std::chrono::duration<double>(conn.last_activity -
                                        conn.request_start)
              .count());
    }
    const std::size_t cls =
        response.status >= 500 ? 2 : (response.status >= 400 ? 1 : 0);
    impl_.responses[cls]->inc();
  }

  /// Writes as much of the out-buffer as the socket accepts. Returns false
  /// to drop the connection (hard write error).
  bool write_some(Connection& conn) {
    while (conn.want_write()) {
      std::size_t sent = 0;
      Socket::IoResult r = conn.socket.send_nonblocking(
          conn.out.data() + conn.out_pos, conn.out.size() - conn.out_pos,
          &sent);
      if (r == Socket::IoResult::kOk) {
        conn.out_pos += sent;
        conn.last_activity = Clock::now();
        continue;
      }
      if (r == Socket::IoResult::kWouldBlock) return true;
      return false;
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
      if (conn.close_after_write || conn.peer_closed) return false;
    }
    return true;
  }

  void drain_wake_pipe() {
    char buffer[256];
    std::size_t received = 0;
    while (impl_.wake_read.recv_nonblocking(buffer, sizeof(buffer),
                                            &received) ==
           Socket::IoResult::kOk) {
    }
  }

  void apply_completions() {
    std::deque<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(impl_.completion_mutex);
      batch.swap(impl_.completions);
    }
    for (Completion& done : batch) {
      auto it = impl_.connections.find(done.conn_id);
      if (it == impl_.connections.end()) continue;  // peer already gone
      Connection& conn = it->second;
      conn.handler_inflight = false;
      queue_response(conn, done.response, done.keep_alive);
      bool alive = write_some(conn);
      // Pipelined bytes may already hold the next request; parse them now
      // rather than waiting for more socket readiness.
      if (alive && !impl_.stopping.load(std::memory_order_acquire)) {
        alive = advance(conn);
        if (alive && conn.want_write()) alive = write_some(conn);
      }
      if (!alive) doomed_.push_back(done.conn_id);
    }
    reap_doomed();
  }

  void service_timeouts() {
    Clock::time_point now = Clock::now();
    for (auto& [id, conn] : impl_.connections) {
      if (conn.close_after_write) continue;
      if (conn.request_in_progress &&
          now - conn.request_start >=
              std::chrono::milliseconds(config_.request_deadline_ms)) {
        // The peer started a request but never finished it in time: answer
        // 408 so well-behaved-but-slow clients learn why, then close. The
        // parser state is abandoned (no more reads happen on this conn).
        conn.request_in_progress = false;
        queue_response(conn,
                       error_response(408, "request_timeout",
                                      "timed out reading the request"),
                       /*keep_alive=*/false);
        if (!write_some(conn)) doomed_.push_back(id);
        impl_.idle_evictions.inc();
        continue;
      }
      if (!conn.handler_inflight && !conn.request_in_progress &&
          now - conn.last_activity >=
              std::chrono::milliseconds(config_.idle_timeout_ms)) {
        // Idle keep-alive connection (or never sent a byte): no response
        // owed; just reclaim the slot.
        doomed_.push_back(id);
        impl_.idle_evictions.inc();
      }
    }
    reap_doomed();
  }

  /// Post-stop best-effort flush of queued responses (bounded, so a peer
  /// that stopped reading cannot wedge shutdown).
  void flush_grace() {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(1000);
    while (Clock::now() < deadline) {
      apply_completions();
      pollfds_.clear();
      poll_ids_.clear();
      for (auto& [id, conn] : impl_.connections) {
        if (!conn.want_write()) continue;
        pollfds_.push_back({conn.socket.fd(), POLLOUT, 0});
        poll_ids_.push_back(id);
      }
      if (pollfds_.empty()) return;
      int ready = ::poll(pollfds_.data(), pollfds_.size(), 50);
      if (ready <= 0) continue;
      for (std::size_t i = 0; i < pollfds_.size(); ++i) {
        if (pollfds_[i].revents == 0) continue;
        auto it = impl_.connections.find(poll_ids_[i]);
        if (it == impl_.connections.end()) continue;
        if ((pollfds_[i].revents & (POLLERR | POLLNVAL)) != 0 ||
            !write_some(it->second)) {
          doomed_.push_back(poll_ids_[i]);
        }
      }
      reap_doomed();
      bool pending = false;
      for (auto& [id, conn] : impl_.connections) {
        (void)id;
        if (conn.want_write()) pending = true;
      }
      if (!pending) return;
    }
  }
};

}  // namespace

void Reactor::start() {
  TETRIS_REQUIRE(!impl_->loop_thread.joinable(), "net: reactor already started");
  impl_->stopping.store(false, std::memory_order_release);
  impl_->loop_thread = std::thread([this] {
    Loop loop(*impl_, config_);
    loop.run();
  });
}

void Reactor::stop() {
  if (!impl_->loop_thread.joinable()) return;
  impl_->stopping.store(true, std::memory_order_release);
  impl_->wake();
  impl_->loop_thread.join();
  // A stopped reactor must *refuse* connections, not strand them in the
  // listen backlog until the peer's timeout — upstream callers (the
  // dispatcher's failure detection in particular) rely on the fast
  // connection-refused signal to mark a node unreachable.
  impl_->listener.shutdown();
}

}  // namespace tetris::net

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/http.h"
#include "net/reactor.h"
#include "obs/registry.h"
#include "runtime/thread_pool.h"

namespace tetris::net {

/// Consistent-hash ring over `num_nodes` backends. Each node contributes
/// `replicas` virtual points (FNV-1a of node index × replica index), so keys
/// spread evenly and — the property the dispatcher's cache affinity rides on
/// — a fixed key maps to a fixed node for a fixed node count. Adding a node
/// remaps only the keys falling into the new node's arcs (≈ 1/(N+1) of the
/// space), which is what makes a rolling scale-out cheap on warm caches.
class HashRing {
 public:
  explicit HashRing(std::size_t num_nodes, std::size_t replicas = 64);

  /// Node index owning `key` (a circuit content_hash or any 64-bit digest).
  std::size_t node_for(std::uint64_t key) const;

  std::size_t num_nodes() const { return num_nodes_; }

 private:
  std::size_t num_nodes_;
  /// (point, node) pairs sorted by point; node_for binary-searches the first
  /// point at or after the key's hash, wrapping to the ring's start.
  std::vector<std::pair<std::uint64_t, std::size_t>> points_;
};

/// Dispatcher knobs.
struct DispatcherConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; Dispatcher::port() reports the bound one
  int backlog = 64;
  /// Base URLs of the `serve` nodes to shard across ("http://host:port").
  std::vector<std::string> nodes;
  /// Workers of the handler pool the dispatcher owns, one per proxied
  /// request in flight (upstream legs block); 0 means the hardware
  /// concurrency.
  unsigned handler_threads = 8;
  int upstream_timeout_ms = 30000;  ///< per-leg connect/send/recv timeout
  int idle_timeout_ms = 10000;      ///< downstream keep-alive idle eviction
  int request_deadline_ms = 30000;  ///< downstream slow-request 408 deadline
  std::size_t max_requests_per_connection = 0;  ///< 0 = unlimited
  std::size_t max_header_bytes = std::size_t{16} << 10;
  std::size_t max_body_bytes = std::size_t{1} << 20;
  std::size_t hash_replicas = 64;  ///< virtual points per node on the ring
};

/// HTTP front-end that scales the single-node REST server horizontally:
///
///   POST   /v1/jobs            sharded by consistent hash on the submitted
///                              circuit's content_hash() — the same circuit
///                              always lands on the same node, so each
///                              node's LRU result cache stays hot for its
///                              shard of the keyspace. The 202 response
///                              carries the *dispatcher's* job id; the
///                              node-local id is kept in an id→node map.
///   GET    /v1/jobs/{id}       proxied to the owning node (response body
///   GET    /v1/jobs/{id}/artifact   passed through verbatim — wire bytes
///   GET    /v1/jobs/{id}/trace stay identical to the node's, which in turn
///   DELETE /v1/jobs/{id}       match the in-process facade). Idempotent
///                              GETs are retried once on a transient
///                              connection error; then the job answers
///                              502 {"error":{"code":"upstream_unavailable"}}.
///   GET    /v1/status          fan-out aggregation: every node's status
///                              document under "nodes" (unreachable nodes
///                              are marked, never thrown on) plus the
///                              dispatcher's own registry as "metrics";
///                              schema service::kDispatchStatusSchema.
///   GET    /metrics            fan-out aggregation of every node's
///                              Prometheus exposition: each node's series
///                              re-exported with an injected node="<url>"
///                              label (HELP/TYPE deduplicated, families
///                              regrouped), plus the dispatcher's own
///                              registry — tetris_dispatch_* node
///                              liveness, per-node routing counters,
///                              downstream traffic.
///
/// Note on ids: proxied outcome documents carry the node-local job id in
/// their "id" field (bodies are passed through byte-for-byte); the id the
/// dispatcher hands out in the submit response is the one to poll.
///
/// Built on the same net::Reactor event loop as Server (keep-alive,
/// pipelining, slow-loris eviction all apply downstream). Upstream legs are
/// blocking keep-alive Clients, one per node, serialized per node.
class Dispatcher {
 public:
  explicit Dispatcher(DispatcherConfig config);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  void start();
  void stop();

  int port() const;
  std::string base_url() const;
  const DispatcherConfig& config() const { return config_; }
  const HashRing& ring() const { return ring_; }

  /// The dispatcher's own registry: per-node `tetris_dispatch_node_up`,
  /// `_jobs_routed_total`, `_upstream_failures_total`, plus handled requests
  /// and the reactor's traffic counters.
  obs::Registry& telemetry() { return registry_; }
  const obs::Registry& telemetry() const { return registry_; }

  /// Routes one parsed request — the pure core, unit-testable without
  /// sockets (upstream legs still talk to real nodes).
  http::Response handle(const http::Request& request);

 private:
  struct Node {
    Node(const std::string& base_url, int timeout_ms);
    std::string url;
    std::mutex mutex;  ///< serializes the persistent upstream connection
    Client client;
    // In the dispatcher's registry, labelled node=<url>.
    obs::Counter* jobs_routed = nullptr;
    obs::Counter* upstream_failures = nullptr;
    obs::Gauge* up = nullptr;
  };
  struct JobRef {
    std::size_t node = 0;
    std::uint64_t local_id = 0;
  };

  http::Response handle_submit(const http::Request& request);
  http::Response handle_job(const http::Request& request);
  http::Response handle_status();
  http::Response handle_metrics();

  /// One upstream round trip; `retry` re-issues the request once on a
  /// transport error (idempotent legs only). Throws tetris::Error when the
  /// node stays unreachable.
  http::Response upstream(Node& node, const std::string& method,
                          const std::string& target, const std::string& body,
                          const std::string& content_type, bool retry);

  /// Shard key for a submit body: content_hash of the circuit when it
  /// parses, FNV-1a of the raw payload text otherwise (so malformed
  /// circuits still route deterministically and the owning node produces
  /// the canonical validation error).
  std::uint64_t shard_key(const std::string& body) const;

  DispatcherConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<Node>> nodes_;
  runtime::ThreadPool pool_;
  /// Declared before the reactor, which counts into it.
  obs::Registry registry_;
  obs::Counter* requests_total_ = nullptr;
  std::unique_ptr<Reactor> reactor_;

  mutable std::mutex jobs_mutex_;
  std::unordered_map<std::uint64_t, JobRef> jobs_;
  std::uint64_t next_id_ = 1;
};

}  // namespace tetris::net

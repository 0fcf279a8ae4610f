#include "net/dispatch.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/error.h"
#include "common/hash.h"
#include "common/json.h"
#include "qir/qasm.h"
#include "revlib/benchmarks.h"
#include "service/serialize.h"

namespace tetris::net {

using http::error_response;
using http::json_response;

namespace {

/// Proxied responses are rebuilt from scratch (status + content type + body
/// only): the upstream's parsed header list still carries its own
/// Content-Length/Connection entries, which format_response would duplicate.
http::Response passthrough(const http::Response& upstream) {
  http::Response res;
  res.status = upstream.status;
  if (const std::string* ct = upstream.header("content-type")) {
    res.content_type = *ct;
  }
  res.body = upstream.body;
  return res;
}

/// The raw query string of a request target ("?timing=0"), empty when none.
std::string raw_query(const std::string& target) {
  const std::size_t q = target.find('?');
  return q == std::string::npos ? std::string() : target.substr(q);
}

}  // namespace

// ------------------------------------------------------------------- ring

HashRing::HashRing(std::size_t num_nodes, std::size_t replicas)
    : num_nodes_(num_nodes) {
  TETRIS_REQUIRE(num_nodes > 0, "net: hash ring needs at least one node");
  TETRIS_REQUIRE(replicas > 0, "net: hash ring needs at least one replica");
  points_.reserve(num_nodes * replicas);
  for (std::size_t node = 0; node < num_nodes; ++node) {
    for (std::size_t replica = 0; replica < replicas; ++replica) {
      Fnv64 h;
      h.mix(std::uint64_t{0x7e7215} /* ring point domain tag */);
      h.mix(static_cast<std::uint64_t>(node));
      h.mix(static_cast<std::uint64_t>(replica));
      points_.emplace_back(h.digest(), node);
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::size_t HashRing::node_for(std::uint64_t key) const {
  // Re-mix the key so consecutive content hashes scatter across arcs.
  Fnv64 h;
  h.mix(key);
  const std::uint64_t point = h.digest();
  auto it = std::lower_bound(
      points_.begin(), points_.end(), std::make_pair(point, std::size_t{0}));
  if (it == points_.end()) it = points_.begin();  // wrap around the ring
  return it->second;
}

// ------------------------------------------------------------- dispatcher

Dispatcher::Node::Node(const std::string& base_url, int timeout_ms)
    : url(base_url),
      client(parse_url(base_url).host, parse_url(base_url).port, timeout_ms) {}

Dispatcher::Dispatcher(DispatcherConfig config)
    : config_(std::move(config)),
      ring_(config_.nodes.empty() ? 1 : config_.nodes.size(),
            config_.hash_replicas),
      pool_(config_.handler_threads) {
  TETRIS_REQUIRE(!config_.nodes.empty(),
                 "net: dispatcher needs at least one --node URL");
  for (const std::string& url : config_.nodes) {
    auto node = std::make_unique<Node>(url, config_.upstream_timeout_ms);
    const obs::Labels labels = {{"node", url}};
    node->up = &registry_.gauge(
        "tetris_dispatch_node_up",
        "1 when the node answered the last status or metrics fan-out.",
        labels);
    node->jobs_routed = &registry_.counter(
        "tetris_dispatch_jobs_routed_total",
        "Jobs sharded to each node by the consistent-hash ring.", labels);
    node->upstream_failures = &registry_.counter(
        "tetris_dispatch_upstream_failures_total",
        "Upstream legs that exhausted their retries per node.", labels);
    nodes_.push_back(std::move(node));
  }
  requests_total_ = &registry_.counter("tetris_dispatch_requests_total",
                                       "Downstream requests handled.");
  ReactorConfig rc;
  rc.host = config_.host;
  rc.port = config_.port;
  rc.backlog = config_.backlog;
  rc.idle_timeout_ms = config_.idle_timeout_ms;
  rc.request_deadline_ms = config_.request_deadline_ms;
  rc.max_requests_per_connection = config_.max_requests_per_connection;
  rc.max_header_bytes = config_.max_header_bytes;
  rc.max_body_bytes = config_.max_body_bytes;
  rc.handler_pool = &pool_;
  reactor_ = std::make_unique<Reactor>(
      std::move(rc),
      [this](const http::Request& request) { return handle(request); },
      registry_, "tetris_dispatch");
}

Dispatcher::~Dispatcher() { stop(); }

void Dispatcher::start() { reactor_->start(); }

void Dispatcher::stop() { reactor_->stop(); }

int Dispatcher::port() const { return reactor_->port(); }

std::string Dispatcher::base_url() const {
  return "http://" + config_.host + ":" + std::to_string(port());
}

http::Response Dispatcher::upstream(Node& node, const std::string& method,
                                    const std::string& target,
                                    const std::string& body,
                                    const std::string& content_type,
                                    bool retry) {
  std::lock_guard<std::mutex> lock(node.mutex);
  try {
    return node.client.request(method, target, body, content_type);
  } catch (const std::exception&) {
    if (!retry) {
      node.upstream_failures->inc();
      throw;
    }
  }
  // One fresh-connection retry for idempotent legs: the client's own
  // stale-keep-alive retry has already run, so this second attempt covers a
  // node that was mid-restart or briefly refused the connect.
  try {
    node.client.disconnect();
    return node.client.request(method, target, body, content_type);
  } catch (const std::exception&) {
    node.upstream_failures->inc();
    throw;
  }
}

std::uint64_t Dispatcher::shard_key(const std::string& body) const {
  try {
    json::ParseOptions parse_options;
    parse_options.max_depth = 32;
    parse_options.max_bytes = config_.max_body_bytes;
    const json::Value doc = json::parse(body, parse_options);
    if (doc.is_object()) {
      if (const json::Value* benchmark = doc.find("benchmark")) {
        if (benchmark->is_string()) {
          return revlib::get_benchmark(benchmark->as_string())
              .circuit.content_hash();
        }
      }
      if (const json::Value* qasm = doc.find("qasm")) {
        if (qasm->is_string()) {
          return qir::from_qasm(qasm->as_string()).content_hash();
        }
      }
    }
  } catch (const std::exception&) {
    // Fall through: the owning node will produce the canonical error.
  }
  Fnv64 h;
  h.mix(body);
  return h.digest();
}

http::Response Dispatcher::handle_submit(const http::Request& request) {
  const std::size_t index = ring_.node_for(shard_key(request.body));
  Node& node = *nodes_[index];

  http::Response res;
  try {
    // POSTs are never blindly retried: a submit that reached the node may
    // have been executed even if the response was lost.
    res = upstream(node, "POST", "/v1/jobs", request.body,
                   "application/json", /*retry=*/false);
  } catch (const std::exception& e) {
    return error_response(502, "upstream_unavailable",
                          "node " + node.url + " unreachable: " + e.what());
  }
  if (res.status != 202) return passthrough(res);  // canonical node error

  std::uint64_t local_id = 0;
  std::string state = "queued";
  try {
    const json::Value doc = json::parse(res.body);
    local_id = static_cast<std::uint64_t>(doc.at("id").as_int());
    state = doc.at("state").as_string();
  } catch (const std::exception& e) {
    return error_response(502, "upstream_protocol_error",
                          "node " + node.url +
                              " answered an unparseable submit response: " +
                              e.what());
  }

  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    id = next_id_++;
    jobs_.emplace(id, JobRef{index, local_id});
  }
  node.jobs_routed->inc();

  json::Writer w;
  w.begin_object();
  w.key("id").value(id);
  w.key("state").value(state);
  w.key("url").value("/v1/jobs/" + std::to_string(id));
  w.end_object();
  return json_response(202, w.str());
}

http::Response Dispatcher::handle_job(const http::Request& request) {
  const std::string_view jobs_prefix = "/v1/jobs/";
  std::string_view tail =
      std::string_view(request.path).substr(jobs_prefix.size());
  // Optional sub-resource after the id; both are GET-only and idempotent,
  // so they share the artifact leg's retry policy.
  std::string suffix;
  for (const std::string_view candidate : {"/artifact", "/trace"}) {
    if (tail.size() > candidate.size() &&
        tail.substr(tail.size() - candidate.size()) == candidate) {
      suffix = std::string(candidate);
      tail = tail.substr(0, tail.size() - candidate.size());
      break;
    }
  }
  if (tail.empty() || tail.size() > 18 ||
      tail.find_first_not_of("0123456789") != std::string_view::npos) {
    return error_response(404, "not_found", "job ids are decimal integers");
  }
  std::uint64_t id = 0;
  for (char c : tail) id = id * 10 + static_cast<std::uint64_t>(c - '0');

  if (!suffix.empty() && request.method != "GET") {
    return error_response(405, "method_not_allowed",
                          "use GET on /v1/jobs/{id}" + suffix);
  }
  if (suffix.empty() && request.method != "GET" &&
      request.method != "DELETE") {
    return error_response(405, "method_not_allowed",
                          "use GET or DELETE on /v1/jobs/{id}");
  }

  JobRef ref;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return error_response(404, "not_found",
                            "unknown job id " + std::to_string(id));
    }
    ref = it->second;
  }

  Node& node = *nodes_[ref.node];
  std::string target = "/v1/jobs/" + std::to_string(ref.local_id) + suffix;
  target += raw_query(request.target);

  const bool idempotent = request.method == "GET";
  try {
    return passthrough(upstream(node, request.method, target, "",
                                "application/json", /*retry=*/idempotent));
  } catch (const std::exception& e) {
    return error_response(502, "upstream_unavailable",
                          "node " + node.url + " unreachable: " + e.what());
  }
}

http::Response Dispatcher::handle_status() {
  // Assembled as text, not via json::Writer: each reachable node's status
  // document is spliced in verbatim (it is already valid JSON, and
  // re-encoding would couple the dispatcher to every node schema field).
  std::string out = "{\n  \"schema\": \"";
  out += service::kDispatchStatusSchema;
  out += "\",\n  \"nodes\": [";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"url\": \"" + json::escape(node.url) + "\", ";
    http::Response res;
    bool reachable = false;
    std::string error;
    try {
      res = upstream(node, "GET", "/v1/status", "", "application/json",
                     /*retry=*/true);
      reachable = res.status == 200;
      if (!reachable) error = "HTTP " + std::to_string(res.status);
    } catch (const std::exception& e) {
      error = e.what();
    }
    node.up->set(reachable ? 1.0 : 0.0);
    out += "\"reachable\": ";
    out += reachable ? "true" : "false";
    if (reachable) {
      out += ", \"status\": " + res.body;
    } else {
      out += ", \"error\": \"" + json::escape(error) + "\"";
    }
    out += "}";
  }
  // The dispatcher's own numbers: the same registry its /metrics renders.
  json::Writer metrics(0);
  obs::write_json(metrics, registry_.collect());
  out += "\n  ],\n  \"metrics\": " + metrics.str() + "\n}";
  return json_response(200, out);
}

http::Response Dispatcher::handle_metrics() {
  // Node expositions come from our own obs::render_prometheus, so the
  // grammar is known: families are HELP line, TYPE line, then samples. Each
  // node's text is re-parsed into per-family buckets with a node="<url>"
  // label injected into every sample, then re-emitted grouped — the text
  // format requires all lines of one metric name to be contiguous, so plain
  // concatenation of per-node texts would be malformed.
  std::vector<std::string> family_order;
  std::map<std::string, std::string> family_head;     // first node's HELP+TYPE
  std::map<std::string, std::size_t> family_owner;    // node that named it
  std::map<std::string, std::string> family_samples;  // all nodes' samples

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    http::Response res;
    try {
      res = upstream(node, "GET", "/metrics", "", "application/json",
                     /*retry=*/true);
    } catch (const std::exception&) {
      res.status = 0;
    }
    node.up->set(res.status == 200 ? 1.0 : 0.0);
    if (res.status != 200) continue;
    const std::string label =
        "node=\"" + obs::escape_label_value(node.url) + "\"";

    std::string current;  // family of the samples being read
    std::size_t pos = 0;
    while (pos < res.body.size()) {
      std::size_t eol = res.body.find('\n', pos);
      if (eol == std::string::npos) eol = res.body.size();
      std::string line = res.body.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const std::size_t name_begin = 7;
        const std::size_t name_end = line.find(' ', name_begin);
        const std::string name = line.substr(
            name_begin, name_end == std::string::npos ? std::string::npos
                                                      : name_end - name_begin);
        auto owner = family_owner.find(name);
        if (owner == family_owner.end()) {
          family_order.push_back(name);
          owner = family_owner.emplace(name, i).first;
        }
        // The first node to expose a family owns its HELP/TYPE comment
        // lines; later nodes' duplicates drop (their samples still merge).
        if (owner->second == i) family_head[name] += line + '\n';
        current = name;
        continue;
      }
      // Sample line: inject the node label at the first '{', or synthesize
      // a label block before the value when the series has none.
      const std::size_t brace = line.find('{');
      const std::size_t space = line.find(' ');
      std::string rewritten;
      if (brace != std::string::npos &&
          (space == std::string::npos || brace < space)) {
        rewritten = line.substr(0, brace + 1) + label + "," +
                    line.substr(brace + 1);
      } else if (space != std::string::npos) {
        rewritten =
            line.substr(0, space) + "{" + label + "}" + line.substr(space);
      } else {
        rewritten = line;  // malformed; pass through untouched
      }
      family_samples[current] += rewritten + '\n';
    }
  }

  std::string out;
  for (const std::string& name : family_order) {
    out += family_head[name];
    out += family_samples[name];
  }

  // The dispatcher's own registry: tetris_dispatch_* names, disjoint from
  // every node family, so appending keeps each family contiguous.
  out += obs::render_prometheus(registry_.collect());

  http::Response res;
  res.status = 200;
  res.content_type = "text/plain; version=0.0.4; charset=utf-8";
  res.body = out;
  return res;
}

http::Response Dispatcher::handle(const http::Request& request) {
  requests_total_->inc();
  try {
    const std::string& path = request.path;
    if (path == "/v1/jobs") {
      if (request.method == "POST") return handle_submit(request);
      return error_response(405, "method_not_allowed", "use POST on /v1/jobs");
    }
    const std::string_view jobs_prefix = "/v1/jobs/";
    if (std::string_view(path).substr(0, jobs_prefix.size()) == jobs_prefix) {
      return handle_job(request);
    }
    if (path == "/v1/status") {
      if (request.method == "GET") return handle_status();
      return error_response(405, "method_not_allowed",
                            "use GET on /v1/status");
    }
    if (path == "/metrics") {
      if (request.method == "GET") return handle_metrics();
      return error_response(405, "method_not_allowed", "use GET on /metrics");
    }
    return error_response(404, "not_found", "no route for " + path);
  } catch (const http::HttpError& e) {
    return error_response(e.status(), e.code(), e.what());
  } catch (const std::exception& e) {
    return error_response(500, "internal_error", e.what());
  }
}

}  // namespace tetris::net

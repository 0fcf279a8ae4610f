#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "lock/pipeline.h"
#include "qir/qasm.h"
#include "revlib/benchmarks.h"
#include "service/serialize.h"

namespace tetris::net {

using http::error_response;
using http::json_response;

namespace {

/// HTTP status for a service-layer failure class.
int http_status_for(service::StatusCode code) {
  switch (code) {
    case service::StatusCode::kOk: return 200;
    case service::StatusCode::kInvalidArgument: return 400;
    case service::StatusCode::kParseError: return 400;
    case service::StatusCode::kCompileError: return 422;
    case service::StatusCode::kLockError: return 422;
    case service::StatusCode::kCancelled: return 409;
    case service::StatusCode::kInternalError: return 500;
  }
  return 500;
}

/// Maps the in-flight exception onto an HttpError carrying the service
/// status-code name; call only inside a catch block.
[[noreturn]] void rethrow_as_http() {
  try {
    throw;
  } catch (const http::HttpError&) {
    throw;
  } catch (...) {
    service::ServiceStatus status =
        service::ServiceStatus::from_current_exception();
    throw http::HttpError(http_status_for(status.code),
                          service::status_code_name(status.code),
                          status.message);
  }
}

/// The submit body may only carry these keys; anything else is a client bug
/// worth rejecting loudly (a typoed "shot" silently running 1000 shots is
/// the failure mode strictness prevents).
void require_known_keys(const json::Value& object,
                        std::initializer_list<std::string_view> known,
                        const char* where) {
  for (const auto& [key, value] : object.as_object()) {
    (void)value;
    bool ok = false;
    for (std::string_view k : known) {
      if (key == k) ok = true;
    }
    if (!ok) {
      throw http::HttpError(400, "invalid_argument",
                            std::string("unknown field '") + key + "' in " +
                                where);
    }
  }
}

/// Range-checked integer from an untrusted body. The explicit upper bound
/// matters: these values are narrowed into int/unsigned/size_t config
/// fields, and an unchecked 2^32+2 would silently truncate into a *valid
/// but different* config instead of a 400.
std::int64_t int_field(const json::Value& v, const char* name,
                       std::int64_t min_value, std::int64_t max_value) {
  if (!v.is_integer()) {
    throw http::HttpError(400, "invalid_argument",
                          std::string("'") + name + "' must be an integer");
  }
  std::int64_t value = v.as_int();
  if (value < min_value || value > max_value) {
    throw http::HttpError(400, "invalid_argument",
                          std::string("'") + name + "' must be in [" +
                              std::to_string(min_value) + ", " +
                              std::to_string(max_value) + "]");
  }
  return value;
}

bool bool_field(const json::Value& v, const char* name) {
  if (!v.is_bool()) {
    throw http::HttpError(400, "invalid_argument",
                          std::string("'") + name + "' must be a boolean");
  }
  return v.as_bool();
}

/// FlowConfig from the optional "config" object of a submit body. Field
/// names and defaults mirror the CLI's protect flags; upper bounds keep an
/// unauthenticated client from pinning a job worker on an absurd request
/// (a 10^12-shot sampling run cannot be cancelled once it starts).
lock::FlowConfig parse_flow_config(const json::Value* config) {
  lock::FlowConfig cfg;
  if (config == nullptr) return cfg;
  if (!config->is_object()) {
    throw http::HttpError(400, "invalid_argument",
                          "'config' must be a JSON object");
  }
  require_known_keys(*config,
                     {"shots", "max_gates", "alphabet", "gap", "fuse",
                      "sample_jobs", "backend"},
                     "config");
  if (const json::Value* v = config->find("shots")) {
    cfg.shots =
        static_cast<std::size_t>(int_field(*v, "shots", 1, 100'000'000));
  }
  if (const json::Value* v = config->find("max_gates")) {
    cfg.insertion.max_random_gates =
        static_cast<int>(int_field(*v, "max_gates", 0, 1'000'000));
  }
  if (const json::Value* v = config->find("alphabet")) {
    if (!v->is_string()) {
      throw http::HttpError(400, "invalid_argument",
                            "'alphabet' must be a string");
    }
    cfg.insertion.alphabet = lock::parse_insertion_alphabet(v->as_string());
  }
  if (const json::Value* v = config->find("gap")) {
    cfg.insertion.allow_gap_insertion = bool_field(*v, "gap");
  }
  if (const json::Value* v = config->find("fuse")) {
    cfg.fusion = bool_field(*v, "fuse");
  }
  if (const json::Value* v = config->find("sample_jobs")) {
    cfg.sample_threads =
        static_cast<unsigned>(int_field(*v, "sample_jobs", 0, 65'536));
  }
  if (const json::Value* v = config->find("backend")) {
    if (!v->is_string()) {
      throw http::HttpError(400, "invalid_argument",
                            "'backend' must be a string");
    }
    // Shared parser with the CLI's --backend flag; throws InvalidArgument
    // (→ 400 via the handler wrapper) naming the accepted spellings.
    cfg.backend = sim::parse_backend_kind(v->as_string());
  }
  return cfg;
}

}  // namespace

const char* Server::route_name(Route route) {
  switch (route) {
    case Route::kJobs: return "/v1/jobs";
    case Route::kJob: return "/v1/jobs/{id}";
    case Route::kJobArtifact: return "/v1/jobs/{id}/artifact";
    case Route::kJobTrace: return "/v1/jobs/{id}/trace";
    case Route::kStatus: return "/v1/status";
    case Route::kMetrics: return "/metrics";
    case Route::kOther: return "other";
    case Route::kCount_: break;
  }
  return "other";
}

Server::Server(service::Service& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      start_steady_(std::chrono::steady_clock::now()),
      started_unix_(std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count()) {
  // Pre-register every HTTP-layer instrument so the request path never takes
  // the registry mutex — it hits the cached references directly.
  static constexpr const char* kClasses[kStatusClassCount] = {"2xx", "4xx",
                                                              "5xx"};
  for (std::size_t r = 0; r < kRouteCount; ++r) {
    for (std::size_t c = 0; c < kStatusClassCount; ++c) {
      requests_by_route_[r][c] = &registry_.counter(
          "tetris_http_requests_total",
          "Requests handled, by normalized route and status class.",
          {{"route", route_name(static_cast<Route>(r))},
           {"class", kClasses[c]}});
    }
  }
  obs::Histogram* latency = &registry_.histogram(
      "tetris_http_request_seconds",
      "Request latency from first byte to response queue (reactor clock).",
      obs::latency_buckets());

  ReactorConfig rc;
  rc.host = config_.host;
  rc.port = config_.port;
  rc.backlog = config_.backlog;
  rc.idle_timeout_ms = config_.io_timeout_ms;
  rc.request_deadline_ms = config_.request_deadline_ms;
  rc.max_requests_per_connection = config_.max_requests_per_connection;
  rc.max_header_bytes = config_.max_header_bytes;
  rc.max_body_bytes = config_.max_body_bytes;
  if (config_.telemetry) {
    // The hook runs on the loop thread; Histogram::observe is a few relaxed
    // atomic ops, well under the loop's per-request budget.
    rc.observe_response = [latency](int /*status*/, double seconds) {
      latency->observe(seconds);
    };
  }
  // Route handlers only parse, route, and serialize — job compute lives on
  // the Service pool — so they run inline on the loop thread (two context
  // switches per request cheaper than a pool hop).
  rc.inline_handlers = true;
  reactor_ = std::make_unique<Reactor>(
      std::move(rc),
      [this](const http::Request& request) { return handle(request); },
      registry_, "tetris_http");
}

Server::~Server() { stop(); }

void Server::start() { reactor_->start(); }

void Server::stop() { reactor_->stop(); }

int Server::port() const { return reactor_->port(); }

std::string Server::base_url() const {
  return "http://" + config_.host + ":" + std::to_string(port());
}

http::Response Server::handle(const http::Request& request) {
  // route() assigns the normalized route key before invoking the handler, so
  // a throwing handler still lands in the right per-route counter bucket.
  Route route_key = Route::kOther;
  http::Response response;
  try {
    response = route(request, route_key);
  } catch (const http::HttpError& e) {
    response = error_response(e.status(), e.code(), e.what());
  } catch (...) {
    service::ServiceStatus status =
        service::ServiceStatus::from_current_exception();
    response = error_response(http_status_for(status.code),
                              service::status_code_name(status.code),
                              status.message);
  }
  if (config_.telemetry) {
    const std::size_t cls =
        response.status >= 500 ? 2 : (response.status >= 400 ? 1 : 0);
    requests_by_route_[static_cast<std::size_t>(route_key)][cls]->inc();
  }
  return response;
}

http::Response Server::route(const http::Request& request, Route& route_key) {
  const std::string& path = request.path;
  if (path == "/v1/jobs") {
    route_key = Route::kJobs;
    if (request.method == "POST") return handle_submit(request);
    throw http::HttpError(405, "method_not_allowed", "use POST on /v1/jobs");
  }
  const std::string_view jobs_prefix = "/v1/jobs/";
  if (std::string_view(path).substr(0, jobs_prefix.size()) == jobs_prefix) {
    std::string_view tail = std::string_view(path).substr(jobs_prefix.size());
    // Optional "/artifact" or "/trace" sub-resource after the id.
    bool artifact = false;
    bool trace = false;
    const std::string_view artifact_suffix = "/artifact";
    const std::string_view trace_suffix = "/trace";
    if (tail.size() > artifact_suffix.size() &&
        tail.substr(tail.size() - artifact_suffix.size()) ==
            artifact_suffix) {
      artifact = true;
      tail = tail.substr(0, tail.size() - artifact_suffix.size());
    } else if (tail.size() > trace_suffix.size() &&
               tail.substr(tail.size() - trace_suffix.size()) ==
                   trace_suffix) {
      trace = true;
      tail = tail.substr(0, tail.size() - trace_suffix.size());
    }
    route_key = artifact ? Route::kJobArtifact
                         : (trace ? Route::kJobTrace : Route::kJob);
    if (tail.empty() || tail.size() > 18 ||
        tail.find_first_not_of("0123456789") != std::string_view::npos) {
      route_key = Route::kOther;
      throw http::HttpError(404, "not_found", "job ids are decimal integers");
    }
    std::uint64_t id = 0;
    for (char c : tail) id = id * 10 + static_cast<std::uint64_t>(c - '0');
    if (artifact) {
      if (request.method == "GET") return handle_job_artifact(id);
      throw http::HttpError(405, "method_not_allowed",
                            "use GET on /v1/jobs/{id}/artifact");
    }
    if (trace) {
      if (request.method == "GET") return handle_job_trace(id);
      throw http::HttpError(405, "method_not_allowed",
                            "use GET on /v1/jobs/{id}/trace");
    }
    if (request.method == "GET") return handle_job_get(id, request);
    if (request.method == "DELETE") return handle_job_delete(id);
    throw http::HttpError(405, "method_not_allowed",
                          "use GET or DELETE on /v1/jobs/{id}");
  }
  if (path == "/v1/status") {
    route_key = Route::kStatus;
    if (request.method == "GET") return handle_status();
    throw http::HttpError(405, "method_not_allowed", "use GET on /v1/status");
  }
  if (path == "/metrics") {
    route_key = Route::kMetrics;
    if (request.method == "GET") return handle_metrics();
    throw http::HttpError(405, "method_not_allowed", "use GET on /metrics");
  }
  throw http::HttpError(404, "not_found", "no route for " + path);
}

http::Response Server::handle_submit(const http::Request& request) {
  json::ParseOptions parse_options;
  parse_options.max_depth = 32;
  parse_options.max_bytes = config_.max_body_bytes;
  json::Value doc;
  try {
    doc = json::parse(request.body, parse_options);
  } catch (const ParseError& e) {
    throw http::HttpError(400, "parse_error", e.what());
  }
  if (!doc.is_object()) {
    throw http::HttpError(400, "invalid_argument",
                          "request body must be a JSON object");
  }
  require_known_keys(
      doc, {"name", "qasm", "benchmark", "seed", "measured", "config"},
      "job");

  try {
    const json::Value* qasm = doc.find("qasm");
    const json::Value* benchmark = doc.find("benchmark");
    if ((qasm == nullptr) == (benchmark == nullptr)) {
      throw http::HttpError(400, "invalid_argument",
                            "provide exactly one of 'qasm' or 'benchmark'");
    }

    qir::Circuit circuit;
    std::vector<int> measured;
    std::string name;
    if (benchmark != nullptr) {
      if (!benchmark->is_string()) {
        throw http::HttpError(400, "invalid_argument",
                              "'benchmark' must be a string");
      }
      const auto& b = revlib::get_benchmark(benchmark->as_string());
      circuit = b.circuit;
      measured = b.measured;
      name = b.name;
    } else {
      if (!qasm->is_string()) {
        throw http::HttpError(400, "invalid_argument",
                              "'qasm' must be a string");
      }
      circuit = qir::from_qasm(qasm->as_string());
      name = circuit.name();
    }

    if (const json::Value* m = doc.find("measured")) {
      measured.clear();
      for (const json::Value& q : m->as_array()) {
        std::int64_t qubit =
            int_field(q, "measured[]", 0, std::numeric_limits<int>::max());
        if (qubit >= circuit.num_qubits()) {
          throw http::HttpError(400, "invalid_argument",
                                "'measured' qubit " + std::to_string(qubit) +
                                    " out of range for a " +
                                    std::to_string(circuit.num_qubits()) +
                                    "-qubit circuit");
        }
        measured.push_back(static_cast<int>(qubit));
      }
    }
    if (const json::Value* n = doc.find("name")) {
      if (!n->is_string()) {
        throw http::HttpError(400, "invalid_argument",
                              "'name' must be a string");
      }
      name = n->as_string();
    }
    if (name.empty()) name = "circuit";

    std::uint64_t seed = 2025;  // the CLI's default --seed
    if (const json::Value* s = doc.find("seed")) {
      seed = static_cast<std::uint64_t>(int_field(
          *s, "seed", 0, std::numeric_limits<std::int64_t>::max()));
    }
    lock::FlowConfig cfg = parse_flow_config(doc.find("config"));

    service::JobHandle handle = service_.submit(
        lock::make_flow_job(name, std::move(circuit), std::move(measured),
                            cfg),
        seed);

    json::Writer w;
    w.begin_object();
    w.key("id").value(handle.id());
    w.key("state").value(service::job_state_name(handle.poll()));
    w.key("url").value("/v1/jobs/" + std::to_string(handle.id()));
    w.end_object();
    return json_response(202, w.str());
  } catch (...) {
    rethrow_as_http();
  }
}

http::Response Server::handle_job_get(std::uint64_t id,
                                      const http::Request& request) {
  service::JobHandle handle;
  try {
    handle = service_.handle(id);
  } catch (const InvalidArgument&) {
    throw http::HttpError(404, "not_found",
                          "unknown job id " + std::to_string(id));
  }
  service::JobOutcome outcome = service_.outcome(handle);
  if (service::is_terminal(outcome.state)) {
    bool include_timing = true;
    if (const std::string* t = request.query_param("timing")) {
      include_timing = !(*t == "0" || *t == "false");
    }
    return json_response(200, service::to_json(outcome, include_timing));
  }
  json::Writer w;
  w.begin_object();
  w.key("id").value(outcome.id);
  w.key("name").value(outcome.name);
  w.key("state").value(service::job_state_name(outcome.state));
  w.end_object();
  return json_response(200, w.str());
}

http::Response Server::handle_job_artifact(std::uint64_t id) {
  service::JobHandle handle;
  try {
    handle = service_.handle(id);
  } catch (const InvalidArgument&) {
    throw http::HttpError(404, "not_found",
                          "unknown job id " + std::to_string(id));
  }
  // Only kDone jobs have an artifact. Queued/running jobs are a 409 (try
  // again later), failed/cancelled ones permanently so.
  const service::JobState state = service_.poll(handle);
  if (state != service::JobState::kDone) {
    throw http::HttpError(409, "no_artifact",
                          "job " + std::to_string(id) + " is " +
                              service::job_state_name(state) +
                              "; artifacts exist only for done jobs");
  }
  http::Response res;
  res.status = 200;
  res.content_type = "application/octet-stream";
  // Byte-identical to the artifact store's file for this job (deterministic
  // encoder), so a fetched artifact can be diffed against the store.
  res.body = service_.artifact_bytes(handle);
  return res;
}

http::Response Server::handle_job_trace(std::uint64_t id) {
  service::JobHandle handle;
  try {
    handle = service_.handle(id);
  } catch (const InvalidArgument&) {
    throw http::HttpError(404, "not_found",
                          "unknown job id " + std::to_string(id));
  }
  // A trace exists once the job is terminal (failed jobs carry the spans up
  // to the failure; cancelled jobs an empty list). Queued/running jobs are a
  // 409: try again when the job finishes — the same protocol the artifact
  // endpoint speaks.
  service::JobOutcome outcome = service_.outcome(handle);
  if (!service::is_terminal(outcome.state)) {
    throw http::HttpError(409, "no_trace",
                          "job " + std::to_string(id) + " is " +
                              service::job_state_name(outcome.state) +
                              "; traces exist only for terminal jobs");
  }
  return json_response(200, service::trace_to_json(outcome));
}

http::Response Server::handle_job_delete(std::uint64_t id) {
  service::JobHandle handle;
  try {
    handle = service_.handle(id);
  } catch (const InvalidArgument&) {
    throw http::HttpError(404, "not_found",
                          "unknown job id " + std::to_string(id));
  }
  const bool cancelled = service_.cancel(handle);
  json::Writer w;
  w.begin_object();
  w.key("id").value(id);
  w.key("cancelled").value(cancelled);
  w.key("state").value(service::job_state_name(service_.poll(handle)));
  w.end_object();
  return json_response(200, w.str());
}

http::Response Server::handle_status() {
  json::Writer w;
  w.begin_object();
  w.key("schema").value(service::kStatusSchema);
  // Start time (wall clock, unix seconds) and uptime (steady clock): the
  // pair a scraper needs to turn counter deltas into rates.
  w.key("started_unix").value(started_unix_);
  w.key("uptime_seconds")
      .value(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_steady_)
                 .count());
  // Static capabilities of every registered engine; the per-engine job
  // tallies are the tetris_jobs_terminal_total samples under "metrics".
  w.key("backends").begin_object();
  for (const sim::BackendInfo& info : sim::registered_backends()) {
    w.key(info.name).begin_object();
    w.key("max_qubits").value(info.caps.max_qubits);
    w.key("clifford_only").value(info.caps.clifford_only);
    w.key("supports_noise").value(info.caps.supports_noise);
    w.end_object();
  }
  w.end_object();
  const std::string& store_dir = service_.config().store_dir;
  w.key("store_dir");
  store_dir.empty() ? w.null_value() : w.value(store_dir);
  // Every number below is a /metrics series: the same family list, so the
  // two views cannot disagree.
  w.key("metrics");
  obs::write_json(w, collect());
  w.end_object();
  return json_response(200, w.str());
}

std::vector<obs::Family> Server::collect() const {
  std::vector<obs::Family> families = service_.telemetry().collect();
  std::vector<obs::Family> own = registry_.collect();
  families.insert(families.end(), std::make_move_iterator(own.begin()),
                  std::make_move_iterator(own.end()));
  return families;
}

http::Response Server::handle_metrics() {
  // One merged exposition; the family order only decides which HELP text
  // wins on a (non-existent) name clash.
  http::Response res;
  res.status = 200;
  res.content_type = "text/plain; version=0.0.4; charset=utf-8";
  res.body = obs::render_prometheus(collect());
  return res;
}

}  // namespace tetris::net

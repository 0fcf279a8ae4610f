// End-to-end tests of the REST front-end (src/net/): a real server on an
// ephemeral loopback port driven by the real blocking client, plus direct
// unit tests of the HTTP message layer and the router. The key contract —
// a job submitted over the wire serializes byte-identically to the same
// job submitted in-process — is pinned here.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "net/client.h"
#include "net/dispatch.h"
#include "net/http.h"
#include "net/socket.h"
#include "obs/registry.h"
#include "qir/qasm.h"
#include "revlib/benchmarks.h"
#include "service/artifact_store.h"
#include "service/serialize.h"
#include "service/service.h"

namespace tetris::net {
namespace {

/// Small submit body for the built-in benchmark `name`. A non-empty
/// `backend` adds the config field ("auto"/"statevector"/"stabilizer").
std::string submit_body(const std::string& name, std::uint64_t seed = 2025,
                        std::size_t shots = 64,
                        const std::string& backend = "") {
  json::Writer w(0);
  w.begin_object();
  w.key("benchmark").value(name);
  w.key("seed").value(seed);
  w.key("config").begin_object();
  w.key("shots").value(shots);
  if (!backend.empty()) w.key("backend").value(backend);
  w.end_object();
  w.end_object();
  return w.str();
}

/// The same job built in-process, for facade-vs-wire comparisons.
lock::FlowJob facade_job(const std::string& name, std::size_t shots = 64) {
  const auto& b = revlib::get_benchmark(name);
  lock::FlowConfig cfg;
  cfg.shots = shots;
  return lock::make_flow_job(b.name, b.circuit, b.measured, cfg);
}

/// Service config for the fixtures: `threads` private workers, seed 2025,
/// cache off (store fields default-empty).
service::ServiceConfig fixture_service_config(unsigned threads) {
  service::ServiceConfig cfg;
  cfg.num_threads = threads;
  cfg.base_seed = 2025;
  cfg.cache_capacity = 0;
  return cfg;
}

/// A service with a 2-thread pool plus a started server on an ephemeral
/// port and a client pointed at it.
class ServerFixture {
 public:
  explicit ServerFixture(
      ServerConfig config = {},
      service::ServiceConfig service_config = fixture_service_config(2))
      : service_(service_config), server_(service_, with_port0(config)) {
    server_.start();
  }

  ~ServerFixture() { server_.stop(); }

  Client client() { return Client("127.0.0.1", server_.port()); }

  service::Service& service() { return service_; }
  Server& server() { return server_; }

 private:
  static ServerConfig with_port0(ServerConfig config) {
    config.port = 0;
    return config;
  }

  service::Service service_;
  Server server_;
};

std::string poll_until_terminal(Client& client, std::uint64_t id) {
  // 30s ceiling: heavy-shot jobs under sanitizers on an oversubscribed
  // test host can take >10s of wall time before turning terminal.
  for (int i = 0; i < 3000; ++i) {
    auto res = client.get("/v1/jobs/" + std::to_string(id));
    EXPECT_EQ(res.status, 200);
    std::string state = json::parse(res.body).at("state").as_string();
    if (state == "done" || state == "failed" || state == "cancelled") {
      return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "job " << id << " never became terminal";
  return "timeout";
}

/// A series total of one registry (obs::sum_samples over the samples whose
/// labels include `match`), as an integer.
std::uint64_t metric(const obs::Registry& registry, const char* name,
                     const obs::Labels& match = {}) {
  return static_cast<std::uint64_t>(
      obs::sum_samples(registry.collect(), name, match));
}

/// The same total read from the "metrics" block of a v2 status document.
std::int64_t status_metric(const json::Value& status, const char* name,
                           const obs::Labels& match = {}) {
  const json::Value* family = status.at("metrics").find(name);
  if (family == nullptr) return 0;
  std::int64_t total = 0;
  for (const json::Value& sample : family->at("samples").as_array()) {
    bool matches = true;
    for (const auto& [key, value] : match) {
      const json::Value* label = sample.at("labels").find(key);
      matches = matches && label != nullptr && label->as_string() == value;
    }
    if (matches) total += sample.at("value").as_int();
  }
  return total;
}

// ----------------------------------------------------------- message layer

TEST(HttpMessages, ParsesRequestLineHeadersAndQuery) {
  auto req = http::parse_request_head(
      "GET /v1/jobs/7?timing=0&x=a%20b HTTP/1.1\r\n"
      "Host: localhost:8080\r\n"
      "X-Custom:  spaced value \r\n"
      "\r\n");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/v1/jobs/7");
  ASSERT_NE(req.query_param("timing"), nullptr);
  EXPECT_EQ(*req.query_param("timing"), "0");
  ASSERT_NE(req.query_param("x"), nullptr);
  EXPECT_EQ(*req.query_param("x"), "a b");
  ASSERT_NE(req.header("x-custom"), nullptr);
  EXPECT_EQ(*req.header("x-custom"), "spaced value");
  EXPECT_EQ(req.header("absent"), nullptr);
}

TEST(HttpMessages, RejectsMalformedRequests) {
  EXPECT_THROW(http::parse_request_head("GARBAGE\r\n\r\n"), http::HttpError);
  EXPECT_THROW(http::parse_request_head("GET /a b HTTP/1.1\r\n\r\n"),
               http::HttpError);
  EXPECT_THROW(http::parse_request_head("GET /x HTTP/2\r\n\r\n"),
               http::HttpError);
  EXPECT_THROW(http::parse_request_head("GET noslash HTTP/1.1\r\n\r\n"),
               http::HttpError);
  EXPECT_THROW(
      http::parse_request_head("GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n"),
      http::HttpError);
  EXPECT_THROW(http::parse_request_head("GET /%zz HTTP/1.1\r\n\r\n"),
               http::HttpError);
}

TEST(HttpMessages, BodyLengthEnforcesLimitsAndChunkRejection) {
  auto with_headers = [](const std::string& lines) {
    return http::parse_request_head("POST /v1/jobs HTTP/1.1\r\n" + lines +
                                    "\r\n");
  };
  EXPECT_EQ(http::body_length(with_headers(""), 100), 0u);
  EXPECT_EQ(http::body_length(with_headers("Content-Length: 42\r\n"), 100),
            42u);
  try {
    http::body_length(with_headers("Content-Length: 101\r\n"), 100);
    FAIL() << "oversized body accepted";
  } catch (const http::HttpError& e) {
    EXPECT_EQ(e.status(), 413);
  }
  try {
    http::body_length(with_headers("Transfer-Encoding: chunked\r\n"), 100);
    FAIL() << "chunked encoding accepted";
  } catch (const http::HttpError& e) {
    EXPECT_EQ(e.status(), 411);
  }
  EXPECT_THROW(http::body_length(with_headers("Content-Length: nope\r\n"), 100),
               http::HttpError);
  EXPECT_THROW(
      http::body_length(with_headers("Content-Length: 1\r\n"
                                     "Content-Length: 2\r\n"),
                        100),
      http::HttpError);
}

TEST(HttpMessages, ResponseRoundTrip) {
  http::Response out;
  out.status = 404;
  out.body = "{\"error\":{}}";
  std::string wire = http::format_response(out);
  std::size_t head_end = wire.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  auto parsed = http::parse_response_head(wire.substr(0, head_end + 4));
  EXPECT_EQ(parsed.status, 404);
  ASSERT_NE(parsed.header("content-length"), nullptr);
  EXPECT_EQ(*parsed.header("content-length"),
            std::to_string(out.body.size()));
  EXPECT_EQ(wire.substr(head_end + 4), out.body);
}

TEST(UrlParsing, AcceptsHostPortShapes) {
  auto url = parse_url("http://127.0.0.1:8080");
  EXPECT_EQ(url.host, "127.0.0.1");
  EXPECT_EQ(url.port, 8080);
  EXPECT_EQ(parse_url("http://localhost:1/").port, 1);
  EXPECT_EQ(parse_url("http://10.0.0.1").port, 80);
  EXPECT_THROW(parse_url("https://127.0.0.1:1"), InvalidArgument);
  EXPECT_THROW(parse_url("http://127.0.0.1:0"), InvalidArgument);
  EXPECT_THROW(parse_url("http://127.0.0.1:x"), InvalidArgument);
  EXPECT_THROW(parse_url("http://host:1/v1/jobs"), InvalidArgument);
}

// ------------------------------------------------------------- end to end

TEST(NetServer, StatusEndpointReportsCounters) {
  ServerFixture fx;
  auto client = fx.client();
  auto res = client.get("/v1/status");
  ASSERT_EQ(res.status, 200);
  auto doc = json::parse(res.body);
  EXPECT_EQ(doc.at("schema").as_string(), "tetrislock.status.v2");
  EXPECT_EQ(status_metric(doc, "tetris_jobs_submitted_total"), 0);
  EXPECT_EQ(status_metric(doc, "tetris_pool_threads"), 2);
  EXPECT_EQ(status_metric(doc, "tetris_cache_capacity"), 0);

  // A second status call sees the first one in the counters.
  auto doc2 = json::parse(client.get("/v1/status").body);
  EXPECT_GE(status_metric(doc2, "tetris_http_requests_total"), 1);
  EXPECT_GE(status_metric(doc2, "tetris_http_responses_total",
                          {{"class", "2xx"}}),
            1);
}

TEST(NetServer, SubmitPollResultRoundTrip) {
  ServerFixture fx;
  auto client = fx.client();

  auto posted = client.post("/v1/jobs", submit_body("4mod5"));
  ASSERT_EQ(posted.status, 202) << posted.body;
  auto accepted = json::parse(posted.body);
  EXPECT_EQ(accepted.at("id").as_int(), 1);
  EXPECT_EQ(accepted.at("url").as_string(), "/v1/jobs/1");

  EXPECT_EQ(poll_until_terminal(client, 1), "done");

  auto res = client.get("/v1/jobs/1");
  ASSERT_EQ(res.status, 200);
  auto doc = json::parse(res.body);
  EXPECT_EQ(doc.at("state").as_string(), "done");
  EXPECT_EQ(doc.at("seed").as_int(), 2025);
  EXPECT_EQ(doc.at("status").at("code").as_string(), "ok");
  const auto& result = doc.at("result");
  EXPECT_EQ(result.at("depth_original").as_int(),
            result.at("depth_obfuscated").as_int());
  EXPECT_GT(result.at("gates_obfuscated").as_int(),
            result.at("gates_original").as_int());
}

TEST(NetServer, ResultJsonByteIdenticalToInProcessFacade) {
  ServerFixture fx;
  auto client = fx.client();
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5")).status, 202);
  ASSERT_EQ(poll_until_terminal(client, 1), "done");
  auto res = client.get("/v1/jobs/1?timing=0");
  ASSERT_EQ(res.status, 200);

  // The same circuit, seed, and flow config through the in-process facade.
  service::Service svc(fixture_service_config(2));
  auto outcome = svc.submit(facade_job("4mod5"), 2025).wait();
  ASSERT_EQ(outcome.state, service::JobState::kDone);
  EXPECT_EQ(res.body, service::to_json(outcome, /*include_timing=*/false));
}

TEST(NetServer, QasmSubmissionMatchesBenchmarkSubmission) {
  // An inline-QASM body with explicit measured qubits must behave exactly
  // like the equivalent benchmark submission.
  const auto& b = revlib::get_benchmark("4mod5");
  json::Writer w(0);
  w.begin_object();
  w.key("qasm").value(qir::to_qasm(b.circuit));
  w.key("name").value(b.name);
  w.key("measured").begin_array();
  for (int q : b.measured) w.value(q);
  w.end_array();
  w.key("seed").value(2025);
  w.key("config").begin_object().key("shots").value(64).end_object();
  w.end_object();

  ServerFixture fx;
  auto client = fx.client();
  ASSERT_EQ(client.post("/v1/jobs", w.str()).status, 202);
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5")).status, 202);
  ASSERT_EQ(poll_until_terminal(client, 1), "done");
  ASSERT_EQ(poll_until_terminal(client, 2), "done");

  // Ids differ, so compare the result objects field by field.
  auto qasm_doc = json::parse(client.get("/v1/jobs/1?timing=0").body);
  auto bench_doc = json::parse(client.get("/v1/jobs/2?timing=0").body);
  EXPECT_EQ(qasm_doc.at("result").size(), bench_doc.at("result").size());
  for (const auto& [key, value] : qasm_doc.at("result").as_object()) {
    const json::Value& other = bench_doc.at("result").at(key);
    if (value.is_number()) {
      EXPECT_EQ(value.as_number(), other.as_number()) << key;
    }
  }
}

TEST(NetServer, RepeatedGetIsStableAndDoesNotDisturbDrain) {
  ServerFixture fx;
  auto client = fx.client();
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5")).status, 202);
  ASSERT_EQ(poll_until_terminal(client, 1), "done");

  const std::string first = client.get("/v1/jobs/1?timing=0").body;
  const std::string second = client.get("/v1/jobs/1?timing=0").body;
  EXPECT_EQ(first, second);

  // The HTTP reads above must not have consumed the drain cursor.
  std::size_t drained = fx.service().drain([](const service::JobOutcome&) {});
  EXPECT_EQ(drained, 1u);
  EXPECT_EQ(client.get("/v1/jobs/1?timing=0").body, first);
}

TEST(NetServer, ArtifactEndpointServesValidatedBytes) {
  ServerFixture fx;
  auto client = fx.client();
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5")).status, 202);
  ASSERT_EQ(poll_until_terminal(client, 1), "done");

  auto res = client.get("/v1/jobs/1/artifact");
  ASSERT_EQ(res.status, 200);
  ASSERT_NE(res.header("content-type"), nullptr);
  EXPECT_EQ(*res.header("content-type"), "application/octet-stream");

  // The bytes are a complete, valid artifact carrying the job's provenance.
  const service::Artifact artifact = service::decode_artifact(res.body);
  EXPECT_EQ(artifact.key.seed, 2025u);
  EXPECT_EQ(artifact.result.depth_original,
            artifact.result.depth_obfuscated);

  // Byte-identical to the in-process encoding of the same job — the
  // "fetch == store file" guarantee rides on this plus determinism.
  EXPECT_EQ(res.body, fx.service().artifact_bytes(fx.service().handle(1)));
  // And stable across repeated GETs.
  EXPECT_EQ(client.get("/v1/jobs/1/artifact").body, res.body);
}

TEST(NetServer, ArtifactEndpointRejectsUnknownAndUnfinishedJobs) {
  // One worker wedged by a slow job keeps a second submission queued long
  // enough to cancel it — giving a deterministic non-done terminal state.
  ServerFixture fx({}, fixture_service_config(1));
  auto client = fx.client();

  auto missing = client.get("/v1/jobs/99/artifact");
  EXPECT_EQ(missing.status, 404);

  ASSERT_EQ(
      client.post("/v1/jobs", submit_body("4mod5", 2025, /*shots=*/20000))
          .status,
      202);
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5")).status, 202);
  ASSERT_EQ(client.del("/v1/jobs/2").status, 200);

  auto res = client.get("/v1/jobs/2/artifact");
  EXPECT_EQ(res.status, 409);
  EXPECT_EQ(json::parse(res.body).at("error").at("code").as_string(),
            "no_artifact");

  EXPECT_EQ(poll_until_terminal(client, 1), "done");
}

TEST(NetServer, StatusReportsArtifactStoreCounters) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "tetris_net_store").string();
  std::filesystem::remove_all(dir);
  service::ServiceConfig scfg;
  scfg.num_threads = 2;
  scfg.store_dir = dir;
  ServerFixture fx({}, scfg);
  auto client = fx.client();

  auto before = json::parse(client.get("/v1/status").body);
  EXPECT_EQ(before.at("store_dir").as_string(), dir);
  EXPECT_EQ(status_metric(before, "tetris_store_writes_total"), 0);

  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5")).status, 202);
  ASSERT_EQ(poll_until_terminal(client, 1), "done");

  auto after = json::parse(client.get("/v1/status").body);
  EXPECT_EQ(status_metric(after, "tetris_store_writes_total"), 1);
  EXPECT_EQ(status_metric(after, "tetris_store_entries"), 1);

  // A store-less server reports the tier as disabled (a null directory),
  // not absent, and exports no store series.
  ServerFixture plain;
  auto plain_client = plain.client();
  auto doc = json::parse(plain_client.get("/v1/status").body);
  EXPECT_TRUE(doc.at("store_dir").is_null());
  EXPECT_EQ(doc.at("metrics").find("tetris_store_writes_total"), nullptr);
}

TEST(NetServer, StatusListsBackendRegistryAndPerEngineTallies) {
  ServerFixture fx;
  auto client = fx.client();

  auto doc = json::parse(client.get("/v1/status").body);
  const auto& backends = doc.at("backends");
  ASSERT_EQ(backends.size(), 2u);
  EXPECT_FALSE(backends.at("statevector").at("clifford_only").as_bool());
  EXPECT_TRUE(backends.at("statevector").at("supports_noise").as_bool());
  EXPECT_TRUE(backends.at("stabilizer").at("clifford_only").as_bool());
  EXPECT_EQ(backends.at("stabilizer").at("max_qubits").as_int(), 64);
  EXPECT_TRUE(backends.at("stabilizer").at("supports_noise").as_bool());
  // Every engine has both terminal series from the start, at zero.
  const auto& terminal =
      doc.at("metrics").at("tetris_jobs_terminal_total").at("samples");
  EXPECT_EQ(terminal.size(), 2 * backends.size());
  for (const auto& [name, info] : backends.as_object()) {
    (void)info;
    EXPECT_EQ(status_metric(doc, "tetris_jobs_terminal_total",
                            {{"backend", name}, {"state", "done"}}),
              0)
        << name;
    EXPECT_EQ(status_metric(doc, "tetris_jobs_terminal_total",
                            {{"backend", name}, {"state", "failed"}}),
              0)
        << name;
  }

  // A 50-qubit Clifford job over the wire lands on the stabilizer engine
  // and moves that engine's tally — and only that engine's.
  auto posted =
      client.post("/v1/jobs", submit_body("cliff50", 2025, 64, "stabilizer"));
  ASSERT_EQ(posted.status, 202) << posted.body;
  ASSERT_EQ(poll_until_terminal(client, 1), "done");
  auto after = json::parse(client.get("/v1/status").body);
  auto tally = [&after](const char* engine, const char* state) {
    return status_metric(after, "tetris_jobs_terminal_total",
                         {{"backend", engine}, {"state", state}});
  };
  EXPECT_EQ(tally("stabilizer", "done"), 1);
  EXPECT_EQ(tally("statevector", "done"), 0);
  EXPECT_EQ(tally("stabilizer", "failed"), 0);
}

/// The numeric series of a Prometheus exposition, keyed
/// `name{k="v",...}` (histograms contribute their `_count` and `_sum`
/// lines; `_bucket` lines are left to the grammar tests in test_obs.cpp).
std::map<std::string, double> exposition_series(const std::string& body) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    const std::string key = line.substr(0, space);
    if (key.find("_bucket{") != std::string::npos) continue;
    out[key] = std::stod(line.substr(space + 1));
  }
  return out;
}

/// The "metrics" block of a v2 status document, keyed the same way.
std::map<std::string, double> status_series(const json::Value& status) {
  std::map<std::string, double> out;
  for (const auto& [name, family] : status.at("metrics").as_object()) {
    const bool histogram = family.at("kind").as_string() == "histogram";
    for (const json::Value& sample : family.at("samples").as_array()) {
      std::string labels;
      for (const auto& [key, value] : sample.at("labels").as_object()) {
        labels += (labels.empty() ? "" : ",") + key + "=\"" +
                  value.as_string() + "\"";
      }
      const std::string block = labels.empty() ? "" : "{" + labels + "}";
      if (histogram) {
        out[name + "_count" + block] = sample.at("count").as_number();
        out[name + "_sum" + block] = sample.at("sum").as_number();
      } else {
        out[name + block] = sample.at("value").as_number();
      }
    }
  }
  return out;
}

TEST(NetStatus, V2MetricsAgreeWithPrometheusExposition) {
  const std::string dir = (std::filesystem::path(testing::TempDir()) /
                           "tetris_net_agreement")
                              .string();
  std::filesystem::remove_all(dir);
  service::ServiceConfig scfg = fixture_service_config(2);
  scfg.cache_capacity = 8;
  scfg.store_dir = dir;
  {  // A previous process left 4gt11's artifact in the store.
    service::Service warm(scfg);
    ASSERT_EQ(warm.submit(facade_job("4gt11"), 7).wait().state,
              service::JobState::kDone);
  }
  ServerFixture fx({}, scfg);
  auto client = fx.client();

  // A store hit, a computed job, a memory-cache hit and a failed job.
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4gt11", 7)).status, 202);
  ASSERT_EQ(poll_until_terminal(client, 1), "done");
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5")).status, 202);
  ASSERT_EQ(poll_until_terminal(client, 2), "done");
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5")).status, 202);
  ASSERT_EQ(poll_until_terminal(client, 3), "done");
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5", 2025, 64,
                                                "stabilizer"))
                .status,
            202);
  ASSERT_EQ(poll_until_terminal(client, 4), "failed");
  // A 404 from the router and a 411 protocol reject from the reactor.
  EXPECT_EQ(client.get("/nope").status, 404);
  const std::string wire = client.raw_exchange(
      "POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(wire.rfind("HTTP/1.1 411", 0), 0u) << wire;
  // Pool tasks finish just after their job turns terminal; wait for the
  // pool to go idle so its counters hold still between the two scrapes.
  for (int i = 0; i < 3000; ++i) {
    const auto pool = fx.service().pool_stats();
    if (pool.completed == pool.submitted && pool.active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Both views through the router directly, so the reactor's counters hold
  // still too: the /metrics scrape differs from the status document only by
  // the status request itself.
  http::Request request;
  request.method = "GET";
  request.version = "HTTP/1.1";
  request.target = request.path = "/v1/status";
  const http::Response status_res = fx.server().handle(request);
  request.target = request.path = "/metrics";
  const http::Response metrics_res = fx.server().handle(request);
  ASSERT_EQ(status_res.status, 200);
  ASSERT_EQ(metrics_res.status, 200);
  const json::Value status = json::parse(status_res.body);
  EXPECT_EQ(status.at("schema").as_string(), "tetrislock.status.v2");

  std::map<std::string, double> in_status = status_series(status);
  const std::map<std::string, double> in_exposition =
      exposition_series(metrics_res.body);
  const std::string status_route =
      "tetris_http_requests_total{route=\"/v1/status\",class=\"2xx\"}";
  ASSERT_EQ(in_status.count(status_route), 1u);
  in_status[status_route] += 1;
  EXPECT_EQ(in_status, in_exposition);

  // The scenario reached every counter it was meant to.
  EXPECT_EQ(status_metric(status, "tetris_store_hits_total"), 1);
  EXPECT_EQ(status_metric(status, "tetris_store_writes_total"), 1);
  EXPECT_EQ(status_metric(status, "tetris_cache_hits_total"), 1);
  EXPECT_EQ(status_metric(status, "tetris_jobs_terminal_total",
                          {{"backend", "stabilizer"}, {"state", "failed"}}),
            1);
  EXPECT_EQ(status_metric(status, "tetris_http_requests_total",
                          {{"route", "other"}, {"class", "4xx"}}),
            1);
  EXPECT_EQ(status_metric(status, "tetris_http_responses_total",
                          {{"class", "4xx"}}),
            2);

  // Every engine the document lists has both terminal series.
  for (const auto& [engine, caps] : status.at("backends").as_object()) {
    (void)caps;
    for (const char* state : {"done", "failed"}) {
      EXPECT_EQ(in_exposition.count(
                    "tetris_jobs_terminal_total{backend=\"" + engine +
                    "\",state=\"" + state + "\"}"),
                1u)
          << engine << " " << state;
    }
  }
}

TEST(NetServer, BackendConfigEchoAndValidation) {
  ServerFixture fx;
  auto client = fx.client();

  // An off-default engine is echoed in the job document's sampler block;
  // the statevector default is omitted (documents stay byte-identical to
  // the pre-backend schema). `auto` on a wide Clifford circuit resolves to
  // stabilizer before the echo.
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5")).status, 202);
  ASSERT_EQ(client.post("/v1/jobs", submit_body("cliff50", 2025, 64, "auto"))
                .status,
            202);
  ASSERT_EQ(poll_until_terminal(client, 1), "done");
  ASSERT_EQ(poll_until_terminal(client, 2), "done");
  auto sv_doc = json::parse(client.get("/v1/jobs/1?timing=0").body);
  EXPECT_EQ(sv_doc.at("sampler").find("backend"), nullptr);
  auto stab_doc = json::parse(client.get("/v1/jobs/2?timing=0").body);
  ASSERT_NE(stab_doc.at("sampler").find("backend"), nullptr);
  EXPECT_EQ(stab_doc.at("sampler").at("backend").as_string(), "stabilizer");

  // Unknown engine names and non-string values are submit-time 400s.
  auto bad_name =
      client.post("/v1/jobs", submit_body("4mod5", 2025, 64, "warp"));
  EXPECT_EQ(bad_name.status, 400);
  EXPECT_EQ(json::parse(bad_name.body).at("error").at("code").as_string(),
            "invalid_argument");
  auto bad_type = client.post(
      "/v1/jobs",
      R"({"benchmark":"4mod5","seed":1,"config":{"backend":7}})");
  EXPECT_EQ(bad_type.status, 400);
  // "unitary" names no engine.
  auto unitary =
      client.post("/v1/jobs", submit_body("4mod5", 2025, 64, "unitary"));
  EXPECT_EQ(unitary.status, 400);
  EXPECT_EQ(json::parse(unitary.body).at("error").at("code").as_string(),
            "invalid_argument");

  // Forcing the stabilizer onto a non-Clifford benchmark is accepted at
  // submit time but fails in the flow with the structured UnsupportedGate
  // message naming the engine and the offending gate (the compiled view of
  // 4mod5's Toffolis carries off-lattice rz angles).
  ASSERT_EQ(
      client.post("/v1/jobs", submit_body("4mod5", 2025, 64, "stabilizer"))
          .status,
      202);
  ASSERT_EQ(poll_until_terminal(client, 3), "failed");
  auto failed = json::parse(client.get("/v1/jobs/3").body);
  EXPECT_EQ(failed.at("status").at("code").as_string(), "invalid_argument");
  const std::string message = failed.at("status").at("message").as_string();
  EXPECT_NE(message.find("stabilizer"), std::string::npos) << message;
  EXPECT_NE(message.find("rz"), std::string::npos) << message;
}

TEST(NetServer, ConcurrentClientsGetUniqueIdsAndAnswers) {
  // Four client threads on four connections; the loop serves them all.
  ServerFixture fx;
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::vector<std::thread> threads;
  std::mutex mutex;
  std::set<std::int64_t> ids;
  std::atomic<int> status_ok{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = fx.client();
      for (int i = 0; i < kPerClient; ++i) {
        auto posted = client.post("/v1/jobs", submit_body("4mod5"));
        ASSERT_EQ(posted.status, 202) << posted.body;
        auto id = json::parse(posted.body).at("id").as_int();
        {
          std::lock_guard<std::mutex> lk(mutex);
          ids.insert(id);
        }
        if (client.get("/v1/status").status == 200) ++status_ok;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kClients * kPerClient));
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), kClients * kPerClient);
  EXPECT_EQ(status_ok.load(), kClients * kPerClient);
  auto client = fx.client();
  for (int id = 1; id <= kClients * kPerClient; ++id) {
    EXPECT_EQ(poll_until_terminal(client, static_cast<std::uint64_t>(id)),
              "done");
  }
}

TEST(NetServer, DeleteCancelsQueuedJobs) {
  // One service worker: job 1 occupies it, job 2 sits queued and is
  // cancellable through the REST surface.
  ServerFixture fx({}, fixture_service_config(1));
  auto client = fx.client();
  ASSERT_EQ(
      client.post("/v1/jobs", submit_body("4mod5", 2025, /*shots=*/20000))
          .status,
      202);
  ASSERT_EQ(client.post("/v1/jobs", submit_body("4mod5")).status, 202);

  auto res = client.del("/v1/jobs/2");
  ASSERT_EQ(res.status, 200);
  auto doc = json::parse(res.body);
  if (doc.at("cancelled").as_bool()) {
    EXPECT_EQ(doc.at("state").as_string(), "cancelled");
    auto out = json::parse(client.get("/v1/jobs/2").body);
    EXPECT_EQ(out.at("state").as_string(), "cancelled");
    EXPECT_EQ(out.at("status").at("code").as_string(), "cancelled");
  } else {
    // The worker raced us and already picked the job up; it must finish.
    EXPECT_NE(poll_until_terminal(client, 2), "timeout");
  }
  EXPECT_EQ(poll_until_terminal(client, 1), "done");

  // Cancelling a finished job is a no-op reported as such.
  auto again = json::parse(client.del("/v1/jobs/1").body);
  EXPECT_FALSE(again.at("cancelled").as_bool());
  EXPECT_EQ(again.at("state").as_string(), "done");
}

// -------------------------------------------------------------- error paths

TEST(NetServer, BadJsonIs400WithParseErrorCode) {
  ServerFixture fx;
  auto client = fx.client();
  auto res = client.post("/v1/jobs", "{not json");
  EXPECT_EQ(res.status, 400);
  auto doc = json::parse(res.body);
  EXPECT_EQ(doc.at("error").at("code").as_string(), "parse_error");
}

TEST(NetServer, BadQasmIs400WithParseErrorCode) {
  ServerFixture fx;
  auto client = fx.client();
  auto res = client.post(
      "/v1/jobs",
      R"({"qasm": "OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n"})");
  EXPECT_EQ(res.status, 400);
  EXPECT_EQ(json::parse(res.body).at("error").at("code").as_string(),
            "parse_error");
  // An unsupported QASM version is an invalid argument, still a 400.
  res = client.post("/v1/jobs", R"({"qasm": "OPENQASM 9.9; bogus"})");
  EXPECT_EQ(res.status, 400);
  EXPECT_EQ(json::parse(res.body).at("error").at("code").as_string(),
            "invalid_argument");
}

TEST(NetServer, SubmitValidationRejections) {
  ServerFixture fx;
  auto client = fx.client();
  // Neither qasm nor benchmark.
  EXPECT_EQ(client.post("/v1/jobs", R"({"seed": 1})").status, 400);
  // Unknown top-level field.
  EXPECT_EQ(
      client.post("/v1/jobs", R"({"benchmark": "4mod5", "shot": 1})").status,
      400);
  // Unknown config field (typo of shots).
  EXPECT_EQ(client
                .post("/v1/jobs",
                      R"({"benchmark": "4mod5", "config": {"shot": 1}})")
                .status,
            400);
  // Zero shots.
  EXPECT_EQ(client
                .post("/v1/jobs",
                      R"({"benchmark": "4mod5", "config": {"shots": 0}})")
                .status,
            400);
  // Unknown benchmark.
  EXPECT_EQ(client.post("/v1/jobs", R"({"benchmark": "nope"})").status, 400);
  // Integer fields that would truncate into a *different* valid config
  // (2^32 + 2 cast to int is 2) must be rejected, not narrowed.
  EXPECT_EQ(client
                .post("/v1/jobs", R"({"benchmark": "4mod5",
                                      "config": {"max_gates": 4294967298}})")
                .status,
            400);
  EXPECT_EQ(client
                .post("/v1/jobs", R"({"benchmark": "4mod5",
                                      "config": {"sample_jobs": 4294967296}})")
                .status,
            400);
  // An absurd shot count would pin a job worker on an uncancellable run.
  EXPECT_EQ(client
                .post("/v1/jobs", R"({"benchmark": "4mod5",
                                      "config": {"shots": 1000000000000}})")
                .status,
            400);
  // Measured qubit out of range.
  EXPECT_EQ(
      client.post("/v1/jobs", R"({"benchmark": "4mod5", "measured": [99]})")
          .status,
      400);
  // Non-object body.
  EXPECT_EQ(client.post("/v1/jobs", "[1,2]").status, 400);
  // Nothing was actually submitted.
  EXPECT_EQ(fx.service().jobs_submitted(), 0u);
}

TEST(NetServer, UnknownRoutesAndMethods) {
  ServerFixture fx;
  auto client = fx.client();
  EXPECT_EQ(client.get("/nope").status, 404);
  EXPECT_EQ(client.get("/v1/jobs/999").status, 404);
  EXPECT_EQ(client.get("/v1/jobs/abc").status, 404);
  EXPECT_EQ(client.del("/v1/jobs/7").status, 404);
  EXPECT_EQ(client.get("/v1/jobs").status, 405);
  EXPECT_EQ(client.del("/v1/status").status, 405);
  EXPECT_EQ(client.request("PATCH", "/v1/jobs/1").status, 405);
  auto doc = json::parse(client.get("/nope").body);
  EXPECT_EQ(doc.at("error").at("code").as_string(), "not_found");
}

TEST(NetServer, OversizedBodyIs413) {
  ServerConfig config;
  config.max_body_bytes = 512;
  ServerFixture fx(config);
  auto client = fx.client();
  auto res = client.post("/v1/jobs", std::string(1024, 'x'));
  EXPECT_EQ(res.status, 413);
  EXPECT_EQ(json::parse(res.body).at("error").at("code").as_string(),
            "payload_too_large");
}

TEST(NetServer, SlowRequestHits408Deadline) {
  // A peer that sends a partial head and then goes silent must be answered
  // 408 when the whole-request deadline expires — it cannot hold a
  // connection worker for the full (much longer) idle timeout.
  ServerConfig config;
  config.request_deadline_ms = 200;
  config.io_timeout_ms = 30000;
  ServerFixture fx(config);
  auto client = fx.client();
  const auto start = std::chrono::steady_clock::now();
  std::string wire = client.raw_exchange("GET /v1/status HTTP/1.1\r\n");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(wire.rfind("HTTP/1.1 408", 0), 0u) << wire;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

TEST(NetServer, RawProtocolGarbageGets400) {
  ServerFixture fx;
  auto client = fx.client();
  std::string wire = client.raw_exchange("THIS IS NOT HTTP\r\n\r\n");
  EXPECT_EQ(wire.rfind("HTTP/1.1 400", 0), 0u) << wire;
  // Chunked upload announcement is answered 411 before any body is read.
  wire = client.raw_exchange(
      "POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(wire.rfind("HTTP/1.1 411", 0), 0u) << wire;
}

// ----------------------------------------------------- protocol conformance

/// Splits a wire capture holding back-to-back HTTP/1.1 responses (each
/// framed by Content-Length) into (status, body) pairs, in arrival order.
std::vector<std::pair<int, std::string>> split_responses(
    const std::string& wire) {
  std::vector<std::pair<int, std::string>> out;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    std::size_t head_end = wire.find("\r\n\r\n", pos);
    if (head_end == std::string::npos) {
      ADD_FAILURE() << "truncated response head at byte " << pos;
      break;
    }
    auto head =
        http::parse_response_head(wire.substr(pos, head_end + 4 - pos));
    const std::string* length = head.header("content-length");
    if (length == nullptr) {
      ADD_FAILURE() << "response without Content-Length at byte " << pos;
      break;
    }
    std::size_t body_len = static_cast<std::size_t>(std::stoull(*length));
    std::size_t body_begin = head_end + 4;
    if (body_begin + body_len > wire.size()) {
      ADD_FAILURE() << "truncated response body at byte " << body_begin;
      break;
    }
    out.emplace_back(head.status, wire.substr(body_begin, body_len));
    pos = body_begin + body_len;
  }
  return out;
}

TEST(NetProtocol, KeepAliveServesManyRequestsOnOneConnection) {
  ServerFixture fx;
  auto client = fx.client();
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(client.get("/v1/status").status, 200);
  }
  // Both sides agree the whole burst cost exactly one socket.
  EXPECT_EQ(client.connections_opened(), 1u);
  const obs::Registry& telemetry = fx.server().telemetry();
  EXPECT_EQ(metric(telemetry, "tetris_http_connections_total"), 1u);
  EXPECT_EQ(metric(telemetry, "tetris_http_requests_total"),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(metric(telemetry, "tetris_http_keepalive_reuses_total"),
            static_cast<std::uint64_t>(kRequests - 1));

  // A keep-alive-disabled client pays one connection per request.
  Client oneshot("127.0.0.1", fx.server().port(), 30000,
                 /*keep_alive=*/false);
  EXPECT_EQ(oneshot.get("/v1/status").status, 200);
  EXPECT_EQ(oneshot.get("/v1/status").status, 200);
  EXPECT_EQ(oneshot.connections_opened(), 2u);
}

TEST(NetProtocol, PipelinedRequestsAnsweredInOrder) {
  ServerFixture fx;
  auto client = fx.client();
  // Three requests written back-to-back before reading anything; the last
  // asks for close so raw_exchange's read-until-EOF delimits the burst.
  std::string wire = client.raw_exchange(
      "GET /v1/status HTTP/1.1\r\n\r\n"
      "GET /v1/jobs/999 HTTP/1.1\r\n\r\n"
      "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
  auto responses = split_responses(wire);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].first, 200);
  EXPECT_NE(responses[0].second.find("tetrislock.status.v2"),
            std::string::npos);
  EXPECT_EQ(responses[1].first, 404);
  EXPECT_NE(responses[1].second.find("999"), std::string::npos);
  EXPECT_EQ(responses[2].first, 404);
  // One socket, three requests, two of them keep-alive reuses.
  const obs::Registry& telemetry = fx.server().telemetry();
  EXPECT_EQ(metric(telemetry, "tetris_http_connections_total"), 1u);
  EXPECT_EQ(metric(telemetry, "tetris_http_requests_total"), 3u);
  EXPECT_EQ(metric(telemetry, "tetris_http_keepalive_reuses_total"), 2u);
}

TEST(NetProtocol, ConnectionCloseRequestIsHonored) {
  ServerFixture fx;
  auto client = fx.client();
  // raw_exchange returns only because the server actually closed; a second
  // pipelined request after "Connection: close" must never be answered.
  std::string wire = client.raw_exchange(
      "GET /v1/status HTTP/1.1\r\nConnection: close\r\n\r\n"
      "GET /v1/status HTTP/1.1\r\n\r\n");
  auto responses = split_responses(wire);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, 200);
  auto head = http::parse_response_head(
      wire.substr(0, wire.find("\r\n\r\n") + 4));
  ASSERT_NE(head.header("connection"), nullptr);
  EXPECT_EQ(*head.header("connection"), "close");
}

TEST(NetProtocol, MaxRequestsPerConnectionClosesAtTheCap) {
  ServerConfig config;
  config.max_requests_per_connection = 3;
  ServerFixture fx(config);
  auto client = fx.client();
  // The blocking client reconnects transparently when the server closes at
  // the cap, so 7 requests over a cap of 3 cost ceil(7/3) = 3 sockets.
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(client.get("/v1/status").status, 200);
  }
  EXPECT_EQ(client.connections_opened(), 3u);
  EXPECT_EQ(metric(fx.server().telemetry(), "tetris_http_requests_total"),
            7u);
}

TEST(NetProtocol, ProtocolErrorsCloseCleanlyMidStream) {
  ServerConfig config;
  config.max_header_bytes = 1024;
  config.max_body_bytes = 512;
  ServerFixture fx(config);
  auto client = fx.client();

  // Each offending request is followed by a pipelined well-formed one; the
  // server must answer the error, close, and never touch the follow-up.
  const std::string follow_up = "GET /v1/status HTTP/1.1\r\n\r\n";

  // 413: announced body over the cap (no body bytes ever sent).
  std::string wire = client.raw_exchange(
      "POST /v1/jobs HTTP/1.1\r\nContent-Length: 4096\r\n\r\n" + follow_up);
  auto responses = split_responses(wire);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, 413);
  EXPECT_EQ(json::parse(responses[0].second).at("error").at("code")
                .as_string(),
            "payload_too_large");

  // 431: header block over the cap.
  wire = client.raw_exchange("GET /v1/status HTTP/1.1\r\nX-Pad: " +
                             std::string(2048, 'x') + "\r\n\r\n" + follow_up);
  responses = split_responses(wire);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, 431);

  // 411: chunked upload announcement, rejected before any body is read.
  wire = client.raw_exchange(
      "POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\n" +
      follow_up);
  responses = split_responses(wire);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, 411);

  // Every error response said close and meant it; the server is still
  // perfectly healthy for the next connection.
  EXPECT_EQ(client.get("/v1/status").status, 200);
}

TEST(NetProtocol, SlowLorisEvictedWithoutStallingOthers) {
  ServerConfig config;
  config.request_deadline_ms = 400;
  config.io_timeout_ms = 30000;
  ServerFixture fx(config);

  // A peer dribbling its request one byte at a time, far slower than the
  // request deadline allows.
  Socket loris = Socket::connect("127.0.0.1", fx.server().port(), 5000);
  loris.set_timeout_ms(5000);
  const std::string head = "GET /v1/status HTTP/1.1\r\nX-Slow: yes\r\n";
  bool evicted = false;
  auto client = fx.client();
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  while (std::chrono::steady_clock::now() - start <
         std::chrono::seconds(10)) {
    try {
      loris.send_all(&head[sent % head.size()], 1);
      ++sent;
    } catch (const Error&) {
      evicted = true;  // server reset the connection after the 408
      break;
    }
    // The stalled connection must not delay anyone else: interleaved
    // requests on a healthy connection keep answering promptly.
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(client.get("/v1/status").status, 200);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              2000);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  if (!evicted) {
    // The kernel may buffer dribbled bytes without erroring; the 408 the
    // server wrote before closing is still observable on the socket.
    char buffer[512];
    try {
      std::size_t n = loris.recv_some(buffer, sizeof(buffer));
      evicted = n == 0 ||
                std::string(buffer, n).rfind("HTTP/1.1 408", 0) == 0;
    } catch (const Error&) {
      evicted = true;
    }
  }
  EXPECT_TRUE(evicted);
  EXPECT_GE(
      metric(fx.server().telemetry(), "tetris_http_idle_evictions_total"),
      1u);
}

TEST(NetProtocol, IdleKeepAliveConnectionIsEvicted) {
  ServerConfig config;
  config.io_timeout_ms = 200;
  ServerFixture fx(config);
  auto client = fx.client();
  EXPECT_EQ(client.get("/v1/status").status, 200);
  EXPECT_EQ(client.connections_opened(), 1u);

  // Wait out the idle timeout with no request in flight: the server drops
  // the connection silently (no response owed on an idle keep-alive conn).
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  EXPECT_GE(
      metric(fx.server().telemetry(), "tetris_http_idle_evictions_total"),
      1u);

  // The client notices the stale connection and transparently reconnects.
  EXPECT_EQ(client.get("/v1/status").status, 200);
  EXPECT_EQ(client.connections_opened(), 2u);
}

// ------------------------------------------------------ consistent hashing

TEST(HashRing, DistributionAcrossNodeCounts) {
  constexpr int kKeys = 8192;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}}) {
    HashRing ring(n);
    ASSERT_EQ(ring.num_nodes(), n);
    std::vector<int> counts(n, 0);
    for (int i = 0; i < kKeys; ++i) {
      std::uint64_t key = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull;
      std::size_t node = ring.node_for(key);
      ASSERT_LT(node, n);
      ++counts[node];
    }
    // 64 virtual points per node keep the spread within a factor of ~2 of
    // fair share; pin a generous 3x envelope so the test survives point
    // placement while still catching a broken ring (one node taking all).
    const int fair = kKeys / static_cast<int>(n);
    for (std::size_t node = 0; node < n; ++node) {
      EXPECT_GT(counts[node], fair / 3) << n << " nodes, node " << node;
      EXPECT_LT(counts[node], fair * 3) << n << " nodes, node " << node;
    }
  }
}

TEST(HashRing, AssignmentsAreDeterministicAndConsistent) {
  HashRing a(4), b(4);
  HashRing wide(8);
  int moved = 0;
  constexpr int kKeys = 8192;
  for (int i = 0; i < kKeys; ++i) {
    std::uint64_t key = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull;
    // Same parameters, same answer — the property cache affinity rides on.
    ASSERT_EQ(a.node_for(key), b.node_for(key));
    // The consistent-hash contract: growing 4 -> 8 nodes either keeps a key
    // where it was or moves it to one of the NEW nodes — never reshuffles
    // it between survivors.
    std::size_t before = a.node_for(key);
    std::size_t after = wide.node_for(key);
    if (after != before) {
      EXPECT_GE(after, std::size_t{4}) << "key reshuffled between survivors";
      ++moved;
    }
  }
  // Doubling the fleet should move roughly half the keyspace.
  EXPECT_GT(moved, kKeys / 5);
  EXPECT_LT(moved, kKeys * 4 / 5);

  HashRing single(1);
  for (std::uint64_t key : {0ull, 1ull, ~0ull}) {
    EXPECT_EQ(single.node_for(key), 0u);
  }
}

// -------------------------------------------------------------- dispatcher

/// N in-process serve nodes (each its own Service + Server) fronted by a
/// Dispatcher — the whole multi-node topology on loopback.
class DispatchFixture {
 public:
  explicit DispatchFixture(
      std::size_t num_nodes,
      service::ServiceConfig service_config = fixture_service_config(2)) {
    for (std::size_t i = 0; i < num_nodes; ++i) {
      services_.push_back(std::make_unique<service::Service>(service_config));
      servers_.push_back(std::make_unique<Server>(*services_.back()));
      servers_.back()->start();
    }
    DispatcherConfig config;
    config.port = 0;
    config.handler_threads = 4;
    config.upstream_timeout_ms = 5000;
    for (const auto& server : servers_) {
      config.nodes.push_back(server->base_url());
    }
    dispatcher_ = std::make_unique<Dispatcher>(config);
    dispatcher_->start();
  }

  ~DispatchFixture() {
    dispatcher_->stop();
    for (auto& server : servers_) server->stop();
  }

  Client client() { return Client("127.0.0.1", dispatcher_->port()); }
  Dispatcher& dispatcher() { return *dispatcher_; }
  Server& server(std::size_t i) { return *servers_[i]; }

 private:
  std::vector<std::unique_ptr<service::Service>> services_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::unique_ptr<Dispatcher> dispatcher_;
};

/// Small circuits that shard across nodes (distinct content hashes).
const std::vector<std::string>& shard_benchmarks() {
  static const std::vector<std::string> names = {
      "4mod5", "4gt11", "4gt13", "1bit_adder", "mini_alu", "rd53"};
  return names;
}

TEST(NetDispatch, ShardedSubmitProxiesByteIdenticalResults) {
  DispatchFixture fx(3);
  auto client = fx.client();

  // One job through the dispatcher: routed to its ring node, polled through
  // the dispatcher id, result document byte-identical to the same job run
  // through the in-process facade (the node-local id of the only job on its
  // node is 1, matching a fresh facade's first submission).
  auto posted = client.post("/v1/jobs", submit_body("4mod5"));
  ASSERT_EQ(posted.status, 202) << posted.body;
  auto accepted = json::parse(posted.body);
  const std::uint64_t id =
      static_cast<std::uint64_t>(accepted.at("id").as_int());
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(accepted.at("url").as_string(), "/v1/jobs/1");
  ASSERT_EQ(poll_until_terminal(client, id), "done");

  auto res = client.get("/v1/jobs/" + std::to_string(id) + "?timing=0");
  ASSERT_EQ(res.status, 200);
  service::Service svc(fixture_service_config(2));
  auto outcome = svc.submit(facade_job("4mod5"), 2025).wait();
  ASSERT_EQ(outcome.state, service::JobState::kDone);
  EXPECT_EQ(res.body, service::to_json(outcome, /*include_timing=*/false));

  // The artifact proxies byte-identically too.
  auto artifact = client.get("/v1/jobs/" + std::to_string(id) + "/artifact");
  ASSERT_EQ(artifact.status, 200);
  EXPECT_EQ(artifact.body, svc.artifact_bytes(svc.handle(1)));

  // Exactly one node owns the job.
  EXPECT_EQ(metric(fx.dispatcher().telemetry(),
                   "tetris_dispatch_jobs_routed_total"),
            1u);
}

TEST(NetDispatch, ValidationErrorsComeFromTheOwningNode) {
  DispatchFixture fx(2);
  auto client = fx.client();
  // Malformed bodies still route deterministically (FNV of the raw text)
  // and the owning node's canonical error passes through verbatim.
  auto res = client.post("/v1/jobs", "{not json");
  EXPECT_EQ(res.status, 400);
  EXPECT_EQ(json::parse(res.body).at("error").at("code").as_string(),
            "parse_error");
  res = client.post("/v1/jobs", R"({"benchmark": "nope"})");
  EXPECT_EQ(res.status, 400);
  // Unknown dispatcher ids and routes mirror the node surface.
  EXPECT_EQ(client.get("/v1/jobs/99").status, 404);
  EXPECT_EQ(client.get("/nope").status, 404);
  EXPECT_EQ(client.get("/v1/jobs").status, 405);
}

TEST(NetDispatch, NodeFailureYields502AndSurvivorsComplete) {
  DispatchFixture fx(3);
  auto client = fx.client();

  // Shard a batch across the ring and remember who owns what.
  std::map<std::uint64_t, std::string> benchmark_of;
  for (const std::string& name : shard_benchmarks()) {
    auto posted = client.post("/v1/jobs", submit_body(name, 2025, 32));
    ASSERT_EQ(posted.status, 202) << posted.body;
    benchmark_of.emplace(static_cast<std::uint64_t>(
                             json::parse(posted.body).at("id").as_int()),
                         name);
  }
  for (const auto& [id, name] : benchmark_of) {
    ASSERT_EQ(poll_until_terminal(client, id), "done") << name;
  }

  // Kill the busiest node mid-run.
  const auto& urls = fx.dispatcher().config().nodes;
  ASSERT_EQ(urls.size(), 3u);
  std::vector<std::uint64_t> before;
  for (const std::string& url : urls) {
    before.push_back(metric(fx.dispatcher().telemetry(),
                            "tetris_dispatch_jobs_routed_total",
                            {{"node", url}}));
  }
  std::size_t victim = 0;
  for (std::size_t i = 1; i < before.size(); ++i) {
    if (before[i] > before[victim]) victim = i;
  }
  ASSERT_GT(before[victim], 0u);
  fx.server(victim).stop();

  // The dead node's jobs answer a structured 502; every other job still
  // answers 200 from its surviving owner.
  std::uint64_t failed = 0, served = 0;
  std::string victim_benchmark;
  for (const auto& [id, name] : benchmark_of) {
    auto res = client.get("/v1/jobs/" + std::to_string(id) + "?timing=0");
    if (res.status == 502) {
      EXPECT_EQ(json::parse(res.body).at("error").at("code").as_string(),
                "upstream_unavailable");
      victim_benchmark = name;
      ++failed;
    } else {
      EXPECT_EQ(res.status, 200);
      EXPECT_EQ(json::parse(res.body).at("state").as_string(), "done");
      ++served;
    }
  }
  EXPECT_EQ(failed, before[victim]);
  EXPECT_EQ(served, benchmark_of.size() - failed);
  ASSERT_FALSE(victim_benchmark.empty());

  // Affinity means resubmitting a dead node's benchmark routes straight
  // back to it — and fails fast with the same structured 502.
  auto resubmit =
      client.post("/v1/jobs", submit_body(victim_benchmark, 2025, 32));
  EXPECT_EQ(resubmit.status, 502);
  EXPECT_EQ(json::parse(resubmit.body).at("error").at("code").as_string(),
            "upstream_unavailable");

  // Status aggregation marks the node unreachable without throwing.
  auto status = client.get("/v1/status");
  ASSERT_EQ(status.status, 200);
  auto doc = json::parse(status.body);
  EXPECT_EQ(doc.at("schema").as_string(), "tetrislock.dispatch_status.v2");
  const auto& nodes = doc.at("nodes");
  ASSERT_EQ(nodes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& node = nodes.as_array()[i];
    const bool alive = i != victim;
    EXPECT_EQ(node.at("reachable").as_bool(), alive);
    EXPECT_EQ(status_metric(doc, "tetris_dispatch_node_up",
                            {{"node", urls[i]}}),
              alive ? 1 : 0);
    if (!alive) {
      EXPECT_NE(node.find("error"), nullptr);
      EXPECT_EQ(node.find("status"), nullptr);
    } else {
      EXPECT_EQ(node.at("status").at("schema").as_string(),
                "tetrislock.status.v2");
    }
  }
  // The failed resubmit never counted as routed.
  EXPECT_EQ(status_metric(doc, "tetris_dispatch_jobs_routed_total"),
            static_cast<std::int64_t>(benchmark_of.size()));
}

TEST(NetDispatch, ConsistentHashAffinityKeepsNodeCachesHot) {
  service::ServiceConfig scfg = fixture_service_config(2);
  scfg.cache_capacity = 32;
  DispatchFixture fx(3, scfg);
  auto client = fx.client();

  auto submit_all = [&]() {
    std::vector<std::uint64_t> ids;
    for (const std::string& name : shard_benchmarks()) {
      auto posted = client.post("/v1/jobs", submit_body(name, 2025, 32));
      EXPECT_EQ(posted.status, 202) << posted.body;
      ids.push_back(static_cast<std::uint64_t>(
          json::parse(posted.body).at("id").as_int()));
    }
    for (std::uint64_t id : ids) {
      EXPECT_EQ(poll_until_terminal(client, id), "done");
    }
    return ids;
  };
  auto cache_counters = [&](const char* family) {
    std::vector<std::int64_t> out;
    auto doc = json::parse(client.get("/v1/status").body);
    for (std::size_t i = 0; i < doc.at("nodes").size(); ++i) {
      out.push_back(
          status_metric(doc.at("nodes").as_array()[i].at("status"), family));
    }
    return out;
  };
  auto routed = [&fx]() {
    std::vector<std::uint64_t> out;
    for (const std::string& url : fx.dispatcher().config().nodes) {
      out.push_back(metric(fx.dispatcher().telemetry(),
                           "tetris_dispatch_jobs_routed_total",
                           {{"node", url}}));
    }
    return out;
  };

  // Pass 1: all cold — every job is a per-node cache miss.
  submit_all();
  auto misses_after_first = cache_counters("tetris_cache_misses_total");
  auto hits_after_first = cache_counters("tetris_cache_hits_total");
  std::int64_t total_misses = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    total_misses += misses_after_first[i];
    EXPECT_EQ(hits_after_first[i], 0) << "node " << i;
  }
  EXPECT_EQ(total_misses,
            static_cast<std::int64_t>(shard_benchmarks().size()));
  auto routed_after_first = routed();

  // Pass 2: identical submissions ride the ring back to the same nodes, so
  // each node's second-pass hits equal its first-pass misses.
  auto second_ids = submit_all();
  auto misses_after_second = cache_counters("tetris_cache_misses_total");
  auto hits_after_second = cache_counters("tetris_cache_hits_total");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(hits_after_second[i], misses_after_first[i]) << "node " << i;
    EXPECT_EQ(misses_after_second[i], misses_after_first[i]) << "node " << i;
  }
  // And every second-pass outcome says so explicitly.
  for (std::uint64_t id : second_ids) {
    auto doc = json::parse(
        client.get("/v1/jobs/" + std::to_string(id) + "?timing=0").body);
    EXPECT_TRUE(doc.at("cache_hit").as_bool()) << "job " << id;
  }
  // Routing doubled per node, exactly.
  auto routed_after_second = routed();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(routed_after_second[i], 2 * routed_after_first[i])
        << "node " << i;
  }
}

}  // namespace
}  // namespace tetris::net

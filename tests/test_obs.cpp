// Telemetry tests (src/obs/ + its service/net integration): instrument
// registry semantics, Prometheus text-format grammar of GET /metrics, stage
// tracing via GET /v1/jobs/{id}/trace, and — the contract the subsystem is
// built around — that turning telemetry and tracing on changes no job
// output byte.

#include "obs/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "lock/pipeline.h"
#include "net/http.h"
#include "net/server.h"
#include "obs/trace.h"
#include "revlib/benchmarks.h"
#include "service/serialize.h"
#include "service/service.h"

namespace tetris::obs {
namespace {

// ------------------------------------------------------------ instruments

TEST(ObsRegistry, CounterAndGaugeRoundTrip) {
  Registry reg;
  Counter& hits = reg.counter("hits_total", "Hits.", {{"tier", "memory"}});
  hits.inc();
  hits.inc(4);
  // Same (name, labels) resolves to the same instrument.
  EXPECT_EQ(&reg.counter("hits_total", "Hits.", {{"tier", "memory"}}), &hits);
  EXPECT_EQ(hits.value(), 5u);

  Gauge& depth = reg.gauge("queue_depth", "Depth.");
  depth.set(3.0);
  depth.add(-1.0);
  EXPECT_DOUBLE_EQ(depth.value(), 2.0);

  auto families = reg.collect();
  ASSERT_EQ(families.size(), 2u);
  EXPECT_EQ(families[0].name, "hits_total");
  EXPECT_EQ(families[0].kind, Kind::kCounter);
  ASSERT_EQ(families[0].samples.size(), 1u);
  EXPECT_DOUBLE_EQ(families[0].samples[0].value, 5.0);
  EXPECT_EQ(families[1].name, "queue_depth");
  EXPECT_DOUBLE_EQ(families[1].samples[0].value, 2.0);
}

TEST(ObsRegistry, DistinctLabelSetsAreDistinctSeries) {
  Registry reg;
  Counter& a = reg.counter("req_total", "Requests.", {{"route", "/a"}});
  Counter& b = reg.counter("req_total", "Requests.", {{"route", "/b"}});
  EXPECT_NE(&a, &b);
  a.inc(2);
  b.inc(7);
  auto families = reg.collect();
  ASSERT_EQ(families.size(), 1u);
  ASSERT_EQ(families[0].samples.size(), 2u);
  EXPECT_DOUBLE_EQ(families[0].samples[0].value, 2.0);
  EXPECT_DOUBLE_EQ(families[0].samples[1].value, 7.0);
}

TEST(ObsRegistry, KindMismatchOnOneNameThrows) {
  Registry reg;
  reg.counter("x_total", "X.");
  EXPECT_THROW(reg.gauge("x_total", "X."), tetris::Error);
}

TEST(ObsRegistry, HistogramBucketsFollowLeSemantics) {
  Registry reg;
  Histogram& h =
      reg.histogram("lat_seconds", "Latency.", {0.01, 0.1, 1.0});
  h.observe(0.01);  // on a bound: le="0.01" includes it
  h.observe(0.05);
  h.observe(0.5);
  h.observe(99.0);  // overflow -> +Inf only

  const auto counts = h.bucket_counts();  // non-cumulative, +Inf last
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 99.56, 1e-9);

  auto families = reg.collect();
  ASSERT_EQ(families[0].histograms.size(), 1u);
  const HistogramSample& s = families[0].histograms[0];
  ASSERT_EQ(s.cumulative.size(), 3u);
  EXPECT_EQ(s.cumulative[0], 1u);  // cumulative in the snapshot
  EXPECT_EQ(s.cumulative[1], 2u);
  EXPECT_EQ(s.cumulative[2], 3u);
  EXPECT_EQ(s.count, 4u);
}

TEST(ObsRegistry, RejectsUnsortedBounds) {
  Registry reg;
  EXPECT_THROW(reg.histogram("h", "H.", {1.0, 0.5}), tetris::Error);
  EXPECT_THROW(reg.histogram("h2", "H.", {1.0, 1.0}), tetris::Error);
}

TEST(ObsRegistry, CollectorFamiliesAppendAfterInstruments) {
  Registry reg;
  reg.counter("a_total", "A.").inc();
  reg.add_collector([](std::vector<Family>& out) {
    Family f;
    f.name = "external_gauge";
    f.kind = Kind::kGauge;
    f.samples.push_back(Sample{{}, 42.0});
    out.push_back(std::move(f));
  });
  auto families = reg.collect();
  ASSERT_EQ(families.size(), 2u);
  EXPECT_EQ(families[1].name, "external_gauge");
  EXPECT_DOUBLE_EQ(families[1].samples[0].value, 42.0);
}

TEST(ObsRegistry, ConcurrentObservesNeverBreakHistogramInvariant) {
  Registry reg;
  Histogram& h = reg.histogram("h_seconds", "H.", {0.5});
  std::thread writer([&h] {
    for (int i = 0; i < 20000; ++i) h.observe(i % 2 == 0 ? 0.1 : 0.9);
  });
  // Scrape while the writer runs: +Inf (== count in the rendered form) must
  // never fall below the last cumulative bucket.
  for (int i = 0; i < 50; ++i) {
    auto families = reg.collect();
    const HistogramSample& s = families[0].histograms[0];
    EXPECT_GE(s.count, s.cumulative.back());
  }
  writer.join();
  auto families = reg.collect();
  EXPECT_EQ(families[0].histograms[0].count, 20000u);
}

// ------------------------------------------------------- exposition format

/// Minimal line-level parser for the subset of the text format our renderer
/// emits; returns per-line diagnostics (empty = grammar-clean).
std::vector<std::string> lint_prometheus(const std::string& body) {
  std::vector<std::string> errors;
  std::set<std::string> typed;       // families with a TYPE line seen
  std::set<std::string> closed;      // families whose block ended
  std::set<std::string> samples;     // full sample keys, duplicate check
  std::string current;
  // family -> labels-without-le -> le -> value, for histogram consistency.
  std::map<std::string, std::map<std::string, std::map<double, double>>> b;
  std::map<std::string, std::map<std::string, double>> counts;

  auto family_of = [](const std::string& name) {
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        return name.substr(0, name.size() - s.size());
      }
    }
    return name;
  };

  std::size_t pos = 0;
  int lineno = 0;
  while (pos < body.size()) {
    ++lineno;
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) {
      errors.push_back("missing trailing newline");
      eol = body.size();
    }
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    const std::string at = "line " + std::to_string(lineno) + ": ";
    if (line.empty()) {
      errors.push_back(at + "blank line");
      continue;
    }
    if (line[0] == '#') {
      std::string name;
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const std::size_t end = line.find(' ', 7);
        name = line.substr(7, end == std::string::npos ? std::string::npos
                                                       : end - 7);
        if (line.rfind("# TYPE ", 0) == 0) typed.insert(name);
      } else {
        errors.push_back(at + "malformed comment: " + line);
        continue;
      }
      if (closed.count(name) > 0) {
        errors.push_back(at + "family reopened: " + name);
      }
      if (!current.empty() && current != name) closed.insert(current);
      current = name;
      continue;
    }
    // Sample: name, optional {labels}, space, value.
    std::size_t i = 0;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_' || line[i] == ':')) {
      ++i;
    }
    if (i == 0 || (std::isdigit(static_cast<unsigned char>(line[0])) != 0)) {
      errors.push_back(at + "bad metric name: " + line);
      continue;
    }
    const std::string name = line.substr(0, i);
    std::string labels;
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.rfind('}');
      if (close == std::string::npos || close < i) {
        errors.push_back(at + "unterminated label block");
        continue;
      }
      labels = line.substr(i + 1, close - i - 1);
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      errors.push_back(at + "missing value separator: " + line);
      continue;
    }
    const std::string value_text = line.substr(i + 1);
    double value = 0.0;
    if (value_text == "+Inf") {
      value = std::numeric_limits<double>::infinity();
    } else {
      try {
        std::size_t used = 0;
        value = std::stod(value_text, &used);
        if (used != value_text.size()) throw std::invalid_argument("tail");
      } catch (const std::exception&) {
        errors.push_back(at + "bad value: '" + value_text + "'");
        continue;
      }
    }
    const std::string family = family_of(name);
    if (typed.count(family) == 0) {
      errors.push_back(at + "sample precedes TYPE: " + name);
    }
    if (!current.empty() && current != family) {
      closed.insert(current);
      if (closed.count(family) > 0) {
        errors.push_back(at + "family reopened: " + family);
      }
      current = family;
    }
    if (!samples.insert(name + "{" + labels + "}").second) {
      errors.push_back(at + "duplicate sample: " + line);
    }
    // Histogram bookkeeping: peel le="..." out of the label text.
    const std::string le_marker = "le=\"";
    if (name.size() > 7 &&
        name.compare(name.size() - 7, 7, "_bucket") == 0) {
      const std::size_t le = labels.rfind(le_marker);
      if (le == std::string::npos) {
        errors.push_back(at + "bucket without le label: " + line);
        continue;
      }
      const std::size_t le_end = labels.find('"', le + le_marker.size());
      const std::string le_text =
          labels.substr(le + le_marker.size(), le_end - le - le_marker.size());
      std::string rest = labels.substr(0, le);
      if (!rest.empty() && rest.back() == ',') rest.pop_back();
      const double le_value = le_text == "+Inf"
                                  ? std::numeric_limits<double>::infinity()
                                  : std::stod(le_text);
      b[family][rest][le_value] = value;
    } else if (name.size() > 6 &&
               name.compare(name.size() - 6, 6, "_count") == 0 &&
               b.count(family) > 0) {
      counts[family][labels] = value;
    }
  }

  for (const auto& family : b) {
    for (const auto& series : family.second) {
      double prev = 0.0;
      for (const auto& bucket : series.second) {  // map: ascending le
        if (bucket.second < prev) {
          errors.push_back(family.first + "{" + series.first +
                           "}: buckets not cumulative");
        }
        prev = bucket.second;
      }
      const auto inf =
          series.second.find(std::numeric_limits<double>::infinity());
      if (inf == series.second.end()) {
        errors.push_back(family.first + "{" + series.first +
                         "}: no +Inf bucket");
        continue;
      }
      const auto count_it = counts[family.first].find(series.first);
      if (count_it == counts[family.first].end()) {
        errors.push_back(family.first + "{" + series.first +
                         "}: missing _count");
      } else if (count_it->second != inf->second) {
        errors.push_back(family.first + "{" + series.first +
                         "}: +Inf != _count");
      }
    }
  }
  return errors;
}

TEST(ObsRender, EscapesLabelValues) {
  Registry reg;
  reg.counter("c_total", "C.", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string body = render_prometheus(reg.collect());
  EXPECT_NE(body.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos) << body;
  EXPECT_TRUE(lint_prometheus(body).empty());
}

TEST(ObsRender, MergesSameNameFamiliesIntoOneBlock) {
  Registry a;
  a.counter("shared_total", "S.", {{"src", "a"}}).inc();
  Registry other;
  other.counter("shared_total", "S.", {{"src", "b"}}).inc(2);
  auto families = a.collect();
  auto more = other.collect();
  families.insert(families.end(), more.begin(), more.end());
  const std::string body = render_prometheus(families);
  // One HELP/TYPE pair, both series under it, grammar-clean.
  EXPECT_EQ(body.find("# TYPE shared_total"),
            body.rfind("# TYPE shared_total"));
  EXPECT_NE(body.find("shared_total{src=\"a\"} 1"), std::string::npos);
  EXPECT_NE(body.find("shared_total{src=\"b\"} 2"), std::string::npos);
  const auto errors = lint_prometheus(body);
  EXPECT_TRUE(errors.empty()) << errors.front();
}

TEST(ObsRender, JsonMergesFamiliesLikeTheExposition) {
  Registry a;
  a.counter("shared_total", "S.", {{"src", "a"}}).inc();
  a.gauge("depth", "D.").set(2.5);
  a.histogram("d_seconds", "D.", {0.1}).observe(0.05);
  Registry other;
  other.counter("shared_total", "S.", {{"src", "b"}}).inc(2);
  auto families = a.collect();
  auto more = other.collect();
  families.insert(families.end(), more.begin(), more.end());

  json::Writer w(0);
  write_json(w, families);
  const json::Value doc = json::parse(w.str());
  ASSERT_EQ(doc.size(), 3u);
  const json::Value& shared = doc.at("shared_total");
  EXPECT_EQ(shared.at("kind").as_string(), "counter");
  ASSERT_EQ(shared.at("samples").size(), 2u);
  EXPECT_EQ(shared.at("samples").as_array()[0].at("labels").at("src")
                .as_string(),
            "a");
  EXPECT_EQ(shared.at("samples").as_array()[1].at("value").as_int(), 2);
  EXPECT_DOUBLE_EQ(
      doc.at("depth").at("samples").as_array()[0].at("value").as_number(),
      2.5);
  const json::Value& hist = doc.at("d_seconds").at("samples").as_array()[0];
  EXPECT_EQ(hist.at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), 0.05);
  EXPECT_EQ(hist.find("value"), nullptr);

  EXPECT_DOUBLE_EQ(sum_samples(families, "shared_total"), 3.0);
  EXPECT_DOUBLE_EQ(sum_samples(families, "shared_total", {{"src", "b"}}), 2.0);
  EXPECT_DOUBLE_EQ(sum_samples(families, "absent_total"), 0.0);
}

TEST(ObsRender, HistogramLinesAreCumulativeWithInfEqualCount) {
  Registry reg;
  Histogram& h = reg.histogram("d_seconds", "D.", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  const std::string body = render_prometheus(reg.collect());
  EXPECT_NE(body.find("d_seconds_bucket{le=\"0.1\"} 1\n"), std::string::npos)
      << body;
  EXPECT_NE(body.find("d_seconds_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(body.find("d_seconds_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(body.find("d_seconds_count 3\n"), std::string::npos);
  const auto errors = lint_prometheus(body);
  EXPECT_TRUE(errors.empty()) << errors.front();
}

// ----------------------------------------------------------------- tracing

TEST(ObsTrace, ScopedSpanRecordsSequentialSpansWithAttrs) {
  Trace trace;
  {
    ScopedSpan span(&trace, "first");
    span.attr("qubits", std::uint64_t{5}).attr("view", "obfuscated");
  }
  {
    ScopedSpan span(&trace, "second");
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  const Span& first = trace.spans()[0];
  EXPECT_EQ(first.name, "first");
  ASSERT_EQ(first.attrs.size(), 2u);
  EXPECT_EQ(first.attrs[0].first, "qubits");
  EXPECT_EQ(first.attrs[0].second, "5");
  EXPECT_EQ(first.attrs[1].second, "obfuscated");
  // Sequential scopes: the second span starts no earlier than the first
  // ends, and every duration fits inside the trace's elapsed window.
  const Span& second = trace.spans()[1];
  EXPECT_GE(second.start_seconds,
            first.start_seconds + first.duration_seconds - 1e-9);
  EXPECT_LE(first.duration_seconds + second.duration_seconds,
            trace.elapsed() + 1e-9);
}

TEST(ObsTrace, NullTraceDisablesRecordingCheaply) {
  ScopedSpan span(nullptr, "ignored");
  span.attr("k", "v");
  span.finish();  // no-op, no crash
}

TEST(ObsTrace, FinishIsIdempotent) {
  Trace trace;
  ScopedSpan span(&trace, "once");
  span.finish();
  span.finish();
  EXPECT_EQ(trace.spans().size(), 1u);
}

// ------------------------------------------------- service + net contract

const char* kExpectedStages[] = {"lock.obfuscate", "lock.split",
                                 "lock.recombine", "compile",
                                 "sim.reference",  "sim.sample"};

service::ServiceConfig obs_service_config() {
  service::ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.base_seed = 2025;
  cfg.cache_capacity = 4;
  return cfg;
}

lock::FlowJob obs_job(std::size_t shots = 64) {
  const auto& b = revlib::get_benchmark("4mod5");
  lock::FlowConfig cfg;
  cfg.shots = shots;
  return lock::make_flow_job(b.name, b.circuit, b.measured, cfg);
}

TEST(ObsService, TraceCoversPipelineAndStaysWithinJobSeconds) {
  service::Service svc(obs_service_config());
  const auto outcome = svc.submit(obs_job()).wait();
  ASSERT_EQ(outcome.state, service::JobState::kDone);
  ASSERT_FALSE(outcome.trace.empty());

  std::set<std::string> names;
  double stage_sum = 0.0;
  for (const Span& span : outcome.trace.spans()) {
    names.insert(span.name);
    EXPECT_GE(span.duration_seconds, 0.0);
    stage_sum += span.duration_seconds;
  }
  for (const char* stage : kExpectedStages) {
    EXPECT_EQ(names.count(stage), 1u) << "missing span " << stage;
  }
  // Spans run back-to-back inside the window Service measures as
  // JobOutcome::seconds, so their durations can never sum past it.
  EXPECT_LE(stage_sum, outcome.seconds + 1e-6);
}

/// The first span named `name` whose `view` attribute is `view`.
const Span* find_view_span(const Trace& trace, const std::string& name,
                           const std::string& view) {
  for (const Span& span : trace.spans()) {
    if (span.name != name) continue;
    for (const auto& [key, value] : span.attrs) {
      if (key == "view" && value == view) return &span;
    }
  }
  return nullptr;
}

TEST(ObsService, ObfuscatedCompileIsChargedToCompileNotSampling) {
  service::Service svc(obs_service_config());
  const auto outcome = svc.submit(obs_job()).wait();
  ASSERT_EQ(outcome.state, service::JobState::kDone);
  ASSERT_NE(find_view_span(outcome.trace, "compile", "baseline"), nullptr);
  const Span* compile =
      find_view_span(outcome.trace, "compile", "obfuscated");
  const Span* sample =
      find_view_span(outcome.trace, "sim.sample", "obfuscated");
  ASSERT_NE(compile, nullptr);
  ASSERT_NE(sample, nullptr);
  // The masked circuit's compile closes before its sampling opens.
  EXPECT_LE(compile->start_seconds + compile->duration_seconds,
            sample->start_seconds + 1e-9);
}

TEST(ObsService, CacheHitTraceSkipsPipelineStages) {
  service::Service svc(obs_service_config());
  (void)svc.submit(obs_job(), 7).wait();
  const auto hit = svc.submit(obs_job(), 7).wait();
  ASSERT_EQ(hit.state, service::JobState::kDone);
  std::set<std::string> names;
  for (const Span& span : hit.trace.spans()) names.insert(span.name);
  EXPECT_EQ(names.count("cache.lookup"), 1u);
  EXPECT_EQ(names.count("lock.obfuscate"), 0u);
}

TEST(ObsService, TracingLeavesJobDocumentBytesUntouched) {
  service::Service a(obs_service_config());
  service::Service other(obs_service_config());
  const auto first = a.submit(obs_job()).wait();
  const auto second = other.submit(obs_job()).wait();
  // Identical submissions produce byte-identical documents with timing off,
  // and the document never mentions the trace (it lives in its own
  // endpoint/serializer).
  const std::string doc = service::to_json(first, /*include_timing=*/false);
  EXPECT_EQ(doc, service::to_json(second, /*include_timing=*/false));
  EXPECT_EQ(doc.find("trace"), std::string::npos);
  EXPECT_EQ(doc.find("span"), std::string::npos);

  const std::string trace_doc = service::trace_to_json(first);
  const json::Value parsed = json::parse(trace_doc);
  EXPECT_EQ(parsed.at("schema").as_string(), "tetrislock.trace.v1");
  EXPECT_GE(parsed.at("spans").as_array().size(), 6u);
}

net::http::Request make_request(const std::string& method,
                                const std::string& target) {
  net::http::Request req;
  req.method = method;
  req.target = target;
  req.version = "HTTP/1.1";
  const std::size_t q = target.find('?');
  req.path = target.substr(0, q);
  if (q != std::string::npos) {
    // Only the timing=0 form is used here.
    req.query.emplace_back("timing", "0");
  }
  return req;
}

/// Server driven through handle() directly — no sockets, no event loop.
class RoutedServer {
 public:
  RoutedServer() : service_(obs_service_config()), server_(service_) {}

  net::http::Response get(const std::string& target) {
    return server_.handle(make_request("GET", target));
  }
  std::uint64_t submit() {
    json::Writer w(0);
    w.begin_object();
    w.key("benchmark").value("4mod5");
    w.key("seed").value(2025);
    w.key("config").begin_object();
    w.key("shots").value(64);
    w.end_object();
    w.end_object();
    auto req = make_request("POST", "/v1/jobs");
    req.body = w.str();
    auto res = server_.handle(req);
    EXPECT_EQ(res.status, 202);
    return static_cast<std::uint64_t>(json::parse(res.body).at("id").as_int());
  }
  std::string wait_terminal(std::uint64_t id) {
    for (int i = 0; i < 3000; ++i) {
      auto res = get("/v1/jobs/" + std::to_string(id));
      EXPECT_EQ(res.status, 200);
      const std::string state = json::parse(res.body).at("state").as_string();
      if (state == "done" || state == "failed" || state == "cancelled") {
        return state;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "job " << id << " never became terminal";
    return "timeout";
  }

 private:
  service::Service service_;
  net::Server server_;
};

TEST(ObsServer, MetricsEndpointIsGrammarCleanAndCoversSubsystems) {
  RoutedServer srv;
  const std::uint64_t id = srv.submit();
  ASSERT_EQ(srv.wait_terminal(id), "done");

  auto res = srv.get("/metrics");
  ASSERT_EQ(res.status, 200);
  EXPECT_EQ(res.content_type, "text/plain; version=0.0.4; charset=utf-8");
  const auto errors = lint_prometheus(res.body);
  EXPECT_TRUE(errors.empty()) << errors.front() << "\n" << res.body;

  // One family per instrumented subsystem must be present.
  for (const char* name :
       {"tetris_jobs_submitted_total", "tetris_jobs_terminal_total",
        "tetris_cache_hits_total", "tetris_pool_threads",
        "tetris_job_stage_seconds_bucket", "tetris_http_requests_total",
        "tetris_http_request_seconds_bucket"}) {
    EXPECT_NE(res.body.find(name), std::string::npos)
        << "missing family " << name;
  }
  // Stage histogram series exist for the pipeline stages.
  EXPECT_NE(res.body.find("stage=\"lock.obfuscate\""), std::string::npos);
  EXPECT_NE(res.body.find("stage=\"sim.sample\""), std::string::npos);
}

TEST(ObsServer, TraceEndpointGatesOnTerminalState) {
  RoutedServer srv;
  EXPECT_EQ(srv.get("/v1/jobs/999/trace").status, 404);
  const std::uint64_t id = srv.submit();
  ASSERT_EQ(srv.wait_terminal(id), "done");
  auto res = srv.get("/v1/jobs/" + std::to_string(id) + "/trace");
  ASSERT_EQ(res.status, 200);
  const json::Value doc = json::parse(res.body);
  EXPECT_EQ(doc.at("schema").as_string(), "tetrislock.trace.v1");
  EXPECT_EQ(doc.at("id").as_int(), static_cast<std::int64_t>(id));
  EXPECT_GE(doc.at("spans").as_array().size(), 6u);
}

/// The value of the `family` sample whose labels are exactly `labels`, read
/// from the "metrics" block of a v2 status document.
double status_sample(const json::Value& doc, const std::string& family,
                     const Labels& labels = {}) {
  const json::Value& samples =
      doc.at("metrics").at(family).at("samples");
  for (const json::Value& sample : samples.as_array()) {
    Labels found;
    for (const auto& [key, value] : sample.at("labels").as_object()) {
      found.emplace_back(key, value.as_string());
    }
    if (found == labels) return sample.at("value").as_number();
  }
  ADD_FAILURE() << "no " << family << " sample with those labels";
  return -1.0;
}

TEST(ObsServer, StatusReportsPoolRequestAndUptimeTelemetry) {
  RoutedServer srv;
  (void)srv.get("/v1/status");
  auto res = srv.get("/v1/status");
  ASSERT_EQ(res.status, 200);
  const json::Value doc = json::parse(res.body);
  EXPECT_EQ(doc.at("schema").as_string(), "tetrislock.status.v2");
  EXPECT_GT(doc.at("started_unix").as_int(), 0);
  EXPECT_GE(doc.at("uptime_seconds").as_number(), 0.0);
  // The first /v1/status GET above is already tallied by route and class.
  EXPECT_GE(status_sample(doc, "tetris_http_requests_total",
                          {{"route", "/v1/status"}, {"class", "2xx"}}),
            1.0);
  EXPECT_EQ(status_sample(doc, "tetris_pool_threads"), 2.0);
  EXPECT_GE(status_sample(doc, "tetris_pool_tasks_submitted_total"), 0.0);
  // Histograms carry count and sum instead of a value.
  const json::Value& latency =
      doc.at("metrics").at("tetris_http_request_seconds");
  EXPECT_EQ(latency.at("kind").as_string(), "histogram");
  EXPECT_NE(latency.at("samples").as_array()[0].find("count"), nullptr);
  EXPECT_NE(latency.at("samples").as_array()[0].find("sum"), nullptr);
}

TEST(ObsServer, TelemetryOffKeepsEndpointsAndFreezesHttpSeries) {
  service::Service service(obs_service_config());
  net::ServerConfig config;
  config.telemetry = false;
  net::Server server(service, config);
  (void)server.handle(make_request("GET", "/v1/status"));
  auto res = server.handle(make_request("GET", "/metrics"));
  ASSERT_EQ(res.status, 200);
  EXPECT_TRUE(lint_prometheus(res.body).empty());
  // The route counter exists but did not move.
  EXPECT_NE(
      res.body.find("tetris_http_requests_total{route=\"/v1/status\",class=\"2xx\"} 0"),
      std::string::npos)
      << res.body;
}

}  // namespace
}  // namespace tetris::obs

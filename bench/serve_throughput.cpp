// REST front-end throughput: requests/second against the embedded server
// (src/net/) over loopback, swept across concurrent-connection counts, plus
// one full submit->poll->result round trip that is byte-compared against
// the in-process facade (the determinism gate — the process exits non-zero
// if the wire result diverges).
//
//   bench_serve_throughput [--iterations N] [--threads C1,C2,...]
//                          [--shots N] [--seed N] [--out BENCH_serve.json]
//
// --iterations is the number of GET /v1/status requests PER connection
// thread (default 100); --threads lists the concurrent client counts
// (default 1,2,4,8). The sweep runs twice: once in one-shot mode (every
// request opens its own connection, "Connection: close" both ways — the
// pre-reactor baseline) and once over HTTP/1.1 keep-alive (one persistent
// connection per client thread). The ratio between the two at the highest
// connection count is the headline number the event-loop front-end buys.
//
// A second phase bounds the cost of the telemetry added by src/obs/: two
// servers over the same service — one with ServerConfig::telemetry on (the
// default), one with it off — are hit with interleaved keep-alive rounds
// and the median throughputs compared. The process exits non-zero if the
// instrumented server is more than 3% slower, but only when the phase ran
// enough requests (>= 2000 per mode) for the medians to mean anything —
// CI's small --iterations smoke stays informational.
//
// Checked-in BENCH_serve.json numbers come from a shared 4-core AVX2 host;
// regenerate on the hardware you care about.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/strings.h"
#include "net/client.h"
#include "net/server.h"
#include "revlib/benchmarks.h"
#include "service/serialize.h"
#include "service/service.h"

namespace {

using namespace tetris;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SweepPoint {
  std::string mode;  // "oneshot" | "keepalive"
  unsigned connections = 0;
  std::size_t requests = 0;
  std::size_t errors = 0;
  double seconds = 0.0;
  double requests_per_second = 0.0;
};

std::string submit_body(std::uint64_t seed, std::size_t shots) {
  json::Writer w(0);
  w.begin_object();
  w.key("benchmark").value("4mod5");
  w.key("seed").value(seed);
  w.key("config").begin_object().key("shots").value(shots).end_object();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Args args = benchutil::parse_args(argc, argv);
  if (!args.iterations_set) args.iterations = 100;  // bench-specific default
  std::vector<unsigned> connection_counts =
      args.threads.empty() ? std::vector<unsigned>{1, 2, 4, 8} : args.threads;

  unsigned max_connections = 1;
  for (unsigned c : connection_counts) max_connections = std::max(max_connections, c);

  service::ServiceConfig scfg;
  scfg.num_threads = 1;  // compute is not what this bench measures
  scfg.base_seed = args.seed;
  service::Service svc(scfg);

  net::ServerConfig ncfg;
  ncfg.port = 0;
  net::Server server(svc, ncfg);
  server.start();
  std::cout << "serving on " << server.base_url()
            << " (event loop, inline handlers)\n\n";

  // ------------------------------------------------- status-request sweep
  benchutil::Table table({"mode", "connections", "requests", "errors",
                          "seconds", "req/s"},
                         {10, 11, 9, 7, 9, 10});
  table.print_header();

  auto run_sweep_point = [&](unsigned connections, bool keep_alive) {
    SweepPoint point;
    point.mode = keep_alive ? "keepalive" : "oneshot";
    point.connections = connections;
    point.requests =
        static_cast<std::size_t>(args.iterations) * connections;
    std::vector<std::size_t> errors(connections, 0);
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    clients.reserve(connections);
    for (unsigned t = 0; t < connections; ++t) {
      clients.emplace_back([&, t] {
        net::Client client("127.0.0.1", server.port(), 30000, keep_alive);
        for (int i = 0; i < args.iterations; ++i) {
          try {
            if (client.get("/v1/status").status != 200) ++errors[t];
          } catch (const std::exception&) {
            ++errors[t];
          }
        }
      });
    }
    for (auto& c : clients) c.join();
    point.seconds = seconds_since(start);
    for (std::size_t e : errors) point.errors += e;
    point.requests_per_second =
        point.seconds > 0.0
            ? static_cast<double>(point.requests) / point.seconds
            : 0.0;
    table.print_row({point.mode, std::to_string(point.connections),
                     std::to_string(point.requests),
                     std::to_string(point.errors),
                     fmt_double(point.seconds, 3),
                     fmt_double(point.requests_per_second, 1)});
    return point;
  };

  std::vector<SweepPoint> sweep;
  for (bool keep_alive : {false, true}) {
    for (unsigned connections : connection_counts) {
      sweep.push_back(run_sweep_point(connections, keep_alive));
    }
  }

  // Keep-alive payoff at the widest point of the sweep: persistent
  // connections drop the per-request connect/close cost, which dominates
  // loopback status requests.
  double oneshot_peak = 0.0, keepalive_peak = 0.0;
  for (const SweepPoint& p : sweep) {
    if (p.connections != max_connections) continue;
    (p.mode == "keepalive" ? keepalive_peak : oneshot_peak) =
        p.requests_per_second;
  }
  const double speedup =
      oneshot_peak > 0.0 ? keepalive_peak / oneshot_peak : 0.0;
  std::cout << "\nkeep-alive speedup at " << max_connections
            << " connections: " << fmt_double(speedup, 2) << "x\n";

  // --------------------------------------------- telemetry overhead gate
  // A twin server with telemetry compiled out of the request path (no
  // per-route counters, no latency observation), same service behind it.
  net::ServerConfig off_cfg;
  off_cfg.port = 0;
  off_cfg.telemetry = false;
  net::Server server_off(svc, off_cfg);
  server_off.start();

  auto measure_rps = [&](int port) {
    std::vector<std::size_t> errors(max_connections, 0);
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    clients.reserve(max_connections);
    for (unsigned t = 0; t < max_connections; ++t) {
      clients.emplace_back([&, t] {
        net::Client client("127.0.0.1", port, 30000, /*keep_alive=*/true);
        for (int i = 0; i < args.iterations; ++i) {
          try {
            if (client.get("/v1/status").status != 200) ++errors[t];
          } catch (const std::exception&) {
            ++errors[t];
          }
        }
      });
    }
    for (auto& c : clients) c.join();
    const double elapsed = seconds_since(start);
    std::size_t failed = 0;
    for (std::size_t e : errors) failed += e;
    const double requests =
        static_cast<double>(args.iterations) * max_connections;
    return failed == 0 && elapsed > 0.0 ? requests / elapsed : 0.0;
  };

  // Interleaved rounds cancel machine drift (thermal, noisy neighbours);
  // medians shrug off one slow round.
  constexpr int kOverheadRounds = 5;
  std::vector<double> on_rps, off_rps;
  for (int round = 0; round < kOverheadRounds; ++round) {
    on_rps.push_back(measure_rps(server.port()));
    off_rps.push_back(measure_rps(server_off.port()));
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double on_median = median(on_rps);
  const double off_median = median(off_rps);
  const double overhead =
      off_median > 0.0 ? 1.0 - on_median / off_median : 0.0;
  const std::size_t overhead_requests =
      static_cast<std::size_t>(args.iterations) * max_connections *
      kOverheadRounds;
  const bool overhead_gated = overhead_requests >= 2000;
  const bool overhead_ok = !overhead_gated || overhead <= 0.03;
  server_off.stop();
  std::cout << "\ntelemetry on      : " << fmt_double(on_median, 1)
            << " req/s (median of " << kOverheadRounds << ")\n";
  std::cout << "telemetry off     : " << fmt_double(off_median, 1)
            << " req/s\n";
  std::cout << "overhead          : " << fmt_double(overhead * 100.0, 2)
            << "% ("
            << (overhead_gated ? (overhead_ok ? "within 3% budget"
                                              : "OVER 3% BUDGET")
                               : "informational, too few requests to gate")
            << ")\n";

  // ------------------------------------- submit round trip + determinism
  net::Client client("127.0.0.1", server.port());
  const auto submit_start = Clock::now();
  auto posted = client.post("/v1/jobs", submit_body(args.seed, args.shots));
  if (posted.status != 202) {
    std::cerr << "submit failed: HTTP " << posted.status << ": "
              << posted.body << "\n";
    return 1;
  }
  const std::string id =
      std::to_string(json::parse(posted.body).at("id").as_int());
  const auto poll_deadline = Clock::now() + std::chrono::seconds(120);
  std::string state;
  do {
    if (Clock::now() >= poll_deadline) {
      std::cerr << "submit round trip timed out (job still '" << state
                << "')\n";
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    state = json::parse(client.get("/v1/jobs/" + id).body)
                .at("state")
                .as_string();
  } while (state != "done" && state != "failed" && state != "cancelled");
  const double submit_seconds = seconds_since(submit_start);
  const std::string wire_result =
      client.get("/v1/jobs/" + id + "?timing=0").body;

  // The same job through the facade directly, for the byte-compare gate.
  const auto& b = revlib::get_benchmark("4mod5");
  lock::FlowConfig cfg;
  cfg.shots = args.shots;
  service::ServiceConfig ref_cfg;
  ref_cfg.num_threads = 1;
  ref_cfg.base_seed = args.seed;
  service::Service reference(ref_cfg);
  auto outcome =
      reference.submit(lock::make_flow_job(b.name, b.circuit, b.measured, cfg),
                       args.seed)
          .wait();
  const bool byte_identical =
      state == "done" &&
      wire_result == service::to_json(outcome, /*include_timing=*/false);

  std::cout << "\nsubmit round trip : " << fmt_double(submit_seconds, 3)
            << "s (" << state << ")\n";
  std::cout << "wire vs facade    : "
            << (byte_identical ? "byte-identical" : "MISMATCH") << "\n";

  server.stop();

  if (!args.out.empty()) {
    json::Writer w;
    w.begin_object();
    w.key("schema").value("tetrislock.bench_serve.v4");
    w.key("benchmark").value("serve_throughput");
    w.key("requests_per_connection").value(args.iterations);
    w.key("keepalive_speedup").begin_object();
    w.key("connections").value(max_connections);
    w.key("ratio").value(speedup);
    w.end_object();
    w.key("sweep").begin_array();
    for (const SweepPoint& p : sweep) {
      w.begin_object();
      w.key("mode").value(p.mode);
      w.key("connections").value(p.connections);
      w.key("requests").value(p.requests);
      w.key("errors").value(p.errors);
      w.key("seconds").value(p.seconds);
      w.key("requests_per_second").value(p.requests_per_second);
      w.end_object();
    }
    w.end_array();
    w.key("telemetry_overhead").begin_object();
    w.key("connections").value(max_connections);
    w.key("rounds").value(kOverheadRounds);
    w.key("requests_per_mode").value(overhead_requests);
    w.key("on_requests_per_second").value(on_median);
    w.key("off_requests_per_second").value(off_median);
    w.key("overhead_fraction").value(overhead);
    w.key("gate_applied").value(overhead_gated);
    w.end_object();
    w.key("submit_round_trip").begin_object();
    w.key("shots").value(args.shots);
    w.key("seconds").value(submit_seconds);
    w.key("state").value(state);
    w.key("byte_identical").value(byte_identical);
    w.end_object();
    w.end_object();
    std::ofstream out(args.out);
    out << w.str() << "\n";
    std::cout << "wrote " << args.out << "\n";
  }

  // Exit status doubles as the determinism + overhead gate (mirrors
  // bench_fusion).
  std::size_t total_errors = 0;
  for (const SweepPoint& p : sweep) total_errors += p.errors;
  return (byte_identical && total_errors == 0 && overhead_ok) ? 0 : 1;
}

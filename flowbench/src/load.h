#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lock/pipeline.h"
#include "service/service.h"
#include "spans.h"

namespace flowbench {

/// One flow as the client saw it.
struct FlowRecord {
  std::size_t job = 0;        ///< index into the workload's job list
  std::uint64_t seed = 0;
  std::uint64_t id = 0;       ///< job id the service or server assigned
  bool finished = false;      ///< a terminal state was observed in time
  bool done = false;          ///< ... and it was kDone
  bool cache_hit = false;
  std::string error;          ///< why it did not finish done
  bool refused = false;       ///< the submission itself was answered non-2xx
  bool timed_out = false;     ///< still not terminal at the benchmark's deadline
  double due = 0.0;           ///< seconds since load start it was submitted or due
  double latency = 0.0;       ///< due/submit -> result received
  double exec = 0.0;          ///< JobOutcome::seconds (service-side execution)
};

/// What one load phase measured.
struct LoadResult {
  std::vector<FlowRecord> flows;
  double elapsed_s = 0.0;     ///< load start -> last result received
  double cpu_s = 0.0;         ///< process CPU time over the same window
  double peak_rss_mb = 0.0;   ///< getrusage high-water mark after the window
  // Serve only.
  double late_max_s = 0.0;    ///< worst generator lateness against schedule
  std::size_t job_polls = 0;  ///< GET /v1/jobs/{id} requests sent
  std::size_t net_errors = 0; ///< transport errors and non-2xx answers
  // Traced runs only: Service::pool_stats() sampled through the window.
  double pool_busy_frac = 0.0;
  double pool_queued_mean = 0.0;
};

/// Closed loop: `clients` threads each keep one flow in flight on `service`,
/// submitting the next as soon as the previous result arrives, until
/// `seconds` have passed. Flow i runs job i mod jobs.size() with seed
/// Rng::stream_seed(seed, i).
LoadResult run_closed_loop(tetris::service::Service& service,
                           const std::vector<tetris::lock::FlowJob>& jobs,
                           unsigned clients, double seconds,
                           std::uint64_t seed, bool sample_pool);

/// One scheduled POST of the open loop.
struct Request {
  std::size_t job = 0;        ///< index into the workload's job list
  std::string benchmark;      ///< built-in benchmark name sent to the server
  std::uint64_t seed = 0;
  unsigned sample_jobs = 0;   ///< config.sample_jobs sent with the job
};

/// Open loop against a net::Server: one client thread POSTs `schedule[i]` at
/// start + i / rate whether or not earlier jobs finished, GETs every
/// outstanding job (backing off with its age) and scrapes /v1/status and
/// /metrics once per second, all over one connection. With `spans` set,
/// every HTTP round trip is recorded as a span of its request.
LoadResult run_open_loop(tetris::service::Service& service, int port,
                         const std::vector<Request>& schedule, double rate,
                         double result_timeout_s, SpanLog* spans,
                         Clock::time_point epoch);

/// Runs fn(i) for i in [0, count) from `clients` threads, each submitting
/// one task at a time to `pool` and waiting for it: the closed-loop shape of
/// the load phase, reused to replay and probe flows under the same
/// concurrency. The first exception is rethrown after all threads joined.
void for_each_closed(tetris::runtime::ThreadPool& pool, unsigned clients,
                     std::size_t count,
                     const std::function<void(std::size_t)>& fn);

}  // namespace flowbench

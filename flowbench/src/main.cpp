// flowbench: the TetrisLock flow benchmark.
//
//   flowbench --workload suite|wide|serve --seed N --seconds S --trace 0|1
//             [--trace-out DIR]
//
// Drives the stack from outside through its public APIs (service::Service,
// net::Server/Client, lock::*, compiler::Compiler, sim::*), checks every
// flow's output, and prints a human-readable report followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run also replays every
// flow stage by stage under spans and reports per-layer metrics instead.
// README.md in this directory explains the workloads and metrics.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_stats.h"
#include "common/json.h"
#include "common/rng.h"
#include "flow_replay.h"
#include "load.h"
#include "net/client.h"
#include "net/server.h"
#include "qir/library.h"
#include "reference.h"
#include "revlib/benchmarks.h"
#include "service/serialize.h"
#include "sim/kernels/simd.h"
#include "spans.h"

#ifndef FLOWBENCH_COMPILER
#define FLOWBENCH_COMPILER "unknown"
#endif
#ifndef FLOWBENCH_BUILD_TYPE
#define FLOWBENCH_BUILD_TYPE "unknown"
#endif

namespace fb = flowbench;
using namespace tetris;

namespace {

constexpr int kSetupRepeats = 5;         // setup_s is the median of these
constexpr double kServeRate = 30.0;      // POST /v1/jobs per second
constexpr std::size_t kServeBlock = 50;  // serve: 13 of every 50 requests
constexpr std::size_t kServeFresh = 13;  // ask for a new pair (74% repeats)
constexpr double kResultTimeoutS = 60.0; // serve: wait for stragglers
constexpr std::size_t kServeWarmPairs = 24;  // serve: cached before the load
constexpr double kServeRepeatAfterS = 3.0;   // serve: pair age before repeats
constexpr std::size_t kProbesPerJob = 8; // flows per circuit in the probe pass
constexpr int kAdderBits = 6;            // wide: 14-qubit Cuccaro adder
constexpr double kWindowS = 5.0;         // latency_p50_s: window length

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "flowbench: " << why << "\n"
            << "usage: flowbench --workload suite|wide|serve --seed N "
               "--seconds S --trace 0|1 [--trace-out DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.workload != "suite" && a.workload != "wide" && a.workload != "serve") {
    usage("unknown workload " + a.workload);
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// ------------------------------------------------------------ memcpy probe

/// Median of five memcpy passes over 32 MiB, counting read + write bytes.
double measure_stream_gbps() {
  const std::size_t bytes = std::size_t{32} << 20;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::vector<double> gbps;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = fb::Clock::now();
    std::memcpy(dst.data(), src.data(), bytes);
    const double s = fb::seconds_between(start, fb::Clock::now());
    if (s > 0.0) gbps.push_back(2.0 * static_cast<double>(bytes) / s / 1e9);
    std::swap(src, dst);
  }
  return fb::median(gbps);
}

/// Runs the memcpy probe in a forked child so its 64 MiB of buffers never
/// count toward this process's peak RSS. Called only while the process has
/// no other threads.
double stream_probe() {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("memcpy probe: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("memcpy probe: fork failed");
  if (pid == 0) {
    close(fds[0]);
    const double g = measure_stream_gbps();
    const bool ok = write(fds[1], &g, sizeof g) == static_cast<ssize_t>(sizeof g);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double g = 0.0;
  const ssize_t n = read(fds[0], &g, sizeof g);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof g) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("memcpy probe: child failed");
  }
  return g;
}

// ------------------------------------------------------------------ setup

struct Workload {
  std::vector<lock::FlowJob> jobs;
  std::vector<std::string> expected;   ///< per job, from expected_output
  std::vector<fb::Request> schedule;   ///< serve only
  std::vector<fb::Request> warm;       ///< serve only: computed before the load
  unsigned clients = 1;                ///< flows in flight (see set_up)
  double stream_gbps = 0.0;
  std::unique_ptr<service::Service> service;
  std::unique_ptr<net::Server> server;  // after service: stopped first
};

void teardown(Workload& w) {
  w.server.reset();
  w.service.reset();
}

/// Builds the jobs, runs the memcpy probe and starts the Service (and, for
/// serve, the Server): everything up to the first submit.
Workload set_up(const Args& a, unsigned nproc) {
  Workload w;
  if (a.workload == "wide") {
    lock::FlowConfig cfg;
    cfg.fusion = true;
    cfg.sample_threads = 0;
    w.jobs.push_back(lock::make_flow_job(
        "adder" + std::to_string(kAdderBits),
        qir::library::ripple_carry_adder(kAdderBits), {}, cfg));
  } else {
    for (const auto& b : revlib::table1_benchmarks()) {
      w.jobs.push_back(lock::make_flow_job(b.name, b.circuit, b.measured));
    }
    if (a.workload == "suite") {
      const auto& b = revlib::get_benchmark("cliff50");
      w.jobs.push_back(lock::make_flow_job(b.name, b.circuit, b.measured));
    }
  }
  // Flows in flight in the closed loops and in the traced replay. The serve
  // load computes its cache misses mostly one at a time (about eight a
  // second, a few tens of ms each), so its replay runs them one at a time too.
  w.clients = a.workload == "suite" ? nproc : 1;
  for (const auto& job : w.jobs) {
    w.expected.push_back(fb::expected_output(job.circuit, job.measured));
  }
  if (a.workload == "serve") {
    // Each job samples on nproc - 1 workers (config.sample_jobs). With the
    // default, nproc, one miss's sampler tasks fill the FIFO service pool and
    // every cache hit submitted meanwhile waits behind them; the median then
    // jumped between runs. On one worker a miss runs single-threaded, whose
    // speed on a shared host drifts far more than multi-core work does.
    const unsigned sample_jobs = std::max(1u, nproc - 1);
    for (auto& job : w.jobs) job.config.sample_threads = sample_jobs;
    // A stationary mix: in every block of kServeBlock requests, kServeFresh
    // at shuffled positions ask for a new (benchmark, seed) pair and the
    // rest repeat an earlier pair picked uniformly, so repeats hit the cache
    // at the same rate all run long. New pairs take their benchmark from
    // shuffled decks of Table I, so each benchmark is computed equally often.
    // A pair is repeated only once its first request is kServeRepeatAfterS
    // old, so a repeat never finds it still computing and every repeat is a
    // hit however fast the host is; kServeWarmPairs pairs are computed
    // before the load starts, so repeats have pairs to draw on from the
    // first request.
    Rng rng(a.seed);
    std::vector<std::size_t> deck;
    auto new_pair = [&] {
      if (deck.empty()) {
        for (std::size_t j = 0; j < w.jobs.size(); ++j) deck.push_back(j);
        rng.shuffle(deck);
      }
      fb::Request r;
      r.job = deck.back();
      deck.pop_back();
      r.benchmark = w.jobs[r.job].name;
      r.seed = rng.next_u64() >> 1;  // the REST API takes int64 seeds
      r.sample_jobs = sample_jobs;
      return r;
    };
    std::vector<fb::Request> pairs;
    std::vector<double> repeatable_from;  // per pair, nondecreasing
    for (std::size_t k = 0; k < kServeWarmPairs; ++k) {
      pairs.push_back(new_pair());
      repeatable_from.push_back(0.0);
    }
    w.warm = pairs;
    const auto n = static_cast<std::size_t>(kServeRate * a.seconds);
    std::vector<char> fresh(n, 0);
    for (std::size_t b = 0; b < n; b += kServeBlock) {
      std::vector<std::size_t> pos;
      for (std::size_t i = b; i < std::min(n, b + kServeBlock); ++i) pos.push_back(i);
      rng.shuffle(pos);
      const std::size_t fresh_here = (pos.size() * kServeFresh + kServeBlock / 2) / kServeBlock;
      for (std::size_t k = 0; k < fresh_here; ++k) fresh[pos[k]] = 1;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double due = static_cast<double>(i) / kServeRate;
      if (fresh[i]) {
        pairs.push_back(new_pair());
        repeatable_from.push_back(due + kServeRepeatAfterS);
        w.schedule.push_back(pairs.back());
      } else {
        const auto ready = static_cast<std::size_t>(
            std::upper_bound(repeatable_from.begin(), repeatable_from.end(), due) -
            repeatable_from.begin());
        w.schedule.push_back(pairs[rng.index(ready)]);
      }
    }
  }

  w.stream_gbps = stream_probe();

  service::ServiceConfig sc;
  sc.num_threads = nproc;
  sc.cache_capacity = a.workload == "serve" ? 4096 : 0;
  w.service = std::make_unique<service::Service>(sc);
  if (a.workload == "serve") {
    net::ServerConfig cfg;
    cfg.port = 0;
    w.server = std::make_unique<net::Server>(*w.service, cfg);
    w.server->start();
  }
  return w;
}

// ----------------------------------------------------------------- checks

/// One distinct (job, seed) pair the checks judge, and the flows it stands
/// for. In the closed loops every flow is its own item; on serve, repeats of
/// a pair share one.
struct Item {
  std::size_t job = 0;
  std::uint64_t seed = 0;
  std::size_t first = 0;            ///< representative flow (first done)
  std::vector<std::size_t> flows;   ///< every done flow of this pair
};

std::vector<Item> make_items(const std::vector<fb::FlowRecord>& flows) {
  std::vector<Item> items;
  std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> index;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const fb::FlowRecord& f = flows[i];
    if (!f.done) continue;
    auto [it, fresh] = index.try_emplace({f.job, f.seed}, items.size());
    if (fresh) items.push_back({f.job, f.seed, i, {}});
    items[it->second].flows.push_back(i);
  }
  return items;
}

/// Per-layer numbers of the traced replay and the probe pass.
struct Traced {
  std::vector<std::vector<fb::Span>> blocks;
  std::size_t replayed = 0;
  double replay_wall_s = 0.0;   ///< wall time of the whole replay phase
  double replay_flow_s = 0.0;   ///< summed per-flow replay time
  double service_exec_s = 0.0;  ///< summed JobOutcome::seconds, same flows
  std::vector<std::array<fb::ViewProbe, fb::kViews>> probes;
};

std::string outcome_bytes(const service::JobOutcome& o) {
  return service::to_json(o, /*include_timing=*/false);
}

/// Verdicts of the checks, one per item.
struct Verdicts {
  std::vector<std::string> fail;  ///< failure reason; empty = passed
  std::vector<char> masked;       ///< FlowCheck::masked
};

/// Runs every output and determinism check and, when tracing, the traced
/// replay and the probe pass.
Verdicts check_and_trace(const Args& a, unsigned nproc, Workload& w,
                         const std::vector<fb::FlowRecord>& flows,
                         const std::vector<Item>& items, Traced* traced) {
  Verdicts v{std::vector<std::string>(items.size()), std::vector<char>(items.size(), 0)};
  std::vector<std::string>& fail = v.fail;
  std::vector<char>& masked = v.masked;
  runtime::ThreadPool pool(nproc);
  const bool serve = a.workload == "serve";

  // On serve the judged result is an in-process Service's, after the wire
  // document of the same (benchmark, seed) has been compared with it.
  std::unique_ptr<service::Service> ref;
  std::vector<service::JobHandle> ref_handles;
  if (serve) {
    service::ServiceConfig sc;
    sc.num_threads = nproc;
    ref = std::make_unique<service::Service>(sc);
    for (const Item& it : items) ref_handles.push_back(ref->submit(w.jobs[it.job], it.seed));
    net::Client client("127.0.0.1", w.server->port());
    for (std::size_t k = 0; k < items.size(); ++k) {
      const fb::FlowRecord& f = flows[items[k].first];
      service::JobOutcome o = ref_handles[k].wait();
      o.id = f.id;
      o.cache_hit = f.cache_hit;
      const net::http::Response res =
          client.get("/v1/jobs/" + std::to_string(f.id) + "?timing=0");
      if (res.status != 200 || res.body != outcome_bytes(o)) {
        fail[k] = "determinism: GET ?timing=0 differs from the in-process result";
      }
    }
  }
  auto outcome_of = [&](std::size_t k) {
    if (serve) return ref_handles[k].wait();
    return w.service->outcome(w.service->handle(flows[items[k].first].id));
  };

  if (traced == nullptr) {
    fb::for_each_closed(pool, nproc, items.size(), [&](std::size_t k) {
      if (!fail[k].empty()) return;
      const Item& it = items[k];
      const service::JobOutcome o = outcome_of(k);
      const sim::Counts restored = fb::restored_counts(w.jobs[it.job], it.seed, o.result);
      const fb::FlowCheck c = fb::check_flow(w.jobs[it.job], o.result, restored, w.expected[it.job]);
      fail[k] = c.failure;
      masked[k] = c.masked;
    });
    if (!serve) {
      // Determinism: re-run one flow per circuit on a fresh Service.
      service::ServiceConfig sc;
      sc.num_threads = nproc;
      service::Service again(sc);
      std::vector<bool> seen(w.jobs.size(), false);
      for (std::size_t k = 0; k < items.size(); ++k) {
        if (seen[items[k].job]) continue;
        seen[items[k].job] = true;
        const service::JobOutcome first = outcome_of(k);
        service::JobOutcome second = again.submit(w.jobs[items[k].job], items[k].seed).wait();
        second.id = first.id;
        if (outcome_bytes(first) != outcome_bytes(second) && fail[k].empty()) {
          fail[k] = "determinism: re-run with the same seed differs";
        }
      }
    }
    return v;
  }

  // Traced replay: every item stage by stage, as many in flight as the load
  // phase had; its bytes must equal the judged outcome's.
  fb::SpanLog log;
  const fb::Clock::time_point epoch = fb::Clock::now();
  std::vector<double> wall(items.size(), 0.0);
  std::vector<std::size_t> probe_count(w.jobs.size(), 0);
  std::vector<std::size_t> probe_items;
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (probe_count[items[k].job]++ < kProbesPerJob) probe_items.push_back(k);
  }
  std::vector<std::unique_ptr<fb::Replay>> kept(items.size());
  std::vector<bool> keep(items.size(), false);
  for (std::size_t k : probe_items) keep[k] = true;

  fb::for_each_closed(pool, w.clients, items.size(), [&](std::size_t k) {
    const Item& it = items[k];
    fb::FlowSpans spans(epoch, k);
    const auto start = fb::Clock::now();
    auto replay = std::make_unique<fb::Replay>(fb::replay_flow(w.jobs[it.job], it.seed, &spans));
    wall[k] = fb::seconds_between(start, fb::Clock::now());
    log.commit(spans);
    const service::JobOutcome o = outcome_of(k);
    service::JobOutcome again = o;
    again.result = replay->result;
    if (!fail[k].empty()) return;
    if (outcome_bytes(o) != outcome_bytes(again)) {
      fail[k] = "determinism: stage-by-stage replay differs from the service result";
    } else {
      const fb::FlowCheck c = fb::check_flow(w.jobs[it.job], o.result, replay->restored, w.expected[it.job]);
      fail[k] = c.failure;
      masked[k] = c.masked;
    }
    if (keep[k]) kept[k] = std::move(replay);
  });
  traced->replay_wall_s = fb::seconds_between(epoch, fb::Clock::now());
  traced->replayed = items.size();
  for (std::size_t k = 0; k < items.size(); ++k) {
    traced->replay_flow_s += wall[k];
    traced->service_exec_s += flows[items[k].first].exec;
  }

  // Probe pass, after the replay so probes never overlap traced flows.
  traced->probes.resize(probe_items.size());
  fb::for_each_closed(pool, w.clients, probe_items.size(), [&](std::size_t p) {
    const std::size_t k = probe_items[p];
    traced->probes[p] = fb::probe_views(w.jobs[items[k].job], *kept[k], items[k].seed);
  });
  traced->blocks = log.blocks();
  return v;
}

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

void print_metrics(const std::string& title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  for (const Metric& m : ms) {
    std::cout << "  " << std::left << std::setw(30) << m.name << std::right
              << std::setw(14) << fmt(m.value) << " " << std::left
              << std::setw(6) << m.unit << std::right;
    if (!m.note.empty()) std::cout << "  " << m.note;
    std::cout << "\n";
  }
}

std::string stamp_line(const Args& a, unsigned nproc, double stream_gbps) {
  std::ostringstream os;
  os << "stamp: nproc=" << nproc << " simd="
     << sim::kernels::simd_mode_name(sim::kernels::simd_mode())
     << " compiler=\"" << FLOWBENCH_COMPILER << "\" build=" << FLOWBENCH_BUILD_TYPE
     << " workload=" << a.workload << " seed=" << a.seed
     << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0)
     << " kernel.stream_gbps=" << fmt(stream_gbps);
  return os.str();
}

double mean_of(double sum, std::size_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<double> span_durations(const std::vector<std::vector<fb::Span>>& blocks,
                                   const std::string& name) {
  std::vector<double> out;
  for (const auto& block : blocks) {
    for (const fb::Span& s : block) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
  }
  return out;
}

void write_trace_file(const Args& a, const std::string& stamp,
                      const std::vector<std::vector<fb::Span>>& blocks) {
  if (a.trace_out.empty()) return;
  const std::string path = a.trace_out + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".json";
  json::Writer w(0);
  w.begin_object();
  w.key("schema").value("flowbench.trace.v1");
  w.key("stamp").value(stamp);
  w.key("spans").begin_array();
  for (const auto& block : blocks) {
    for (const fb::Span& s : block) {
      w.begin_object();
      w.key("flow").value(s.flow);
      w.key("name").value(s.name);
      if (!s.detail.empty()) w.key("detail").value(s.detail);
      w.key("parent").value(s.parent);
      w.key("start").value(s.start);
      w.key("end").value(s.end);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << "\n";
  if (!out) std::cerr << "flowbench: could not write " << path << "\n";
  else std::cout << "trace: " << path << "\n";
}

/// Per-flow samples of the load phase (done flows only).
struct Samples {
  std::vector<double> latency, queue_wait, exec;
  std::vector<double> due;  ///< when each flow was submitted or due
};

template <typename Map>
typename Map::mapped_type get_or_zero(const Map& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? typename Map::mapped_type{} : it->second;
}

/// Computes and prints the per-layer metrics of a traced run, prints the
/// self-time table and the report-only metrics, and writes the trace file.
std::vector<Metric> report_layers(const Args& a, const Workload& w,
                                  const fb::LoadResult& load, const Samples& samples,
                                  const service::CacheStats& cache, std::size_t records,
                                  const Traced& traced, const fb::SpanLog& net_spans,
                                  double stream_gbps, const std::string& stamp,
                                  double untraced_fps) {
  const fb::SelfTimes st = fb::self_times(traced.blocks);
  auto self = [&](const std::string& n) { return get_or_zero(st.self_s, n); };
  const std::size_t flows_n = get_or_zero(st.calls, "flow");
  double pipeline_self = 0.0;
  for (const auto& [name, s] : st.self_s) pipeline_self += s;
  const double sample_call_s =
      mean_of(get_or_zero(st.wall_s, "sim.sample"), get_or_zero(st.calls, "sim.sample"));
  const double flow_wall_s = get_or_zero(st.wall_s, "flow");

  double stab_sum = 0.0;
  std::size_t stab_n = 0;
  for (const auto& block : traced.blocks) {
    for (const fb::Span& s : block) {
      if (s.name == "sim.sample" && s.detail.find("/stabilizer") != std::string::npos) {
        stab_sum += s.end - s.start;
        ++stab_n;
      }
    }
  }
  double errorfree = 0, errored = 0, gates = 0, plan = 0, reduction = 0, ideal = 0, bytes = 0;
  std::size_t views = 0, sv_views = 0;
  for (const auto& probe : traced.probes) {
    for (const fb::ViewProbe& p : probe) {
      ++views;
      errorfree += p.errorfree_s;
      errored += p.errored_frac;
      gates += static_cast<double>(p.gates);
      if (!p.statevector) continue;
      ++sv_views;
      plan += p.plan_s;
      reduction += p.sweep_reduction;
      ideal += p.ideal_s;
      bytes += p.sweep_bytes;
    }
  }
  const double errorfree_call_s = mean_of(errorfree, views);
  const double sweep_gbps = ideal > 0.0 ? bytes / ideal / 1e9 : 0.0;
  const std::size_t shots = w.jobs.front().config.shots;
  const std::size_t lookups = cache.hits + cache.misses;
  const double traced_fps =
      static_cast<double>(traced.replayed) / std::max(traced.replay_wall_s, 1e-9);
  const fb::Tail wait_tail = fb::tail(samples.queue_wait);

  const std::vector<Metric> layer = {
      {"service.queue_wait_p50_s", fb::median(samples.queue_wait), "s",
       "latency - JobOutcome::seconds"},
      {"service.queue_wait_tail_s", wait_tail.value, "s",
       "p" + fmt(wait_tail.percentile) + " of " + std::to_string(wait_tail.samples)},
      {"service.exec_p50_s", fb::median(samples.exec), "s", "JobOutcome::seconds"},
      {"service.cache_hit_ratio", mean_of(static_cast<double>(cache.hits), lookups), "ratio",
       std::to_string(lookups) + " lookups"},
      {"service.records", static_cast<double>(records), "count", "jobs retained"},
      {"runtime.pool_busy_frac", load.pool_busy_frac, "ratio",
       "Service::pool_stats, 1 ms samples"},
      {"runtime.pool_queued_mean", load.pool_queued_mean, "count", ""},
      {"lock.obfuscate_s", mean_of(self("lock.obfuscate"), flows_n), "s", "per flow"},
      {"lock.split_s", mean_of(self("lock.split"), flows_n), "s", "per flow"},
      {"lock.recombine_s", mean_of(self("lock.recombine"), flows_n), "s",
       "per flow, includes both split compiles"},
      {"compiler.compile_s", mean_of(self("compile.baseline") + self("compile.masked"), flows_n),
       "s", "per flow, baseline + masked"},
      {"compiler.gates_out", mean_of(gates, views), "count", "gates per sampled view"},
      {"sim.reference_s", mean_of(self("sim.reference"), flows_n), "s", "per flow"},
      {"sim.sample_s", sample_call_s, "s", "per view"},
      {"sim.errorfree_s", errorfree_call_s, "s", "per view, gate errors zeroed"},
      {"sim.trajectories_s", sample_call_s - errorfree_call_s, "s", "per view"},
      {"sim.errored_shot_frac", mean_of(errored, views), "ratio",
       "modelled, base " + std::to_string(views * shots) + " shots"},
      {"sim.fusion_plan_s", mean_of(plan, sv_views), "s", "per statevector view"},
      {"sim.fusion_sweep_reduction", mean_of(reduction, sv_views), "ratio", ""},
      {"kernel.ideal_s", mean_of(ideal, sv_views), "s", "per statevector view"},
      {"kernel.sweep_gbps", sweep_gbps, "GB/s", "32 B per amplitude per sweep"},
      {"kernel.stream_gbps", stream_gbps, "GB/s", "memcpy probe"},
      {"kernel.roofline_frac", stream_gbps > 0 ? sweep_gbps / stream_gbps : 0.0, "ratio", ""},
      {"trace.flows_per_s", traced_fps, "1/s",
       std::to_string(traced.replayed) + " flows replayed"},
      {"trace.overhead_frac",
       traced.service_exec_s > 0 ? traced.replay_flow_s / traced.service_exec_s - 1.0 : 0.0,
       "ratio", "replayed flow time / service flow time - 1"},
      {"trace.sim_sample_self_frac", pipeline_self > 0 ? self("sim.sample") / pipeline_self : 0.0,
       "ratio", "of flow self time"},
      {"trace.uncovered_frac", flow_wall_s > 0 ? self("flow") / flow_wall_s : 0.0, "ratio",
       "of flow wall time no stage span covers"},
  };
  print_metrics("per-layer:", layer);

  std::vector<Metric> extra;
  if (stab_n > 0) {
    extra.push_back({"sim.stabilizer_sample_s", mean_of(stab_sum, stab_n), "s",
                     std::to_string(stab_n) + " stabilizer views"});
  }
  const auto net_blocks = net_spans.blocks();
  if (!net_blocks.empty()) {
    for (const char* n : {"net.post", "net.get_job", "net.status", "net.metrics"}) {
      const auto d = span_durations(net_blocks, n);
      extra.push_back({std::string(n) + "_p50_s", fb::median(d), "s",
                       std::to_string(d.size()) + " requests"});
    }
    extra.push_back({"net.errors", static_cast<double>(load.net_errors), "count", ""});
    extra.push_back({"load.late_max_s", load.late_max_s, "s", "generator lateness"});
    extra.push_back({"load.polls_per_flow",
                     mean_of(static_cast<double>(load.job_polls), load.flows.size()), "count",
                     ""});
  }
  if (!extra.empty()) print_metrics("per-layer, this workload only:", extra);

  std::cout << "self time by span (traced replay of " << flows_n << " flows):\n";
  for (const auto& [name, s] : st.self_s) {
    std::cout << "  " << std::left << std::setw(20) << name << std::right << std::setw(12)
              << fmt(s) << " s  " << std::setw(8)
              << fmt(pipeline_self > 0 ? 100.0 * s / pipeline_self : 0.0) << " %\n";
  }
  std::cout << "tracing overhead: the same " << traced.replayed << " flows took "
            << fmt(traced.replay_flow_s) << " s traced against " << fmt(traced.service_exec_s)
            << " s in the service; throughput " << fmt(traced_fps) << " flows/s traced, "
            << fmt(untraced_fps) << " flows/s in the untraced load\n";
  auto all_blocks = traced.blocks;
  all_blocks.insert(all_blocks.end(), net_blocks.begin(), net_blocks.end());
  write_trace_file(a, stamp, all_blocks);
  return layer;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  try {
    // Set-up, several times; the last one is kept.
    std::vector<double> setup_s, stream;
    Workload w;
    for (int r = 0; r < kSetupRepeats; ++r) {
      teardown(w);
      const auto start = fb::Clock::now();
      w = set_up(a, nproc);
      setup_s.push_back(fb::seconds_between(start, fb::Clock::now()));
      stream.push_back(w.stream_gbps);
    }
    const double stream_gbps = fb::median(stream);
    const std::string stamp = stamp_line(a, nproc, stream_gbps);
    std::cout << "flowbench " << a.workload << ": " << w.jobs.size()
              << " circuit(s), " << (a.workload == "serve"
                                         ? "open loop at " + fmt(kServeRate) + " req/s"
                                         : "closed loop, " + std::to_string(w.clients) +
                                               " in flight")
              << "\n" << stamp << "\n";

    // serve: compute the warm pairs, untimed, so they are cached.
    std::vector<service::JobHandle> warm;
    for (const fb::Request& r : w.warm) warm.push_back(w.service->submit(w.jobs[r.job], r.seed));
    for (service::JobHandle& h : warm) {
      const service::JobOutcome o = h.wait();
      if (o.state != service::JobState::kDone) {
        throw std::runtime_error("serve warm-up job failed: " + o.status.message);
      }
    }

    const service::CacheStats cache_before = w.service->cache_stats();

    // Load phase, tracing off.
    fb::SpanLog net_spans;
    const fb::Clock::time_point epoch = fb::Clock::now();
    fb::LoadResult load =
        a.workload == "serve"
            ? fb::run_open_loop(*w.service, w.server->port(), w.schedule, kServeRate,
                                kResultTimeoutS, a.trace ? &net_spans : nullptr, epoch)
            : fb::run_closed_loop(*w.service, w.jobs, w.clients, a.seconds, a.seed,
                                  a.trace);
    service::CacheStats cache = w.service->cache_stats();
    cache.hits -= cache_before.hits;  // the load's lookups only
    cache.misses -= cache_before.misses;
    const std::size_t records = w.service->jobs_submitted();

    // Checks (and, traced, the replay and probe pass).
    const std::vector<Item> items = make_items(load.flows);
    Traced traced;
    const Verdicts verdicts =
        check_and_trace(a, nproc, w, load.flows, items, a.trace ? &traced : nullptr);
    std::vector<std::string> check_fail(load.flows.size());
    std::size_t checked = 0, unmasked = 0;
    for (std::size_t k = 0; k < items.size(); ++k) {
      for (std::size_t f : items[k].flows) check_fail[f] = verdicts.fail[k];
      checked += items[k].flows.size();
      unmasked += verdicts.masked[k] ? 0 : 1;
    }

    fb::Tally tally;
    Samples samples;
    std::vector<double>& latency = samples.latency;
    for (std::size_t i = 0; i < load.flows.size(); ++i) {
      const fb::FlowRecord& f = load.flows[i];
      const std::string who = w.jobs[f.job].name + " seed " + std::to_string(f.seed) + ": ";
      tally.attempt();
      if (f.refused) tally.fail(fb::FailKind::kRefused, who + f.error);
      else if (f.timed_out) tally.fail(fb::FailKind::kTimeout, who + "no result in time");
      else if (!f.done) tally.fail(fb::FailKind::kError, who + f.error);
      else if (!check_fail[i].empty()) tally.fail(fb::FailKind::kCheck, who + check_fail[i]);
      if (f.done) {
        latency.push_back(f.latency);
        samples.due.push_back(f.due);
        samples.exec.push_back(f.exec);
        samples.queue_wait.push_back(std::max(0.0, f.latency - f.exec));
      }
    }
    const std::size_t completed = latency.size();
    const fb::Tail lat_tail = fb::tail(latency);
    const auto windows = static_cast<std::size_t>(std::max(1.0, std::floor(a.seconds / kWindowS)));

    std::vector<Metric> e2e = {
        {"flows_per_s", static_cast<double>(completed) / std::max(load.elapsed_s, 1e-9),
         "1/s", std::to_string(completed) + " flows in " + fmt(load.elapsed_s) + " s"},
        {"latency_p50_s", fb::windowed_median(samples.due, latency, kWindowS, windows), "s",
         "median over " + std::to_string(windows) + " windows of " + fmt(kWindowS) +
             " s of each one's median; all flows: " + fmt(fb::median(latency))},
        {"latency_tail_s", lat_tail.value, "s",
         "p" + fmt(lat_tail.percentile) + " of " + std::to_string(lat_tail.samples) + " samples"},
        {"cpu_s_per_flow", mean_of(load.cpu_s, completed), "s",
         "getrusage, without the benchmark's own threads"},
        {"ok_ratio", 1.0 - tally.failed_ratio(), "ratio",
         "failed_ratio " + fmt(tally.failed_ratio()) + " = " + std::to_string(tally.failed()) +
             "/" + std::to_string(tally.attempted())},
        {"peak_rss_mb", load.peak_rss_mb, "MB", ""},
        {"setup_s", fb::median(setup_s), "s",
         "median of " + std::to_string(kSetupRepeats) + " set-ups"},
    };
    print_metrics(a.trace ? "end-to-end (load phase of the traced run):" : "end-to-end:", e2e);

    std::vector<Metric> layer;
    if (a.trace) {
      layer = report_layers(a, w, load, samples, cache, records, traced, net_spans,
                            stream_gbps, stamp, e2e[0].value);
    }

    std::cout << "checks: " << checked << " flows judged over " << items.size()
              << " distinct (circuit, seed) pairs, " << unmasked
              << " of them with an insertion that reached no measured bit; failures: error "
              << tally.failed(fb::FailKind::kError) << ", refused "
              << tally.failed(fb::FailKind::kRefused) << ", timeout "
              << tally.failed(fb::FailKind::kTimeout) << ", check "
              << tally.failed(fb::FailKind::kCheck) << "\n";
    for (const std::string& m : tally.messages()) std::cout << "  FAIL " << m << "\n";

    const bool correct = tally.failed() == 0 && tally.attempted() > 0;
    json::Writer out(0);
    out.begin_object();
    out.key("correct").value(correct);
    out.key("attempted").value(tally.attempted());
    out.key("failed").value(tally.failed());
    out.key("metrics").begin_object();
    for (const Metric& m : a.trace ? layer : e2e) {
      out.key(m.name).begin_object();
      out.key("value").value(m.value);
      out.key("unit").value(m.unit);
      out.end_object();
    }
    out.end_object();
    out.end_object();
    std::cout << out.str() << std::endl;
    teardown(w);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "flowbench: " << e.what() << "\n";
    return 1;
  }
}

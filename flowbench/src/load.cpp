#include "load.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/json.h"
#include "common/rng.h"
#include "net/client.h"

namespace flowbench {

using namespace tetris;

namespace {

/// CPU seconds (user + system) of the process, or of the calling thread.
double cpu_seconds(int who = RUSAGE_SELF) {
  rusage ru{};
  getrusage(who, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// CPU time the benchmark's own threads (load clients, the pool sampler)
/// spent, so it can be taken out of the process's total.
class ClientCpu {
 public:
  /// Call at the end of a benchmark thread.
  void add_this_thread() {
    const double s = cpu_seconds(RUSAGE_THREAD);
    std::lock_guard<std::mutex> lk(mu_);
    seconds_ += s;
  }
  double seconds() const {
    std::lock_guard<std::mutex> lk(mu_);
    return seconds_;
  }

 private:
  mutable std::mutex mu_;
  double seconds_ = 0.0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Samples Service::pool_stats() every millisecond while alive.
class PoolSampler {
 public:
  PoolSampler(const service::Service& service, bool enabled, ClientCpu& cpu)
      : service_(service), cpu_(cpu) {
    if (enabled) thread_ = std::thread([this] { loop(); });
  }
  ~PoolSampler() { stop(); }
  PoolSampler(const PoolSampler&) = delete;
  PoolSampler& operator=(const PoolSampler&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Stops sampling and writes the means into `out`.
  void finish(LoadResult& out) {
    stop();
    if (samples_ == 0) return;
    out.pool_busy_frac = busy_ / static_cast<double>(samples_);
    out.pool_queued_mean = queued_ / static_cast<double>(samples_);
  }

 private:
  void loop() {
    while (!stop_.load()) {
      const runtime::ThreadPool::Stats s = service_.pool_stats();
      if (s.threads > 0) {
        busy_ += static_cast<double>(s.active) / static_cast<double>(s.threads);
        queued_ += static_cast<double>(s.queued);
        ++samples_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cpu_.add_this_thread();
  }

  const service::Service& service_;
  ClientCpu& cpu_;
  std::atomic<bool> stop_{false};
  double busy_ = 0.0;
  double queued_ = 0.0;
  std::size_t samples_ = 0;
  std::thread thread_;  // last: started after the fields it uses
};

/// Reads a GET /v1/jobs/{id} document into `rec`; returns true once the job
/// is terminal (an unreadable document counts as a terminal error).
bool read_job_document(const std::string& body, FlowRecord& rec) {
  try {
    const json::Value doc = json::parse(body);
    const std::string& state = doc.at("state").as_string();
    if (state != "done" && state != "failed" && state != "cancelled") return false;
    rec.finished = true;
    rec.done = state == "done";
    rec.exec = doc.at("seconds").as_number();
    rec.cache_hit = doc.at("cache_hit").as_bool();
    if (!rec.done) {
      const json::Value* msg = doc.at("status").find("message");
      rec.error = "job " + state + (msg ? ": " + msg->as_string() : "");
    }
  } catch (const std::exception& e) {
    rec.finished = true;
    rec.done = false;
    rec.error = std::string("unreadable job document: ") + e.what();
  }
  return true;
}

}  // namespace

LoadResult run_closed_loop(service::Service& service,
                           const std::vector<lock::FlowJob>& jobs,
                           unsigned clients, double seconds,
                           std::uint64_t seed, bool sample_pool) {
  LoadResult out;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  double last = 0.0;
  ClientCpu client_cpu;
  PoolSampler sampler(service, sample_pool, client_cpu);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = t0 + to_duration(seconds);

  auto client = [&] {
    while (Clock::now() < deadline) {
      FlowRecord rec;
      const std::size_t i = next.fetch_add(1);
      rec.job = i % jobs.size();
      rec.seed = Rng::stream_seed(seed, i);
      const Clock::time_point submit = Clock::now();
      rec.due = seconds_between(t0, submit);
      service::JobHandle handle = service.submit(jobs[rec.job], rec.seed);
      const service::JobOutcome o = handle.wait();
      const Clock::time_point end = Clock::now();
      rec.id = handle.id();
      rec.finished = true;
      rec.done = o.state == service::JobState::kDone;
      rec.cache_hit = o.cache_hit;
      if (!rec.done) rec.error = o.status.message;
      rec.latency = seconds_between(submit, end);
      rec.exec = o.seconds;
      std::lock_guard<std::mutex> lk(mu);
      last = std::max(last, seconds_between(t0, end));
      out.flows.push_back(std::move(rec));
    }
    client_cpu.add_this_thread();
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client);
  for (auto& t : threads) t.join();

  sampler.finish(out);
  out.elapsed_s = last;
  out.cpu_s = cpu_seconds() - cpu0 - client_cpu.seconds();
  out.peak_rss_mb = peak_rss_mb();
  std::sort(out.flows.begin(), out.flows.end(),
            [](const FlowRecord& a, const FlowRecord& b) { return a.id < b.id; });
  return out;
}

LoadResult run_open_loop(service::Service& service, int port,
                         const std::vector<Request>& schedule, double rate,
                         double result_timeout_s, SpanLog* spans,
                         Clock::time_point epoch) {
  LoadResult out;
  out.flows.resize(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    out.flows[i].job = schedule[i].job;
    out.flows[i].seed = schedule[i].seed;
    out.flows[i].due = static_cast<double>(i) / rate;
  }

  std::size_t net_errors = 0;
  double late_max = 0.0;
  std::size_t job_polls = 0;

  ClientCpu client_cpu;
  PoolSampler sampler(service, spans != nullptr, client_cpu);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  auto due_at = [&](std::size_t i) { return t0 + to_duration(out.flows[i].due); };

  // One client thread and one connection do everything: POST each request
  // when it is due, poll every outstanding job, and scrape once a second.
  // With no hand-off between client threads, a cache hit's latency is its
  // POST plus the GETs that find it done.
  auto client_loop = [&] {
    net::Client client("127.0.0.1", port);
    auto timed = [&](const char* span_name, std::uint64_t flow, auto&& call,
                     net::http::Response& res) {
      const Clock::time_point start = Clock::now();
      try {
        res = call();
      } catch (const std::exception& e) {
        ++net_errors;
        res.status = 0;
        res.body = e.what();
        return false;
      }
      if (spans) {
        FlowSpans s(epoch, flow);
        s.add(span_name, -1, start, Clock::now());
        spans->commit(s);
      }
      return true;
    };
    struct Pending {
      std::size_t index;
      Clock::time_point next_poll;
    };
    std::vector<Pending> pending;
    std::size_t next_post = 0;
    Clock::time_point next_scrape = t0 + std::chrono::seconds(1);
    std::uint64_t scrape_id = schedule.size();
    Clock::time_point give_up = Clock::time_point::max();

    for (;;) {
      Clock::time_point now = Clock::now();
      if (next_post < schedule.size() && now >= due_at(next_post)) {
        const std::size_t i = next_post++;
        FlowRecord& rec = out.flows[i];
        late_max = std::max(late_max, seconds_between(due_at(i), now));
        const std::string body =
            "{\"benchmark\":\"" + schedule[i].benchmark + "\",\"seed\":" +
            std::to_string(rec.seed) + ",\"config\":{\"sample_jobs\":" +
            std::to_string(schedule[i].sample_jobs) + "}}";
        net::http::Response res;
        if (!timed("net.post", i, [&] { return client.post("/v1/jobs", body); }, res)) {
          rec.error = "POST /v1/jobs: " + res.body;
        } else if (res.status != 202) {
          rec.refused = true;
          rec.error = "POST /v1/jobs answered " + std::to_string(res.status);
          ++net_errors;
        } else {
          try {
            rec.id = static_cast<std::uint64_t>(json::parse(res.body).at("id").as_int());
            pending.push_back({i, Clock::now()});
          } catch (const std::exception& e) {
            rec.error = std::string("POST /v1/jobs: unreadable answer: ") + e.what();
            ++net_errors;
          }
        }
        if (next_post == schedule.size()) give_up = Clock::now() + to_duration(result_timeout_s);
        continue;  // a due POST goes before any poll
      }
      if (now >= next_scrape) {
        net::http::Response res;
        for (const char* target : {"/v1/status", "/metrics"}) {
          const char* name = target[1] == 'v' ? "net.status" : "net.metrics";
          if (timed(name, scrape_id, [&] { return client.get(target); }, res) &&
              res.status != 200) {
            ++net_errors;
          }
        }
        ++scrape_id;
        next_scrape += std::chrono::seconds(1);
      }
      for (std::size_t k = 0; k < pending.size();) {
        Pending& p = pending[k];
        now = Clock::now();
        if (p.next_poll > now) {
          ++k;
          continue;
        }
        FlowRecord& rec = out.flows[p.index];
        net::http::Response res;
        ++job_polls;
        const std::string target = "/v1/jobs/" + std::to_string(rec.id);
        bool terminal = false;
        if (timed("net.get_job", p.index, [&] { return client.get(target); }, res)) {
          if (res.status == 200) {
            terminal = read_job_document(res.body, rec);
          } else {
            ++net_errors;
          }
        }
        if (terminal) {
          rec.latency = seconds_between(due_at(p.index), Clock::now());
          pending[k] = pending.back();
          pending.pop_back();
          continue;
        }
        // Back off with the job's age, resolving each latency to ~5% of
        // itself: a fresh job (mostly a cache hit finishing within
        // microseconds of its POST) is re-polled after 50 us, a long
        // computation every 5 ms.
        const double age = seconds_between(due_at(p.index), Clock::now());
        p.next_poll = Clock::now() + to_duration(std::clamp(0.05 * age, 0.00005, 0.005));
        ++k;
      }
      if (next_post == schedule.size() && pending.empty()) break;
      if (Clock::now() >= give_up) {
        for (const Pending& p : pending) out.flows[p.index].timed_out = true;
        break;
      }
      // Sleep until the next POST, poll or scrape is due.
      Clock::time_point wake = std::min(next_scrape, give_up);
      if (next_post < schedule.size()) wake = std::min(wake, due_at(next_post));
      for (const Pending& p : pending) wake = std::min(wake, p.next_poll);
      std::this_thread::sleep_until(wake);
    }
    client_cpu.add_this_thread();
  };

  std::thread client_thread(client_loop);
  client_thread.join();

  double last = 0.0;
  for (const FlowRecord& rec : out.flows) {
    if (rec.finished) last = std::max(last, rec.due + rec.latency);
  }
  sampler.finish(out);
  out.elapsed_s = last;
  out.cpu_s = cpu_seconds() - cpu0 - client_cpu.seconds();
  out.peak_rss_mb = peak_rss_mb();
  out.late_max_s = late_max;
  out.job_polls = job_polls;
  out.net_errors = net_errors;
  return out;
}

void for_each_closed(runtime::ThreadPool& pool, unsigned clients,
                     std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr first;
  auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        pool.submit([&fn, i] { fn(i); }).get();
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!first) first = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client);
  for (auto& t : threads) t.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace flowbench

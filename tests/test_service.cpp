#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "compiler/target.h"
#include "revlib/benchmarks.h"
#include "runtime/thread_pool.h"
#include "service/serialize.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace tetris::service {
namespace {

lock::FlowConfig small_config(std::size_t shots = 64) {
  lock::FlowConfig cfg;
  cfg.shots = shots;
  return cfg;
}

lock::FlowJob benchmark_job(const char* name, std::size_t shots = 64) {
  const auto& b = revlib::get_benchmark(name);
  return lock::make_flow_job(b.name, b.circuit, b.measured,
                             small_config(shots));
}

std::vector<lock::FlowJob> suite_jobs(std::size_t shots = 64) {
  std::vector<lock::FlowJob> jobs;
  for (const auto& b : revlib::table1_benchmarks()) {
    jobs.push_back(
        lock::make_flow_job(b.name, b.circuit, b.measured, small_config(shots)));
  }
  return jobs;
}

/// A job the pipeline must reject: more logical qubits than the target has.
lock::FlowJob oversized_job() {
  qir::Circuit wide(6, "too_wide");
  wide.x(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4).cx(4, 5);
  lock::FlowJob job;
  job.name = "too_wide";
  job.circuit = wide;
  for (int q = 0; q < 6; ++q) job.measured.push_back(q);
  job.target = compiler::fake_valencia();  // 5 physical qubits
  job.config = small_config();
  return job;
}

// ------------------------------------------------------------ basic lifecycle

TEST(Service, SubmitWaitHappyPath) {
  Service svc;
  auto handle = svc.submit(benchmark_job("4mod5"));
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.id(), 1u);

  JobOutcome outcome = handle.wait();
  EXPECT_EQ(outcome.state, JobState::kDone);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.name, "4mod5");
  EXPECT_FALSE(outcome.cache_hit);
  EXPECT_EQ(outcome.result.depth_obfuscated, outcome.result.depth_original);
  EXPECT_GT(outcome.result.gates_obfuscated, outcome.result.gates_original);
}

TEST(Service, PollReportsTerminalStateAfterWait) {
  Service svc;
  auto handle = svc.submit(benchmark_job("4gt13"));
  handle.wait();
  EXPECT_EQ(handle.poll(), JobState::kDone);
}

TEST(Service, WaitAllPreservesSubmissionOrder) {
  Service svc;
  svc.submit_all({benchmark_job("4mod5"), benchmark_job("4gt13")});
  EXPECT_EQ(svc.jobs_submitted(), 2u);
  auto outcomes = svc.wait_all();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].name, "4mod5");
  EXPECT_EQ(outcomes[1].name, "4gt13");
  EXPECT_EQ(outcomes[0].id, 1u);
  EXPECT_EQ(outcomes[1].id, 2u);
}

TEST(Service, DrainStreamsInSubmissionOrderExactlyOnce) {
  ServiceConfig config;
  config.num_threads = 3;
  Service svc(config);
  svc.submit_all(
      {benchmark_job("4mod5"), benchmark_job("4gt13"), benchmark_job("4gt11")});

  std::vector<std::string> names;
  std::size_t delivered = svc.drain(
      [&](const JobOutcome& out) { names.push_back(out.name); });
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(names, (std::vector<std::string>{"4mod5", "4gt13", "4gt11"}));

  // Already drained: nothing more to deliver.
  EXPECT_EQ(svc.drain([](const JobOutcome&) { FAIL(); }), 0u);

  // A later submission is picked up by the next drain.
  svc.submit(benchmark_job("4mod5"));
  std::size_t more = svc.drain(
      [&](const JobOutcome& out) { EXPECT_EQ(out.name, "4mod5"); });
  EXPECT_EQ(more, 1u);
}

TEST(Service, ConcurrentDrainsDeliverEachJobExactlyOnce) {
  // Two drains racing on the same service: the cursor, not a captured
  // record, anchors delivery, so between them they must hand out every job
  // exactly once (in order overall, split arbitrarily between the sinks).
  ServiceConfig config;
  config.num_threads = 2;
  Service svc(config);
  std::vector<lock::FlowJob> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(benchmark_job(i % 2 == 0 ? "4mod5" : "4gt13"));
  }
  svc.submit_all(jobs);

  std::mutex m;
  std::vector<std::uint64_t> ids;
  auto drain_into = [&] {
    svc.drain([&](const JobOutcome& out) {
      std::lock_guard<std::mutex> g(m);
      ids.push_back(out.id);
    });
  };
  std::thread a(drain_into);
  std::thread b(drain_into);
  a.join();
  b.join();

  ASSERT_EQ(ids.size(), 10u);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i + 1) << "job delivered twice or skipped";
  }
}

TEST(Service, UnknownJobIdThrows) {
  Service svc;
  EXPECT_THROW(svc.poll(JobHandle()), InvalidArgument);
}

TEST(Service, HandleLookupRebuildsHandlesFromIds) {
  ServiceConfig config;
  config.num_threads = 2;
  Service svc(config);
  auto submitted = svc.submit(benchmark_job("4mod5"));
  JobHandle looked_up = svc.handle(submitted.id());
  EXPECT_EQ(looked_up.id(), submitted.id());
  EXPECT_EQ(looked_up.wait().state, JobState::kDone);
  EXPECT_THROW(svc.handle(99), InvalidArgument);
  EXPECT_THROW(svc.handle(0), InvalidArgument);
}

TEST(Service, OutcomeIsRepeatableAndLeavesDrainCursorAlone) {
  // The regression the network front-end depends on: GET /v1/jobs/{id} maps
  // to outcome(), which must be callable any number of times — before and
  // after drain — without consuming drain's once-only delivery.
  ServiceConfig config;
  config.num_threads = 2;
  Service svc(config);
  auto handle = svc.submit(benchmark_job("4mod5"));

  // Non-terminal snapshots carry the metadata but never a result; whatever
  // state the job is in when sampled, the call must not block or throw.
  JobOutcome early = svc.outcome(handle);
  EXPECT_EQ(early.id, handle.id());
  EXPECT_EQ(early.name, "4mod5");
  if (!is_terminal(early.state)) {
    EXPECT_EQ(early.result.gates_obfuscated, 0u);
  }

  JobOutcome waited = handle.wait();
  ASSERT_EQ(waited.state, JobState::kDone);

  // Repeatable, and identical to wait()'s view of the job.
  JobOutcome first = svc.outcome(handle);
  JobOutcome second = handle.outcome();
  for (const JobOutcome* out : {&first, &second}) {
    EXPECT_EQ(out->state, JobState::kDone);
    EXPECT_EQ(out->seed, waited.seed);
    EXPECT_EQ(out->result.tvd_restored, waited.result.tvd_restored);
    EXPECT_EQ(out->result.gates_obfuscated, waited.result.gates_obfuscated);
  }
  EXPECT_EQ(to_json(first, false), to_json(second, false));

  // outcome() reads above must not have consumed the drain delivery...
  std::size_t drained = svc.drain([&](const JobOutcome& out) {
    EXPECT_EQ(out.id, handle.id());
  });
  EXPECT_EQ(drained, 1u);
  // ...and draining must not break later outcome() reads either.
  EXPECT_EQ(to_json(svc.outcome(handle), false), to_json(first, false));
  EXPECT_EQ(svc.drain([](const JobOutcome&) { FAIL(); }), 0u);
}

TEST(Service, SubmitFromWorkerThreadRunsInline) {
  // A service call from inside a global-pool worker must not deadlock the
  // fixed pool; the job executes inline and the handle is already terminal.
  Service svc;
  auto future = runtime::ThreadPool::global().submit([&svc] {
    auto handle = svc.submit(benchmark_job("4mod5"));
    return handle.poll();
  });
  JobState state = future.get();
  EXPECT_TRUE(state == JobState::kDone || state == JobState::kFailed);
  EXPECT_EQ(svc.wait_all().front().state, JobState::kDone);
}

// ----------------------------------------------------------------- failures

TEST(Service, OversizedCircuitFailsWithoutDisturbingSiblings) {
  ServiceConfig config;
  config.num_threads = 2;
  config.cache_capacity = 8;
  Service svc(config);
  svc.submit_all({benchmark_job("4mod5"), oversized_job(), benchmark_job("4gt13")});
  auto outcomes = svc.wait_all();
  ASSERT_EQ(outcomes.size(), 3u);

  EXPECT_EQ(outcomes[0].state, JobState::kDone);
  EXPECT_EQ(outcomes[2].state, JobState::kDone);

  EXPECT_EQ(outcomes[1].state, JobState::kFailed);
  EXPECT_NE(outcomes[1].status.code, StatusCode::kOk);
  EXPECT_FALSE(outcomes[1].status.message.empty());

  // The failure produced no cache entry: only the two successes are resident.
  EXPECT_EQ(svc.cache_stats().entries, 2u);
}

TEST(Service, OutcomeCarriesSamplerSettings) {
  Service svc;
  auto job = benchmark_job("4mod5");
  job.config.sample_threads = 2;
  auto outcome = svc.submit(std::move(job)).wait();
  ASSERT_EQ(outcome.state, JobState::kDone);
  EXPECT_EQ(outcome.shots, 64u);
  EXPECT_EQ(outcome.sample_threads, 2u);
  // The JSON document echoes the sampler settings the job ran with.
  std::string doc = to_json(outcome, /*include_timing=*/false, 0);
  EXPECT_NE(doc.find("\"sampler\":{\"shots\":64,\"threads\":2}"),
            std::string::npos)
      << doc;
}

TEST(Service, DeviceFallbackWarningReachesJson) {
  Service svc;
  // rd53 is 7 qubits — past the preset band, so make_flow_job records the
  // ring-topology fallback and the outcome document must surface it.
  auto wide = benchmark_job("rd53");
  ASSERT_EQ(wide.warnings.size(), 1u);
  EXPECT_NE(wide.warnings[0].find("ring7"), std::string::npos);
  auto outcome = svc.submit(std::move(wide)).wait();
  ASSERT_EQ(outcome.state, JobState::kDone);
  ASSERT_EQ(outcome.warnings.size(), 1u);
  std::string doc = to_json(outcome, /*include_timing=*/false, 0);
  EXPECT_NE(doc.find("\"warnings\":["), std::string::npos) << doc;
  EXPECT_NE(doc.find("ring7"), std::string::npos) << doc;

  // In-band jobs carry no warnings, and their JSON stays byte-identical to
  // the pre-warnings schema: no "warnings" key at all.
  auto narrow = benchmark_job("4mod5");
  EXPECT_TRUE(narrow.warnings.empty());
  auto outcome2 = svc.submit(std::move(narrow)).wait();
  ASSERT_EQ(outcome2.state, JobState::kDone);
  EXPECT_EQ(to_json(outcome2, /*include_timing=*/false, 0).find("\"warnings\""),
            std::string::npos);
}

TEST(Service, SamplerFanOutDoesNotChangeResults) {
  // sample_threads is a pure performance knob: flows configured serial and
  // sharded must serialize identically (minus the echoed setting itself),
  // and it is excluded from the cache fingerprint.
  auto serial_job = benchmark_job("rd53");
  serial_job.config.sample_threads = 1;
  auto sharded_job = benchmark_job("rd53");
  sharded_job.config.sample_threads = 8;
  EXPECT_EQ(flow_fingerprint(serial_job), flow_fingerprint(sharded_job));

  ServiceConfig config;
  config.num_threads = 4;
  Service svc(config);
  auto serial = svc.submit(serial_job, /*seed=*/77).wait();
  auto sharded = svc.submit(sharded_job, /*seed=*/77).wait();
  ASSERT_EQ(serial.state, JobState::kDone);
  ASSERT_EQ(sharded.state, JobState::kDone);
  EXPECT_EQ(to_json(serial.result), to_json(sharded.result));
}

TEST(Service, FailedOutcomeSerializesStatusNotResult) {
  Service svc;
  auto outcome = svc.submit(oversized_job()).wait();
  ASSERT_EQ(outcome.state, JobState::kFailed);
  std::string doc = to_json(outcome, /*include_timing=*/false, 0);
  EXPECT_NE(doc.find("\"state\":\"failed\""), std::string::npos);
  EXPECT_EQ(doc.find("\"result\""), std::string::npos);
  EXPECT_NE(doc.find("\"message\""), std::string::npos);
}

// -------------------------------------------------------------- cancellation

TEST(Service, CancelOnFinishedJobIsRejected) {
  Service svc;
  auto handle = svc.submit(benchmark_job("4mod5"));
  handle.wait();
  EXPECT_FALSE(handle.cancel());
  EXPECT_EQ(handle.poll(), JobState::kDone);
}

TEST(Service, CancelledQueuedJobsNeverExecute) {
  // One worker: while it chews on the first job the rest sit queued, so at
  // least some cancellations must land; every cancel() == true must surface
  // as a kCancelled outcome, everything else must complete normally.
  ServiceConfig config;
  config.num_threads = 1;
  Service svc(config);
  std::vector<JobHandle> handles;
  handles.push_back(svc.submit(benchmark_job("rd84")));
  for (int i = 0; i < 6; ++i) handles.push_back(svc.submit(benchmark_job("4mod5")));

  std::vector<bool> cancelled;
  cancelled.push_back(false);  // never cancel the running head job
  for (std::size_t i = 1; i < handles.size(); ++i) {
    cancelled.push_back(handles[i].cancel());
  }

  for (std::size_t i = 0; i < handles.size(); ++i) {
    JobOutcome outcome = handles[i].wait();
    if (cancelled[i]) {
      EXPECT_EQ(outcome.state, JobState::kCancelled);
      EXPECT_EQ(outcome.status.code, StatusCode::kCancelled);
    } else {
      EXPECT_EQ(outcome.state, JobState::kDone);
    }
  }
}

// ------------------------------------------------------------------- caching

TEST(ServiceCache, RepeatSubmissionHitsWithBitIdenticalResult) {
  ServiceConfig config;
  config.cache_capacity = 8;
  Service svc(config);

  auto first = svc.submit(benchmark_job("4mod5")).wait();
  auto second = svc.submit(benchmark_job("4mod5")).wait();

  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  // Bit-identical, not approximately equal.
  EXPECT_EQ(first.result.tvd_obfuscated, second.result.tvd_obfuscated);
  EXPECT_EQ(first.result.tvd_restored, second.result.tvd_restored);
  EXPECT_EQ(first.result.accuracy_original, second.result.accuracy_original);
  EXPECT_EQ(first.result.accuracy_restored, second.result.accuracy_restored);
  EXPECT_TRUE(first.result.recombined.circuit ==
              second.result.recombined.circuit);
  EXPECT_EQ(to_json(first.result), to_json(second.result));

  auto stats = svc.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServiceCache, KeyCoversCircuitSeedAndConfig) {
  ServiceConfig config;
  config.cache_capacity = 16;
  Service svc(config);
  svc.submit(benchmark_job("4mod5")).wait();  // warm entry

  // Different seed: miss.
  auto other_seed = svc.submit(benchmark_job("4mod5"), 12345).wait();
  EXPECT_FALSE(other_seed.cache_hit);

  // Different circuit: miss.
  auto other_circuit = svc.submit(benchmark_job("4gt13")).wait();
  EXPECT_FALSE(other_circuit.cache_hit);

  // Different flow config (shot count): miss.
  auto other_shots = svc.submit(benchmark_job("4mod5", 65)).wait();
  EXPECT_FALSE(other_shots.cache_hit);

  // Different measured list (4mod5 measures {4}; also read qubit 0): miss.
  auto measured_job = benchmark_job("4mod5");
  measured_job.measured.push_back(0);
  auto other_measured = svc.submit(measured_job).wait();
  EXPECT_FALSE(other_measured.cache_hit);

  // The original triple still hits.
  auto repeat = svc.submit(benchmark_job("4mod5")).wait();
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(svc.cache_stats().hits, 1u);
  EXPECT_EQ(svc.cache_stats().misses, 5u);
}

TEST(ServiceCache, FingerprintSeparatesConfigs) {
  auto job = benchmark_job("4mod5");
  auto same = benchmark_job("4mod5");
  EXPECT_EQ(flow_fingerprint(job), flow_fingerprint(same));

  auto shots = benchmark_job("4mod5", 128);
  EXPECT_NE(flow_fingerprint(job), flow_fingerprint(shots));

  auto insertion = benchmark_job("4mod5");
  insertion.config.insertion.max_random_gates = 4;
  EXPECT_NE(flow_fingerprint(job), flow_fingerprint(insertion));

  auto split = benchmark_job("4mod5");
  split.config.split.interlock_fraction = 0.5;
  EXPECT_NE(flow_fingerprint(job), flow_fingerprint(split));

  auto target = benchmark_job("4mod5");
  target.target = compiler::line_device(5);
  EXPECT_NE(flow_fingerprint(job), flow_fingerprint(target));
}

TEST(ServiceCache, EvictionRespectsCapacityBound) {
  ServiceConfig config;
  config.num_threads = 1;
  config.cache_capacity = 2;
  Service svc(config);

  // Sequential fills give a deterministic LRU order: after the third insert
  // the first entry is the least recently used and must be gone.
  svc.submit(benchmark_job("4mod5")).wait();
  svc.submit(benchmark_job("4gt13")).wait();
  svc.submit(benchmark_job("4gt11")).wait();

  auto stats = svc.cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  EXPECT_TRUE(svc.submit(benchmark_job("4gt11")).wait().cache_hit);
  EXPECT_TRUE(svc.submit(benchmark_job("4gt13")).wait().cache_hit);
  // 4mod5 was evicted; it recomputes (and evicts 4gt11 in turn).
  EXPECT_FALSE(svc.submit(benchmark_job("4mod5")).wait().cache_hit);
  EXPECT_EQ(svc.cache_stats().entries, 2u);
  EXPECT_EQ(svc.cache_stats().evictions, 2u);
}

TEST(ServiceCache, ConcurrentIdenticalSubmissionsLeaveOneEntry) {
  // Cache stampede: many identical jobs in flight at once. Workers that
  // miss concurrently must not each insert — a duplicate list entry would
  // corrupt the LRU index on eviction. Afterwards exactly one entry is
  // resident and the triple still hits.
  ServiceConfig config;
  config.num_threads = 4;
  config.cache_capacity = 2;
  Service svc(config);
  std::vector<lock::FlowJob> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back(benchmark_job("4mod5"));
  // Same seed for every copy so all eight share one cache key.
  std::vector<JobHandle> handles;
  for (auto& job : jobs) handles.push_back(svc.submit(std::move(job), 99));
  for (auto& h : handles) EXPECT_EQ(h.wait().state, JobState::kDone);

  auto stats = svc.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 8u);
  EXPECT_TRUE(svc.submit(benchmark_job("4mod5"), 99).wait().cache_hit);
}

TEST(ServiceCache, ClearCacheKeepsCounters) {
  ServiceConfig config;
  config.cache_capacity = 4;
  Service svc(config);
  svc.submit(benchmark_job("4mod5")).wait();
  svc.clear_cache();
  EXPECT_EQ(svc.cache_stats().entries, 0u);
  EXPECT_EQ(svc.cache_stats().misses, 1u);
  EXPECT_FALSE(svc.submit(benchmark_job("4mod5")).wait().cache_hit);
}

TEST(ServiceCache, DisabledCacheNeverHits) {
  Service svc;  // cache_capacity = 0
  svc.submit(benchmark_job("4mod5")).wait();
  auto second = svc.submit(benchmark_job("4mod5")).wait();
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(svc.cache_stats().entries, 0u);
  EXPECT_EQ(svc.cache_stats().capacity, 0u);
}

// ------------------------------------------------- determinism / equivalence

/// Serializes a batch without run-dependent fields (timing, thread count).
std::string stable_json(const std::vector<JobOutcome>& outcomes) {
  return batch_to_json(outcomes, /*threads=*/0, /*wall_seconds=*/0.0,
                       /*cache=*/nullptr, /*include_timing=*/false);
}

TEST(ServiceDeterminism, SuiteJsonByteIdenticalAcrossThreadCounts) {
  // The RevLib Table-I suite via submit + drain at 1 and at 8 worker
  // threads: the serialized outcomes must match byte for byte (ISSUE 2
  // acceptance gate). drain() exercises the streaming path at width 8.
  auto run_at = [](unsigned threads) {
    ServiceConfig config;
    config.num_threads = threads;
    config.base_seed = 2025;
    Service svc(config);
    svc.submit_all(suite_jobs());
    std::vector<JobOutcome> outcomes;
    svc.drain([&](const JobOutcome& out) { outcomes.push_back(out); });
    return outcomes;
  };
  auto one = run_at(1);
  auto eight = run_at(8);
  ASSERT_EQ(one.size(), eight.size());
  for (const auto& out : one) ASSERT_EQ(out.state, JobState::kDone);
  EXPECT_EQ(stable_json(one), stable_json(eight));
}

TEST(ServiceDeterminism, SecondPassServedFromCacheIdentically) {
  ServiceConfig config;
  config.num_threads = 4;
  config.base_seed = 2025;
  config.cache_capacity = 64;
  Service svc(config);

  svc.submit_all(suite_jobs());
  auto first = svc.wait_all();
  svc.submit_all(suite_jobs());
  auto all = svc.wait_all();
  std::vector<JobOutcome> second(all.begin() + first.size(), all.end());

  std::size_t hits = 0;
  for (const auto& out : second) {
    if (out.cache_hit) ++hits;
  }
  // Every job of the second pass repeats a (circuit, seed, config) triple of
  // the first, so all of them must be hits (acceptance bar is >= 90%).
  EXPECT_EQ(hits, second.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(to_json(first[i].result), to_json(second[i].result)) << i;
  }
}

// ------------------------------------------------------------ retained memory

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// A finished job keeps its artifact bytes, not a live FlowResult, so a
// service that never forgets a job grows by a small fixed amount per job:
// 200 done 4mod5 jobs must each add less than 24 KB of heap (record, job,
// trace and artifact). Holding the FlowResult took about 42 KB per job.
TEST(ServiceMemory, DoneJobsRetainLessThan24KBEach) {
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators bypass mallinfo2";
  ServiceConfig config;
  config.num_threads = 1;
  Service svc(config);
  // Warm-up job: the pool thread and every lazily built table exist before
  // the baseline is read.
  ASSERT_EQ(svc.submit(benchmark_job("4mod5"), 0).wait().state,
            JobState::kDone);
  const std::size_t before = mallinfo2().uordblks;
  if (before == 0) GTEST_SKIP() << "mallinfo2 reports no heap in use";
  constexpr std::size_t kJobs = 200;
  for (std::size_t i = 1; i <= kJobs; ++i) {
    svc.submit(benchmark_job("4mod5"), i);
  }
  for (const JobOutcome& out : svc.wait_all()) {
    ASSERT_EQ(out.state, JobState::kDone);
  }
  const std::size_t after = mallinfo2().uordblks;
  const double per_job =
      (static_cast<double>(after) - static_cast<double>(before)) / kJobs;
  EXPECT_LT(per_job, 24.0 * 1024.0) << "bytes retained per done job";
#else
  GTEST_SKIP() << "needs glibc's mallinfo2";
#endif
}

}  // namespace
}  // namespace tetris::service

#include "service/service.h"

#include <chrono>
#include <utility>

#include "common/binio.h"
#include "common/error.h"
#include "common/hash.h"

namespace tetris::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A finished job's trace as one exact-size byte string: the span count,
/// then per span its name, start, duration and attributes (binio).
std::string pack_trace(const obs::Trace& trace) {
  std::size_t total = 4;
  for (const obs::Span& span : trace.spans()) {
    total += 4 + span.name.size() + 8 + 8 + 4;
    for (const auto& [key, value] : span.attrs) {
      total += 4 + key.size() + 4 + value.size();
    }
  }
  ByteWriter w;
  w.reserve(total).u32(static_cast<std::uint32_t>(trace.spans().size()));
  for (const obs::Span& span : trace.spans()) {
    w.str(span.name).f64(span.start_seconds).f64(span.duration_seconds);
    w.u32(static_cast<std::uint32_t>(span.attrs.size()));
    for (const auto& [key, value] : span.attrs) w.str(key).str(value);
  }
  return w.take();
}

/// The spans pack_trace wrote, bit for bit.
obs::Trace unpack_trace(const std::string& bytes) {
  ByteReader r(bytes);
  obs::Trace trace;
  for (std::uint32_t n = r.u32("spans"); n > 0; --n) {
    std::string name = r.str("span name", bytes.size());
    const double start = r.f64("span start");
    const double duration = r.f64("span duration");
    std::vector<std::pair<std::string, std::string>> attrs(
        r.u32("span attributes"));
    for (auto& [key, value] : attrs) {
      key = r.str("attribute key", bytes.size());
      value = r.str("attribute value", bytes.size());
    }
    trace.record(std::move(name), start, duration, std::move(attrs));
  }
  return trace;
}

/// Decodes a terminal job's trace and, for a kDone job, its artifact bytes
/// into its outcome. Callers hold no service lock: the decode rebuilds
/// several circuits.
void attach_decoded(JobOutcome& out,
                    const std::shared_ptr<const std::string>& artifact,
                    const std::shared_ptr<const std::string>& trace) {
  if (trace) out.trace = unpack_trace(*trace);
  if (out.state == JobState::kDone && artifact) {
    out.result = decode_artifact(*artifact).result;
  }
}

}  // namespace

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kParseError: return "parse_error";
    case StatusCode::kCompileError: return "compile_error";
    case StatusCode::kLockError: return "lock_error";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kInternalError: return "internal_error";
  }
  return "unknown";
}

bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

ServiceStatus ServiceStatus::from_current_exception() {
  // Rethrow-and-classify: most-derived tetris errors first, then the family
  // base, then anything else.
  try {
    throw;
  } catch (const InvalidArgument& e) {
    return {StatusCode::kInvalidArgument, e.what()};
  } catch (const ParseError& e) {
    return {StatusCode::kParseError, e.what()};
  } catch (const CompileError& e) {
    return {StatusCode::kCompileError, e.what()};
  } catch (const LockError& e) {
    return {StatusCode::kLockError, e.what()};
  } catch (const std::exception& e) {
    return {StatusCode::kInternalError, e.what()};
  } catch (...) {
    return {StatusCode::kInternalError, "unknown exception"};
  }
}

std::uint64_t flow_fingerprint(const lock::FlowJob& job) {
  Fnv64 f;
  // Measured qubits (order matters: it is the output-register order).
  f.mix(static_cast<std::uint64_t>(job.measured.size()));
  for (int q : job.measured) f.mix(static_cast<std::uint64_t>(q));
  // Target: topology, basis, and noise rates all change the outcome.
  f.mix(job.target.name);
  f.mix(static_cast<std::uint64_t>(job.target.num_qubits()));
  f.mix(static_cast<std::uint64_t>(job.target.coupling.edges().size()));
  for (const auto& [a, b] : job.target.coupling.edges()) {
    f.mix(static_cast<std::uint64_t>(a));
    f.mix(static_cast<std::uint64_t>(b));
  }
  f.mix(static_cast<std::uint64_t>(job.target.basis.size()));
  for (qir::GateKind kind : job.target.basis) {  // std::set: sorted, canonical
    f.mix(static_cast<std::uint64_t>(kind));
  }
  f.mix(job.target.noise.name);
  f.mix(job.target.noise.p1);
  f.mix(job.target.noise.p2);
  f.mix(job.target.noise.readout);
  // FlowConfig: insertion + split knobs and the shot count.
  const lock::InsertionConfig& ins = job.config.insertion;
  f.mix(static_cast<std::uint64_t>(ins.max_random_gates));
  f.mix(ins.cx_probability);
  f.mix(static_cast<std::uint64_t>(ins.alphabet));
  f.mix(static_cast<std::uint64_t>(ins.attempts_per_gate));
  f.mix(static_cast<std::uint64_t>(ins.ensure_x_gate ? 1 : 0));
  f.mix(static_cast<std::uint64_t>(ins.allow_gap_insertion ? 1 : 0));
  const lock::SplitConfig& split = job.config.split;
  f.mix(split.interlock_fraction);
  f.mix(split.max_cut_depth_fraction);
  f.mix(static_cast<std::uint64_t>(job.config.shots));
  // Gate fusion IS mixed: fused kernels reorder floating-point arithmetic,
  // so a fused run's metrics are only tolerance-equal to unfused ones — a
  // cached unfused result must not answer a fused request or vice versa.
  f.mix(static_cast<std::uint64_t>(job.config.fusion ? 1 : 0));
  // The simulation engine is mixed only when it resolves off the
  // statevector default: every fingerprint minted before engines were
  // selectable (default/auto/explicit-statevector runs all resolve to the
  // statevector) is preserved, so existing cached artifacts stay valid,
  // while a non-default engine gets its own key — its counts only provably
  // match the statevector's on the Clifford grid.
  const sim::BackendKind resolved =
      sim::resolve_backend(job.config.backend, job.circuit);
  if (resolved != sim::BackendKind::kStateVector) {
    f.mix(sim::backend_kind_name(resolved));
  }
  // config.sample_threads is deliberately NOT mixed: the sharded sampler is
  // bit-identical at any fan-out, so it cannot change the cached result.
  return f.digest();
}

// --------------------------------------------------------------- JobHandle

JobState JobHandle::poll() const {
  TETRIS_REQUIRE(valid(), "JobHandle::poll on invalid handle");
  return service_->poll(*this);
}

JobOutcome JobHandle::outcome() const {
  TETRIS_REQUIRE(valid(), "JobHandle::outcome on invalid handle");
  return service_->outcome(*this);
}

JobOutcome JobHandle::wait() const {
  TETRIS_REQUIRE(valid(), "JobHandle::wait on invalid handle");
  return service_->wait(*this);
}

bool JobHandle::cancel() const {
  TETRIS_REQUIRE(valid(), "JobHandle::cancel on invalid handle");
  return service_->cancel(*this);
}

// ----------------------------------------------------------------- Service

std::size_t Service::CacheKeyHash::operator()(const ArtifactKey& k) const {
  auto combine = [](std::uint64_t a, std::uint64_t b) {
    return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  };
  std::uint64_t h = combine(k.circuit_hash, k.seed);
  return static_cast<std::size_t>(combine(h, k.fingerprint));
}

Service::Service(ServiceConfig config) : config_(std::move(config)) {
  if (config_.num_threads > 0) {
    private_pool_ = std::make_unique<runtime::ThreadPool>(config_.num_threads);
  }
  if (!config_.store_dir.empty()) {
    store_ = std::make_unique<ArtifactStore>(
        ArtifactStoreConfig{config_.store_dir, config_.store_max_entries});
  }
  obs::Registry& r = telemetry_;
  jobs_submitted_ = &r.counter("tetris_jobs_submitted_total",
                               "Jobs accepted by the service.");
  // Every registered engine gets both series up front, so zero tallies show.
  for (const sim::BackendInfo& info : sim::registered_backends()) {
    auto tally = [&](const char* state) {
      return &r.counter("tetris_jobs_terminal_total",
                        "Finished jobs by resolved engine and terminal state.",
                        {{"backend", info.name}, {"state", state}});
    };
    terminal_[info.kind] = {tally("done"), tally("failed")};
  }
  cache_hits_ = &r.counter("tetris_cache_hits_total",
                           "Result-cache hits (memory LRU).");
  cache_misses_ = &r.counter("tetris_cache_misses_total",
                             "Result-cache misses (memory LRU).");
  cache_evictions_ =
      &r.counter("tetris_cache_evictions_total",
                 "Result-cache entries dropped by the capacity bound.");
  cache_entries_ = &r.gauge("tetris_cache_entries",
                            "Results resident in the memory LRU.");
  r.gauge("tetris_cache_capacity", "Configured LRU bound (0 = disabled).")
      .set(static_cast<double>(config_.cache_capacity));
  if (store_) {
    store_loads_[0] = &r.counter("tetris_store_hits_total",
                                 "Artifact-store loads that hit.");
    store_loads_[1] = &r.counter("tetris_store_misses_total",
                                 "Artifact-store loads with no file.");
    store_loads_[2] = &r.counter("tetris_store_corrupt_total",
                                 "Artifact loads rejected as corrupt.");
    store_writes_ = &r.counter("tetris_store_writes_total",
                               "Artifacts persisted to disk.");
    store_evictions_ = &r.counter("tetris_store_evictions_total",
                                  "Artifact files removed by the entry cap.");
  }
  r.add_collector(
      [this](std::vector<obs::Family>& out) { collect_live(out); });
}

Service::~Service() {
  std::unique_lock<std::mutex> lk(mutex_);
  cv_.wait(lk, [this] { return outstanding_ == 0; });
  // private_pool_ (if any) tears down after every job has finished, so no
  // task can still reference this service.
}

runtime::ThreadPool& Service::pool() {
  return private_pool_ ? *private_pool_ : runtime::ThreadPool::global();
}

JobHandle Service::submit(lock::FlowJob job) {
  return submit(std::move(job), Rng::stream_seed(config_.base_seed, 0));
}

JobHandle Service::submit(lock::FlowJob job, std::uint64_t seed) {
  auto record = std::make_shared<JobRecord>();
  // The name and warnings only feed the outcome; the key and the run read
  // the rest of the job.
  record->name = std::move(job.name);
  record->warnings = std::move(job.warnings);
  record->config = job.config;
  record->resolved_backend =
      sim::resolve_backend(job.config.backend, job.circuit);
  record->seed = seed;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    record->id = static_cast<std::uint64_t>(records_.size()) + 1;
    records_.push_back(record);
    jobs_submitted_->inc();
    ++outstanding_;
  }
  enqueue(record, std::move(job));
  return JobHandle(this, record->id);
}

std::vector<JobHandle> Service::submit_all(std::vector<lock::FlowJob> jobs) {
  std::vector<JobHandle> handles;
  handles.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    handles.push_back(
        submit(std::move(jobs[i]), Rng::stream_seed(config_.base_seed, i)));
  }
  return handles;
}

void Service::enqueue(const std::shared_ptr<JobRecord>& record,
                      lock::FlowJob job) {
  // From inside a worker of the shared global pool, queueing and waiting
  // would deadlock the fixed pool (a pool task waiting for a pool task); run
  // the job inline instead.
  if (!private_pool_ && runtime::ThreadPool::on_worker_thread()) {
    execute(record, std::move(job));
    return;
  }
  // The future is intentionally dropped: completion is tracked by
  // outstanding_/cv_, and execute() never throws.
  pool().submit([this, record, job = std::move(job)]() mutable {
    execute(record, std::move(job));
  });
}

void Service::execute(const std::shared_ptr<JobRecord>& record,
                      lock::FlowJob job) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (record->state == JobState::kCancelled) {
      --outstanding_;
      cv_.notify_all();
      return;
    }
    record->state = JobState::kRunning;
  }

  // Timing starts before the trace is constructed, so every span offset and
  // duration fits inside the `seconds` window (the "span durations sum to
  // <= seconds" contract tests pin). Tracing is pure observation — it never
  // feeds back into the flow — so results stay bit-identical.
  const auto start = Clock::now();
  obs::Trace trace;
  const bool cache_enabled = config_.cache_capacity > 0;
  const bool store_enabled = store_ != nullptr;
  // The job's own triple keys the cache and the store, and is embedded in
  // the artifact bytes the finished record holds.
  const ArtifactKey key = artifact_key(job, record->seed);
  std::shared_ptr<const std::string> artifact;
  if (cache_enabled) {
    obs::ScopedSpan span(&trace, "cache.lookup");
    {
      std::lock_guard<std::mutex> lk(mutex_);
      auto it = cache_index_.find(key);
      if (it != cache_index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);  // mark most recently used
        artifact = it->second->artifact;
      }
    }
    (artifact ? cache_hits_ : cache_misses_)->inc();
    span.attr("tier", "memory").attr("hit", artifact ? "1" : "0");
  }
  const bool memory_hit = artifact != nullptr;

  // Memory miss -> disk tier. The load (file read + decode) runs outside
  // mutex_: artifact I/O must never serialize unrelated jobs.
  if (!artifact && store_enabled) {
    obs::ScopedSpan span(&trace, "store.read");
    LoadResult loaded = store_->load(key);
    store_loads_[static_cast<std::size_t>(loaded.status)]->inc();
    if (loaded.status == LoadStatus::kHit) {
      artifact = std::make_shared<const std::string>(std::move(loaded.bytes));
    }
    span.attr("hit", artifact ? "1" : "0");
  }
  const bool cache_hit = artifact != nullptr;

  // The actual work happens outside any lock; the result is encoded once,
  // and those bytes are what the record, the cache and the store keep.
  ServiceStatus status;
  if (!cache_hit) {
    try {
      Rng rng(record->seed);
      artifact = std::make_shared<const std::string>(encode_artifact(
          key, lock::run_flow(job.circuit, job.measured, job.target,
                              job.config, rng, &trace)));
    } catch (...) {
      status = ServiceStatus::from_current_exception();
    }
    // Persist before publishing, still outside mutex_ (the write is atomic
    // on the store's side). Failures are absorbed by the store — a broken
    // disk degrades durability, not the job.
    if (artifact && store_enabled) {
      obs::ScopedSpan span(&trace, "store.write");
      const StoreResult written = store_->store(key, *artifact);
      if (written.written) store_writes_->inc();
      store_evictions_->inc(written.evicted);
    }
  }

  // Every counter moves before the record turns terminal, so a caller
  // returning from wait() sees it. The record keeps the trace as packed
  // bytes; `job` is freed when this call returns, after the waiters are
  // woken, so a cache hit's latency does not include its release.
  observe_stages(trace);
  terminal_.at(record->resolved_backend)[artifact ? 0 : 1]->inc();
  auto packed = std::make_shared<const std::string>(pack_trace(trace));
  std::lock_guard<std::mutex> lk(mutex_);
  record->trace = std::move(packed);
  record->seconds = seconds_since(start);
  record->cache_hit = cache_hit;
  if (artifact) {
    // A disk hit is promoted so the next repeat stops in RAM; a fresh
    // result is cached. A memory hit is already resident.
    if (cache_enabled && !memory_hit) cache_insert_locked(key, artifact);
    record->artifact = std::move(artifact);
    record->state = JobState::kDone;
  } else {
    record->status = status;
    record->state = JobState::kFailed;
  }
  --outstanding_;
  cv_.notify_all();
}

std::shared_ptr<Service::JobRecord> Service::find(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  TETRIS_REQUIRE(id >= 1 && id <= records_.size(),
                 "Service: unknown job id " + std::to_string(id));
  return records_[static_cast<std::size_t>(id) - 1];
}

JobOutcome Service::outcome_locked(const JobRecord& record) const {
  JobOutcome out;
  out.id = record.id;
  out.name = record.name;
  out.seed = record.seed;
  out.state = record.state;
  out.status = record.status;
  out.cache_hit = record.cache_hit;
  out.seconds = record.seconds;
  out.shots = record.config.shots;
  out.sample_threads = record.config.sample_threads;
  out.fusion = record.config.fusion;
  out.backend = record.resolved_backend;
  out.warnings = record.warnings;
  return out;
}

JobOutcome Service::make_outcome(const std::shared_ptr<JobRecord>& record,
                                 std::unique_lock<std::mutex>& lk) const {
  JobOutcome out = outcome_locked(*record);
  // A terminal record's artifact and trace pointers never change.
  std::shared_ptr<const std::string> artifact = record->artifact;
  std::shared_ptr<const std::string> trace = record->trace;
  lk.unlock();
  attach_decoded(out, artifact, trace);
  lk.lock();
  return out;
}

JobHandle Service::handle(std::uint64_t id) {
  find(id);  // validates the id (throws InvalidArgument when unknown)
  return JobHandle(this, id);
}

JobState Service::poll(const JobHandle& handle) const {
  auto record = find(handle.id());
  std::lock_guard<std::mutex> lk(mutex_);
  return record->state;
}

JobOutcome Service::outcome(const JobHandle& handle) const {
  auto record = find(handle.id());
  std::unique_lock<std::mutex> lk(mutex_);
  // make_outcome decodes the result only for terminal (kDone) records,
  // whose artifact pointer is immutable; the drain cursor is never consulted.
  return make_outcome(record, lk);
}

JobOutcome Service::wait(const JobHandle& handle) const {
  auto record = find(handle.id());
  std::unique_lock<std::mutex> lk(mutex_);
  cv_.wait(lk, [&] { return is_terminal(record->state); });
  return make_outcome(record, lk);
}

bool Service::cancel(const JobHandle& handle) {
  auto record = find(handle.id());
  std::lock_guard<std::mutex> lk(mutex_);
  if (record->state != JobState::kQueued) return false;
  record->state = JobState::kCancelled;
  record->status = {StatusCode::kCancelled, "cancelled before execution"};
  cv_.notify_all();
  return true;
}

std::size_t Service::drain(
    const std::function<void(const JobOutcome&)>& sink) {
  std::unique_lock<std::mutex> lk(mutex_);
  const std::size_t end = records_.size();  // jobs submitted before the call
  std::size_t delivered = 0;
  while (drained_ < end) {
    // The cursor — not a captured record — is the wait predicate's anchor: a
    // concurrent drain may advance it while we sleep, and re-delivering the
    // job we captured would break the exactly-once contract.
    const std::size_t index = drained_;
    auto record = records_[index];
    cv_.wait(lk, [&] {
      return drained_ != index || is_terminal(record->state);
    });
    if (drained_ != index) continue;  // a sibling drain delivered this job
    JobOutcome out = outcome_locked(*record);
    auto artifact = record->artifact;
    auto trace = record->trace;
    ++drained_;
    ++delivered;
    cv_.notify_all();  // wake sibling drains watching the cursor
    lk.unlock();  // never hold the service lock across the decode or user code
    attach_decoded(out, artifact, trace);
    sink(out);
    lk.lock();
  }
  return delivered;
}

std::vector<JobOutcome> Service::wait_all() const {
  std::unique_lock<std::mutex> lk(mutex_);
  const std::size_t end = records_.size();
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(end);
  for (std::size_t i = 0; i < end; ++i) {
    auto record = records_[i];
    cv_.wait(lk, [&] { return is_terminal(record->state); });
    outcomes.push_back(make_outcome(record, lk));
  }
  return outcomes;
}

std::size_t Service::jobs_submitted() const {
  return static_cast<std::size_t>(jobs_submitted_->value());
}

CacheStats Service::cache_stats() const {
  CacheStats stats;
  stats.hits = static_cast<std::size_t>(cache_hits_->value());
  stats.misses = static_cast<std::size_t>(cache_misses_->value());
  stats.evictions = static_cast<std::size_t>(cache_evictions_->value());
  stats.entries = static_cast<std::size_t>(cache_entries_->value());
  stats.capacity = config_.cache_capacity;
  return stats;
}

void Service::cache_insert_locked(
    const ArtifactKey& key, std::shared_ptr<const std::string> artifact) {
  // Insert only if a concurrent job with the same triple didn't beat us to
  // it (cache stampede): a blind push would leave an unindexed duplicate in
  // lru_ whose eviction would erase the live entry's index.
  if (cache_index_.count(key) != 0) return;
  lru_.push_front(CacheEntry{key, std::move(artifact)});
  cache_index_[key] = lru_.begin();
  while (lru_.size() > config_.cache_capacity) {
    cache_index_.erase(lru_.back().key);
    lru_.pop_back();
    cache_evictions_->inc();
  }
  cache_entries_->set(static_cast<double>(lru_.size()));
}

void Service::clear_cache() {
  std::lock_guard<std::mutex> lk(mutex_);
  lru_.clear();
  cache_index_.clear();
  cache_entries_->set(0.0);
}

std::string Service::artifact_bytes(const JobHandle& handle) const {
  auto record = find(handle.id());
  std::shared_ptr<const std::string> artifact;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (record->state == JobState::kDone) artifact = record->artifact;
  }
  TETRIS_REQUIRE(artifact != nullptr,
                 "Service: job " + std::to_string(handle.id()) +
                     " has no artifact (only kDone jobs do)");
  return *artifact;
}

runtime::ThreadPool::Stats Service::pool_stats() const {
  return private_pool_ ? private_pool_->stats()
                       : runtime::ThreadPool::global().stats();
}

void Service::observe_stages(const obs::Trace& trace) {
  for (const obs::Span& span : trace.spans()) {
    telemetry_
        .histogram("tetris_job_stage_seconds",
                   "Wall time of one pipeline/service stage of a job.",
                   obs::latency_buckets(), {{"stage", span.name}})
        .observe(span.duration_seconds);
  }
}

void Service::collect_live(std::vector<obs::Family>& out) const {
  auto family = [&out](const char* name, const char* help, obs::Kind kind,
                       double value) {
    out.push_back(obs::Family{name, help, kind, {obs::Sample{{}, value}}, {}});
  };
  if (store_) {
    family("tetris_store_entries", "Artifact files currently on disk.",
           obs::Kind::kGauge, static_cast<double>(store_->entries()));
  }
  const runtime::ThreadPool::Stats pool = pool_stats();
  family("tetris_pool_threads", "Worker threads of the service pool.",
         obs::Kind::kGauge, static_cast<double>(pool.threads));
  family("tetris_pool_queue_depth", "Tasks waiting in the pool queue.",
         obs::Kind::kGauge, static_cast<double>(pool.queued));
  family("tetris_pool_active_workers", "Workers currently running a task.",
         obs::Kind::kGauge, static_cast<double>(pool.active));
  family("tetris_pool_tasks_submitted_total",
         "Tasks ever accepted by the pool.", obs::Kind::kCounter,
         static_cast<double>(pool.submitted));
  family("tetris_pool_tasks_completed_total",
         "Tasks the pool finished running.", obs::Kind::kCounter,
         static_cast<double>(pool.completed));
}

}  // namespace tetris::service

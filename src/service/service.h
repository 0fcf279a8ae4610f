#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "lock/pipeline.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "service/artifact_store.h"

namespace tetris::service {

/// Structured error family of the service layer. Exceptions thrown by the
/// pipeline never escape a Service call — they are mapped onto one of these
/// codes plus the exception message, so a front-end can branch on the class
/// of failure without parsing strings.
enum class StatusCode {
  kOk,
  kInvalidArgument,  ///< tetris::InvalidArgument (bad qubit index, shots, ...)
  kParseError,       ///< tetris::ParseError (malformed .real / .qasm input)
  kCompileError,     ///< tetris::CompileError (could not lower to target)
  kLockError,        ///< tetris::LockError (locking invariant violated)
  kCancelled,        ///< job cancelled before it started executing
  kInternalError,    ///< any other exception
};

/// Stable lower-snake name of a code ("ok", "invalid_argument", ...), used in
/// JSON output and log lines.
const char* status_code_name(StatusCode code);

/// Outcome classification of one service operation or job.
struct ServiceStatus {
  StatusCode code = StatusCode::kOk;
  std::string message;

  bool ok() const { return code == StatusCode::kOk; }

  /// Maps the in-flight exception to a status; call only inside a catch
  /// block. Specific tetris errors keep their class, everything else becomes
  /// kInternalError.
  static ServiceStatus from_current_exception();
};

/// Lifecycle of a submitted job.
enum class JobState {
  kQueued,     ///< accepted, waiting for a worker
  kRunning,    ///< a worker is executing the flow
  kDone,       ///< finished successfully; result is valid
  kFailed,     ///< finished with an error; status carries the code + message
  kCancelled,  ///< cancelled while still queued; it never executed
};

/// Stable lower-snake name of a state ("queued", "running", ...).
const char* job_state_name(JobState state);

/// True for kDone/kFailed/kCancelled — states a job can no longer leave.
/// Poll loops must test this, not `== kDone`, or they spin forever on a
/// failed or cancelled job.
bool is_terminal(JobState state);

/// Everything the service reports about one finished (or cancelled) job.
struct JobOutcome {
  std::uint64_t id = 0;       ///< submission-order id, starting at 1
  std::string name;           ///< FlowJob::name
  std::uint64_t seed = 0;     ///< effective RNG seed of this job
  JobState state = JobState::kQueued;
  ServiceStatus status;       ///< ok() iff state == kDone
  /// Result was served from a cache tier — the in-memory LRU or the disk
  /// artifact store — instead of re-running the flow. Indistinguishable from
  /// a re-run by the determinism contract.
  bool cache_hit = false;
  double seconds = 0.0;       ///< execution wall time (≈0 for cache hits)
  /// Sampler settings the job was configured with (FlowConfig::shots /
  /// ::sample_threads / ::fusion), echoed so JSON consumers can judge the
  /// statistical resolution of the fidelity metrics without the submitting
  /// code.
  std::size_t shots = 0;
  unsigned sample_threads = 0;  ///< 0 = shared the service pool
  bool fusion = false;          ///< gate fusion in the sampled runs
  /// Simulation engine the flow's sampled runs execute on: the job's
  /// FlowConfig::backend with kAuto already resolved against its circuit
  /// (sim::resolve_backend), fixed at submission. Never kAuto.
  sim::BackendKind backend = sim::BackendKind::kStateVector;
  /// Setup caveats carried over from FlowJob::warnings (e.g. the
  /// device_for ring-topology fallback). Serialized as a "warnings"
  /// array only when non-empty, so warning-free documents stay byte-identical
  /// to the pre-warnings schema.
  std::vector<std::string> warnings;
  /// Stage trace of this job's execution (docs/OBSERVABILITY.md): pipeline
  /// spans from lock::run_flow plus the service's own cache.lookup /
  /// store.read / store.write spans. Timing telemetry only — NOT part of the
  /// default JSON document, the artifact bytes, or the flow fingerprint, so
  /// every byte-identity pin is unaffected. Empty for cancelled jobs and for
  /// jobs finished before tracing existed.
  obs::Trace trace;
  lock::FlowResult result;    ///< valid only when state == kDone
};

/// Hit/miss counters of the result cache: a view over the service's
/// `tetris_cache_*` instruments (Service::cache_stats).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;      ///< lookups the memory tier could not answer
                               ///< (the disk store may still avoid the run)
  std::size_t evictions = 0;   ///< entries dropped by the LRU capacity bound
  std::size_t entries = 0;     ///< currently resident results
  std::size_t capacity = 0;    ///< configured bound (0 = cache disabled)
};

/// Service knobs.
struct ServiceConfig {
  /// Worker threads. 0 shares the process-global pool (sized by --jobs /
  /// TETRIS_THREADS); a positive value gives this service a private pool of
  /// exactly that size.
  unsigned num_threads = 0;
  /// Base seed from which per-job seeds are derived (see Service::submit).
  std::uint64_t base_seed = 2025;
  /// Result-cache capacity in entries; 0 disables caching entirely.
  std::size_t cache_capacity = 0;
  /// Directory of the disk-backed artifact store; empty disables it. When
  /// set, finished flows are persisted as versioned artifacts
  /// (service/artifact_store.h) and looked up behind the memory LRU, so a
  /// restarted service — or a sibling process sharing the directory — warm-
  /// starts from disk instead of recomputing.
  std::string store_dir;
  /// Artifact-store entry cap (oldest files evicted past it); 0 = unbounded.
  std::size_t store_max_entries = 0;
};

class Service;

/// Lightweight reference to a submitted job. Copyable; valid for the
/// lifetime of the Service that issued it.
class JobHandle {
 public:
  JobHandle() = default;

  std::uint64_t id() const { return id_; }
  bool valid() const { return service_ != nullptr; }

  /// Non-blocking state query.
  JobState poll() const;
  /// Non-blocking outcome snapshot (see Service::outcome).
  JobOutcome outcome() const;
  /// Blocks until the job is terminal and returns its full outcome.
  JobOutcome wait() const;
  /// Cancels the job if it has not started; returns true on success. A job
  /// that is already running, finished, or cancelled is unaffected.
  bool cancel() const;

 private:
  friend class Service;
  JobHandle(Service* service, std::uint64_t id) : service_(service), id_(id) {}

  Service* service_ = nullptr;
  std::uint64_t id_ = 0;
};

/// A stable fingerprint of everything besides the circuit and the seed that
/// influences a flow's outcome: the measured-qubit list, the full target
/// (topology, basis, noise rates), and the FlowConfig knobs. Together with
/// `Circuit::content_hash()` and the job seed this identifies a flow run
/// exactly — the triple the result cache keys on. Knobs that provably do
/// not change the outcome (FlowConfig::sample_threads: the sampler is
/// bit-identical at any fan-out) are excluded, so a cached result is shared
/// across thread settings. FlowConfig::backend is mixed only when it
/// *resolves* (sim::resolve_backend against the job's circuit) to a
/// non-statevector engine: default/auto/explicit-statevector runs keep the
/// fingerprints — and thus the cached artifacts — minted before engines
/// were selectable.
std::uint64_t flow_fingerprint(const lock::FlowJob& job);

/// The programmatic front door of the TetrisLock stack.
///
/// `Service` owns the worker pool and the result cache and turns the
/// synchronous `lock::run_flow` pipeline into an async job API:
///
///   service::Service svc({/*num_threads=*/0, /*base_seed=*/7,
///                         /*cache_capacity=*/128});
///   auto handle = svc.submit(lock::make_flow_job("adder", circuit));
///   while (!service::is_terminal(handle.poll())) { /* do other work */ }
///   auto outcome = handle.wait();  // kDone, kFailed, or kCancelled
///
/// Determinism: a job's randomness comes exclusively from its seed. The
/// two-argument `submit` takes the seed verbatim; the one-argument overload
/// uses `Rng::stream_seed(base_seed, 0)` and `submit_all` gives the i-th job
/// `Rng::stream_seed(base_seed, i)`, so a batch's per-job results depend on
/// (base_seed, index) alone and are bit-identical at any thread count or
/// completion order. Because outputs are a pure function of
/// (circuit, seed, fingerprint), serving a repeated triple from the cache is
/// indistinguishable from re-running it — with one caveat: circuit *names*
/// are reporting metadata excluded from `content_hash()`, so a cached
/// FlowResult's embedded circuits carry the names of the job that first
/// computed it (JobOutcome::name is always the submitting job's own name).
///
/// Thread safety: all public methods may be called concurrently. Exceptions
/// from the pipeline never escape — they surface as JobOutcome::status.
class Service {
 public:
  explicit Service(ServiceConfig config = {});
  /// Blocks until every accepted job has reached a terminal state.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Async submission. Returns immediately (unless called from inside a
  /// worker of the shared global pool, where the job runs inline to avoid
  /// pool deadlock — the handle is then already terminal).
  JobHandle submit(lock::FlowJob job);
  JobHandle submit(lock::FlowJob job, std::uint64_t seed);

  /// Submits jobs[i] with seed `Rng::stream_seed(base_seed, i)`; handles are
  /// in job order.
  std::vector<JobHandle> submit_all(std::vector<lock::FlowJob> jobs);

  /// Re-creates the handle of an already-submitted job from its id — the
  /// lookup a network front-end needs, where the caller holds only the id it
  /// was given at submission. Throws InvalidArgument for ids never issued.
  JobHandle handle(std::uint64_t id);

  JobState poll(const JobHandle& handle) const;
  /// Non-blocking snapshot of a job's current outcome. For a terminal job
  /// this is the same document `wait` returns; for a queued/running job the
  /// state is reported and the result fields are empty. Unlike `drain` this
  /// is repeatable — it never touches the once-only drain cursor, so a
  /// front-end can serve `GET /v1/jobs/{id}` any number of times.
  JobOutcome outcome(const JobHandle& handle) const;
  JobOutcome wait(const JobHandle& handle) const;
  bool cancel(const JobHandle& handle);

  /// Streaming consumption: delivers the outcome of every not-yet-drained
  /// job submitted before this call, in submission order, invoking `sink` as
  /// each job completes (it waits for stragglers, it does not reorder).
  /// Returns the number delivered. Each job is delivered exactly once across
  /// all drain calls.
  std::size_t drain(const std::function<void(const JobOutcome&)>& sink);

  /// Blocks until all jobs are terminal and returns every outcome in
  /// submission order (does not interact with drain's once-only cursor).
  std::vector<JobOutcome> wait_all() const;

  /// Views over the `tetris_jobs_submitted_total` and `tetris_cache_*`
  /// instruments.
  std::size_t jobs_submitted() const;
  CacheStats cache_stats() const;
  /// Drops all cached results (counters keep accumulating). Disk artifacts
  /// are untouched — clearing memory must not destroy durable state.
  void clear_cache();

  /// The versioned artifact encoding of a finished job: the
  /// docs/FORMATS.md envelope around its FlowResult, keyed with the job's
  /// own (content hash, seed, fingerprint) triple. These are the bytes the
  /// job record has held since the job finished — encoded once when it was
  /// computed, or the cache's or store file's bytes on a hit — so they are
  /// available whether or not a store is configured and byte-identical to
  /// the store's file for the same job. Throws InvalidArgument if the job is
  /// not kDone.
  std::string artifact_bytes(const JobHandle& handle) const;

  /// The disk artifact store, or nullptr when ServiceConfig::store_dir is
  /// empty. Exposed for the CLI's store summary and tests.
  const ArtifactStore* artifact_store() const { return store_.get(); }

  const ServiceConfig& config() const { return config_; }

  /// Point-in-time telemetry (width included) of the pool this service
  /// executes on.
  runtime::ThreadPool::Stats pool_stats() const;

  /// The service's metrics registry, the only storage of its counters: jobs
  /// submitted, terminal jobs per engine and state, cache, store, and the
  /// per-stage histograms (`tetris_job_stage_seconds{stage}`), plus one
  /// collector for the job pool and the store's file count. Counters move
  /// before the job they count turns terminal, so `wait()` callers see them.
  obs::Registry& telemetry() { return telemetry_; }
  const obs::Registry& telemetry() const { return telemetry_; }

 private:
  struct JobRecord {
    std::uint64_t id = 0;
    lock::FlowJob job;
    /// FlowConfig::backend resolved against the job's circuit at submission
    /// (one is_clifford scan there instead of one per outcome snapshot).
    sim::BackendKind resolved_backend = sim::BackendKind::kStateVector;
    std::uint64_t seed = 0;
    JobState state = JobState::kQueued;
    ServiceStatus status;
    bool cache_hit = false;
    double seconds = 0.0;
    /// A kDone job's result as its artifact bytes (encode_artifact under
    /// the job's key), shared with the cache and immutable once the record
    /// is terminal. Records are never dropped, so they keep these bytes
    /// rather than a live FlowResult (a done 4mod5 job retains ~16 KB in
    /// all instead of ~42 KB); each outcome decodes them outside the
    /// service mutex.
    std::shared_ptr<const std::string> artifact;
    /// Stage trace recorded by execute(); attached when the record turns
    /// terminal and immutable afterwards (same discipline as `artifact`).
    std::shared_ptr<const obs::Trace> trace;
  };

  struct CacheKeyHash {
    std::size_t operator()(const ArtifactKey& k) const;
  };
  struct CacheEntry {
    ArtifactKey key;
    std::shared_ptr<const std::string> artifact;
  };

  runtime::ThreadPool& pool();
  void enqueue(const std::shared_ptr<JobRecord>& record);
  void execute(const std::shared_ptr<JobRecord>& record);
  /// Inserts a result (unless a concurrent job beat us to the key) and
  /// evicts past capacity; caller holds mutex_. The one insert site.
  void cache_insert_locked(const ArtifactKey& key,
                           std::shared_ptr<const std::string> artifact);
  /// Collector: values other objects own live (pool stats, store files).
  /// Takes no service mutex.
  void collect_live(std::vector<obs::Family>& out) const;
  /// Records every span of a finished trace into the per-stage histograms.
  void observe_stages(const obs::Trace& trace);
  /// Copies the metadata fields only; the result is attached by
  /// make_outcome, which drops the lock to decode the artifact bytes.
  JobOutcome outcome_locked(const JobRecord& record) const;
  JobOutcome make_outcome(const std::shared_ptr<JobRecord>& record,
                          std::unique_lock<std::mutex>& lk) const;
  std::shared_ptr<JobRecord> find(std::uint64_t id) const;

  ServiceConfig config_;
  std::unique_ptr<runtime::ThreadPool> private_pool_;
  /// Disk tier behind the memory LRU; internally synchronized, so execute()
  /// does its file I/O without holding mutex_.
  std::unique_ptr<ArtifactStore> store_;

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::vector<std::shared_ptr<JobRecord>> records_;  // submission order
  std::size_t outstanding_ = 0;  // accepted but not yet terminal
  std::size_t drained_ = 0;      // drain cursor into records_

  // LRU result cache: most-recently-used at the front of lru_, with an index
  // into it by key. Guarded by mutex_.
  std::list<CacheEntry> lru_;
  std::unordered_map<ArtifactKey, std::list<CacheEntry>::iterator,
                     CacheKeyHash>
      cache_index_;

  /// Instruments are registered in the constructor; afterwards only these
  /// cached pointers are touched, so no registry lookup runs under mutex_.
  obs::Registry telemetry_;
  obs::Counter* jobs_submitted_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* cache_evictions_ = nullptr;
  obs::Gauge* cache_entries_ = nullptr;
  /// Artifact-store outcome counters, loads indexed by LoadStatus; null
  /// without a store.
  obs::Counter* store_loads_[3] = {};
  obs::Counter* store_writes_ = nullptr;
  obs::Counter* store_evictions_ = nullptr;
  /// `tetris_jobs_terminal_total` per registered engine: {done, failed}.
  std::map<sim::BackendKind, std::array<obs::Counter*, 2>> terminal_;
};

}  // namespace tetris::service

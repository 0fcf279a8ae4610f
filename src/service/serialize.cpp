#include "service/serialize.h"

namespace tetris::service {

void flow_result_fields(json::Writer& w, const lock::FlowResult& r) {
  w.key("depth_original").value(r.depth_original);
  w.key("depth_obfuscated").value(r.depth_obfuscated);
  w.key("gates_original").value(r.gates_original);
  w.key("gates_obfuscated").value(r.gates_obfuscated);
  w.key("inserted_gates").value(r.obf.inserted_gates());
  w.key("split_widths")
      .begin_array()
      .value(r.splits.first.circuit.num_qubits())
      .value(r.splits.second.circuit.num_qubits())
      .end_array();
  w.key("tvd_obfuscated").value(r.tvd_obfuscated);
  w.key("tvd_restored").value(r.tvd_restored);
  w.key("accuracy_original").value(r.accuracy_original);
  w.key("accuracy_restored").value(r.accuracy_restored);
}

std::string to_json(const lock::FlowResult& r, int indent) {
  json::Writer w(indent);
  w.begin_object();
  flow_result_fields(w, r);
  w.end_object();
  return w.str();
}

void job_outcome_object(json::Writer& w, const JobOutcome& outcome,
                        bool include_timing) {
  w.begin_object();
  w.key("id").value(outcome.id);
  w.key("name").value(outcome.name);
  w.key("seed").value(outcome.seed);
  w.key("state").value(job_state_name(outcome.state));
  w.key("status").begin_object();
  w.key("code").value(status_code_name(outcome.status.code));
  if (!outcome.status.message.empty()) {
    w.key("message").value(outcome.status.message);
  }
  w.end_object();
  w.key("cache_hit").value(outcome.cache_hit);
  // Sampler settings as configured (not the effective pool width, which is
  // run-dependent): lets consumers judge the shot-noise error bars of the
  // fidelity metrics, sqrt(p*(1-p)/shots) per sampled probability.
  w.key("sampler").begin_object();
  w.key("shots").value(outcome.shots);
  w.key("threads").value(outcome.sample_threads);
  // Emitted only when on: documents with fusion off stay byte-identical to
  // the pre-fusion schema.
  if (outcome.fusion) w.key("fusion").value(true);
  // Resolved engine, emitted only off the statevector default — same
  // stay-byte-identical policy as fusion (and the same condition under
  // which flow_fingerprint mixes it).
  if (outcome.backend != sim::BackendKind::kStateVector) {
    w.key("backend").value(sim::backend_kind_name(outcome.backend));
  }
  w.end_object();
  // Setup caveats (e.g. the device_for topology fallback), emitted
  // only when present — warning-free documents keep the pre-warnings schema
  // byte for byte.
  if (!outcome.warnings.empty()) {
    w.key("warnings").begin_array();
    for (const std::string& warning : outcome.warnings) w.value(warning);
    w.end_array();
  }
  if (include_timing) w.key("seconds").value(outcome.seconds);
  if (outcome.state == JobState::kDone) {
    w.key("result").begin_object();
    flow_result_fields(w, outcome.result);
    w.end_object();
  }
  w.end_object();
}

std::string to_json(const JobOutcome& outcome, bool include_timing,
                    int indent) {
  json::Writer w(indent);
  job_outcome_object(w, outcome, include_timing);
  return w.str();
}

std::string trace_to_json(const JobOutcome& outcome, int indent) {
  json::Writer w(indent);
  w.begin_object();
  w.key("schema").value("tetrislock.trace.v1");
  w.key("id").value(outcome.id);
  w.key("name").value(outcome.name);
  w.key("state").value(job_state_name(outcome.state));
  w.key("seconds").value(outcome.seconds);
  w.key("spans").begin_array();
  for (const obs::Span& span : outcome.trace.spans()) {
    w.begin_object();
    w.key("name").value(span.name);
    w.key("start_seconds").value(span.start_seconds);
    w.key("duration_seconds").value(span.duration_seconds);
    if (!span.attrs.empty()) {
      w.key("attrs").begin_object();
      for (const auto& [key, value] : span.attrs) {
        w.key(key).value(value);
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string batch_to_json(const std::vector<JobOutcome>& outcomes,
                          unsigned threads, double wall_seconds,
                          const CacheStats* cache, bool include_timing,
                          int indent) {
  std::size_t failures = 0;
  std::size_t cancelled = 0;
  for (const JobOutcome& o : outcomes) {
    if (o.state == JobState::kFailed) ++failures;
    if (o.state == JobState::kCancelled) ++cancelled;
  }

  json::Writer w(indent);
  w.begin_object();
  w.key("schema").value("tetrislock.batch.v1");
  w.key("jobs").value(outcomes.size());
  w.key("failures").value(failures);
  w.key("cancelled").value(cancelled);
  w.key("threads").value(threads);
  if (include_timing) {
    w.key("wall_seconds").value(wall_seconds);
    w.key("jobs_per_second")
        .value(wall_seconds > 0.0
                   ? static_cast<double>(outcomes.size()) / wall_seconds
                   : 0.0);
  }
  if (cache != nullptr) {
    w.key("cache").begin_object();
    w.key("hits").value(cache->hits);
    w.key("misses").value(cache->misses);
    w.key("evictions").value(cache->evictions);
    w.key("entries").value(cache->entries);
    w.key("capacity").value(cache->capacity);
    w.end_object();
  }
  w.key("items").begin_array();
  for (const JobOutcome& o : outcomes) {
    job_outcome_object(w, o, include_timing);
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace tetris::service

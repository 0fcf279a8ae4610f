#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "lock/pipeline.h"
#include "service/service.h"

namespace tetris::service {

/// JSON serialization of the service layer's result types, so a front-end or
/// shell pipeline can consume flow outcomes without linking the library.
///
/// All documents are deterministic: field order is fixed and doubles are
/// formatted with shortest round-trip precision, so bit-identical results
/// serialize to byte-identical text. Timing fields (wall-clock seconds and
/// throughput) are the only run-dependent values; pass
/// `include_timing = false` to omit them when diffing documents across runs
/// or thread counts.

/// Schema tags carried in the "schema" field of the status documents, so
/// consumers (dispatcher aggregation, CI smoke scripts, dashboards) can
/// version-check before reading counters. kStatusSchema names one node's
/// GET /v1/status document; kDispatchStatusSchema names the dispatcher's
/// cross-node aggregation (docs/API.md has both layouts). Since v2 every
/// counter in either document sits under "metrics", rendered by
/// obs::write_json from the same family list as GET /metrics.
inline constexpr const char* kStatusSchema = "tetrislock.status.v2";
inline constexpr const char* kDispatchStatusSchema =
    "tetrislock.dispatch_status.v2";

/// Appends the FlowResult metric fields to an object the caller has already
/// opened on `w` (composition point for custom envelopes).
void flow_result_fields(json::Writer& w, const lock::FlowResult& r);

/// One FlowResult as a standalone JSON object.
std::string to_json(const lock::FlowResult& r, int indent = 2);

/// Appends one job outcome as a complete JSON object value: id, name, seed,
/// state, status, cache_hit, the sampler settings used (shots / threads, as
/// configured on the job), [seconds,] and the result fields when done.
void job_outcome_object(json::Writer& w, const JobOutcome& outcome,
                        bool include_timing = true);

/// One JobOutcome as a standalone JSON object.
std::string to_json(const JobOutcome& outcome, bool include_timing = true,
                    int indent = 2);

/// The standalone trace document of one job — `GET /v1/jobs/{id}/trace` and
/// CLI `--trace`. Deliberately a SEPARATE document from the job JSON above:
/// span timings are run-dependent by nature, and keeping them out of
/// `job_outcome_object` is what keeps the default job document byte-identical
/// across runs, thread counts, and telemetry on/off (docs/OBSERVABILITY.md).
/// Layout: {schema, id, name, state, seconds, spans: [{name, start_seconds,
/// duration_seconds, attrs{...}}]}.
std::string trace_to_json(const JobOutcome& outcome, int indent = 2);

/// A whole batch: summary counts, optional wall-clock/throughput timing,
/// optional cache counters, and the per-job outcomes in submission order.
/// This is the document `tetrislock_cli protect --batch --out-json` writes.
std::string batch_to_json(const std::vector<JobOutcome>& outcomes,
                          unsigned threads, double wall_seconds,
                          const CacheStats* cache = nullptr,
                          bool include_timing = true, int indent = 2);

}  // namespace tetris::service

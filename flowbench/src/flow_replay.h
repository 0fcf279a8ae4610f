#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "lock/pipeline.h"
#include "sim/sampler.h"
#include "spans.h"

namespace flowbench {

/// The three sampled views of a flow, in the order lock::run_flow samples
/// them.
enum View { kObfuscated = 0, kRestored = 1, kBaseline = 2 };
inline constexpr int kViews = 3;
const char* view_name(int view);

/// One flow replayed stage by stage.
struct Replay {
  tetris::lock::FlowResult result;
  tetris::qir::Circuit masked_compiled;  ///< compiled R.C (obfuscated view)
  std::array<std::vector<int>, kViews> measured;  ///< physical wires per view
  tetris::sim::BackendKind backend = tetris::sim::BackendKind::kStateVector;
  tetris::sim::Counts restored;  ///< the restored view's histogram
};

/// The compiled circuit a view samples.
const tetris::qir::Circuit& view_circuit(const Replay& replay, int view);

/// Replays one flow by calling the library's public stage functions in the
/// order lock::run_flow calls them (obfuscate, split, recombine, baseline
/// compile, reference, masked compile, three samples), with the same seed,
/// so the FlowResult is bit-identical to the Service's. When `spans` is set,
/// each call gets a span under one "flow" root; the masked compile gets its
/// own span instead of being charged to the obfuscated view's sample.
Replay replay_flow(const tetris::lock::FlowJob& job, std::uint64_t seed,
                   FlowSpans* spans);

/// The restored view's histogram of a finished flow, re-sampled from the
/// flow's own recombined circuit with the generator state run_flow had at
/// that point (obfuscate and split re-run to advance it; the obfuscated
/// view's sample consumes exactly one draw).
tetris::sim::Counts restored_counts(const tetris::lock::FlowJob& job,
                                    std::uint64_t seed,
                                    const tetris::lock::FlowResult& result);

/// Verdict of the output checks on one finished flow.
struct FlowCheck {
  std::string failure;  ///< empty when the flow passes
  /// The masked circuit R.C's expected output differs from the source's,
  /// i.e. the random insertion reached a measured bit.
  bool masked = false;
};

/// Output checks of one finished flow against `expected`, the source
/// circuit's output from flowbench::expected_output:
///  - the restored view's most frequent outcome must be `expected`;
///  - the restored TVD recomputed against `expected` as a point mass must
///    equal the flow's own tvd_restored bit for bit;
///  - when the insertion reached a measured bit (FlowCheck::masked), the
///    obfuscated TVD must exceed the restored TVD. When it did not, R.C
///    computes the source's output and both TVDs are sampling noise around
///    the same point, so that comparison would judge noise;
///  - obfuscation must not add depth (depth_obfuscated == depth_original).
FlowCheck check_flow(const tetris::lock::FlowJob& job,
                     const tetris::lock::FlowResult& result,
                     const tetris::sim::Counts& restored,
                     const std::string& expected);

/// Probe-only measurements of one view, kept out of the traced replay so
/// they cannot inflate its time.
struct ViewProbe {
  bool statevector = false;
  double errorfree_s = 0.0;     ///< sim::sample with gate errors zeroed
  double errored_frac = 0.0;    ///< modelled 1 - prod(1 - p_i)
  std::size_t gates = 0;        ///< gates the view replays
  // Statevector views only:
  double plan_s = 0.0;          ///< sim::FusionPlan::build
  double sweep_reduction = 0.0; ///< FusionStats::sweep_reduction
  double ideal_s = 0.0;         ///< apply_circuit, or apply_fused if fused
  double sweep_bytes = 0.0;     ///< 32 B x 2^n x sweeps of that ideal run
};
std::array<ViewProbe, kViews> probe_views(const tetris::lock::FlowJob& job,
                                          const Replay& replay,
                                          std::uint64_t seed);

}  // namespace flowbench

#include "flow_replay.h"

#include <cmath>
#include <map>
#include <optional>

#include "common/rng.h"
#include "compiler/compiler.h"
#include "lock/deobfuscate.h"
#include "lock/obfuscator.h"
#include "lock/splitter.h"
#include "metrics/metrics.h"
#include "reference.h"
#include "sim/fusion.h"
#include "sim/statevector.h"

namespace flowbench {

using namespace tetris;

namespace {

/// The two untrusted compilers of lock::run_flow.
compiler::CompileOptions first_options(const compiler::Target& target) {
  return {target, compiler::LayoutStrategy::GreedyDegree, true, std::nullopt};
}
compiler::CompileOptions second_options(const compiler::Target& target) {
  return {target, compiler::LayoutStrategy::Trivial, true, std::nullopt};
}

std::vector<int> map_measured(const std::vector<int>& measured,
                              const std::vector<int>& orig_to_phys) {
  std::vector<int> out;
  out.reserve(measured.size());
  for (int q : measured) out.push_back(orig_to_phys.at(static_cast<std::size_t>(q)));
  return out;
}

sim::SampleOptions sample_options(const lock::FlowJob& job) {
  sim::SampleOptions opts;
  opts.shots = job.config.shots;
  opts.threads = job.config.sample_threads;
  opts.fuse = job.config.fusion;
  opts.backend = sim::resolve_backend(job.config.backend, job.circuit);
  return opts;
}

double since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

}  // namespace

const char* view_name(int view) {
  switch (view) {
    case kObfuscated: return "obfuscated";
    case kRestored: return "restored";
    case kBaseline: return "baseline";
  }
  return "unknown";
}

const qir::Circuit& view_circuit(const Replay& replay, int view) {
  switch (view) {
    case kObfuscated: return replay.masked_compiled;
    case kRestored: return replay.result.recombined.circuit;
    default: return replay.result.baseline.circuit;
  }
}

Replay replay_flow(const lock::FlowJob& job, std::uint64_t seed,
                   FlowSpans* spans) {
  const qir::Circuit& circuit = job.circuit;
  const lock::FlowConfig& config = job.config;
  Replay out;
  lock::FlowResult& r = out.result;
  Rng rng(seed);
  ScopedSpan flow(spans, "flow", -1, job.name);
  const int root = flow.id();

  {
    ScopedSpan s(spans, "lock.obfuscate", root);
    r.obf = lock::Obfuscator(config.insertion).obfuscate(circuit, rng);
  }
  {
    ScopedSpan s(spans, "lock.split", root);
    r.splits = lock::InterlockSplitter(config.split).split(r.obf, rng);
  }
  {
    ScopedSpan s(spans, "lock.recombine", root);
    r.recombined = lock::Deobfuscator().run(r.splits, circuit.num_qubits(),
                                            first_options(job.target),
                                            second_options(job.target));
  }
  {
    ScopedSpan s(spans, "compile.baseline", root);
    r.baseline = compiler::Compiler(first_options(job.target)).compile(circuit);
  }
  r.depth_original = circuit.depth();
  r.depth_obfuscated = r.obf.circuit.depth();
  r.gates_original = circuit.gate_count();
  r.gates_obfuscated = r.obf.circuit.gate_count();

  std::map<std::string, double> reference;
  std::string correct;
  {
    ScopedSpan s(spans, "sim.reference", root);
    if (circuit.is_classical()) {
      correct = sim::classical_outcome(circuit, job.measured);
      reference[correct] = 1.0;
    } else {
      reference = sim::ideal_distribution(circuit, job.measured);
    }
  }

  sim::SampleOptions opts = sample_options(job);
  out.backend = opts.backend;
  const std::string engine = sim::backend_kind_name(opts.backend);
  {
    ScopedSpan s(spans, "compile.masked", root);
    auto compiled = compiler::Compiler(first_options(job.target))
                        .compile(r.obf.masked());
    out.masked_compiled = std::move(compiled.circuit);
    out.measured[kObfuscated] = map_measured(job.measured, compiled.final_layout);
  }
  out.measured[kRestored] = map_measured(job.measured, r.recombined.orig_to_phys);
  out.measured[kBaseline] = map_measured(job.measured, r.baseline.final_layout);

  for (int v = 0; v < kViews; ++v) {
    opts.measured = out.measured[static_cast<std::size_t>(v)];
    sim::Counts counts;
    {
      ScopedSpan s(spans, "sim.sample", root,
                   std::string(view_name(v)) + "/" + engine);
      counts = sim::sample(view_circuit(out, v), job.target.noise, rng, opts);
    }
    if (v == kObfuscated) {
      r.tvd_obfuscated = metrics::tvd(counts, reference);
    } else if (v == kRestored) {
      r.tvd_restored = metrics::tvd(counts, reference);
      if (!correct.empty()) r.accuracy_restored = metrics::accuracy(counts, correct);
      out.restored = std::move(counts);
    } else if (!correct.empty()) {
      r.accuracy_original = metrics::accuracy(counts, correct);
    }
  }
  return out;
}

sim::Counts restored_counts(const lock::FlowJob& job, std::uint64_t seed,
                            const lock::FlowResult& result) {
  Rng rng(seed);
  const lock::ObfuscatedCircuit obf =
      lock::Obfuscator(job.config.insertion).obfuscate(job.circuit, rng);
  lock::InterlockSplitter(job.config.split).split(obf, rng);
  rng.next_u64();  // the obfuscated view's sample draw
  sim::SampleOptions opts = sample_options(job);
  opts.measured = map_measured(job.measured, result.recombined.orig_to_phys);
  return sim::sample(result.recombined.circuit, job.target.noise, rng, opts);
}

FlowCheck check_flow(const lock::FlowJob& job, const lock::FlowResult& result,
                     const sim::Counts& restored, const std::string& expected) {
  FlowCheck out;
  out.masked = expected_output(result.obf.masked(), job.measured) != expected;
  if (restored.histogram.empty()) {
    out.failure = "restored view has no shots";
    return out;
  }
  const std::string mode = restored.mode();
  const std::map<std::string, double> point{{expected, 1.0}};
  const double tvd = metrics::tvd(restored, point);
  if (mode != expected) {
    out.failure = "restored view's most frequent outcome " + mode +
                  " differs from the expected " + expected;
  } else if (tvd != result.tvd_restored) {
    out.failure = "restored TVD against the expected output (" +
                  std::to_string(tvd) + ") differs from the flow's (" +
                  std::to_string(result.tvd_restored) + ")";
  } else if (out.masked && !(result.tvd_obfuscated > result.tvd_restored)) {
    out.failure = "obfuscated TVD " + std::to_string(result.tvd_obfuscated) +
                  " is not above restored TVD " +
                  std::to_string(result.tvd_restored);
  } else if (result.depth_obfuscated != result.depth_original) {
    out.failure = "obfuscation changed depth " +
                  std::to_string(result.depth_original) + " -> " +
                  std::to_string(result.depth_obfuscated);
  }
  return out;
}

std::array<ViewProbe, kViews> probe_views(const lock::FlowJob& job,
                                          const Replay& replay,
                                          std::uint64_t seed) {
  std::array<ViewProbe, kViews> out{};
  const sim::NoiseModel& noise = job.target.noise;
  sim::NoiseModel readout_only = noise;
  readout_only.p1 = 0.0;
  readout_only.p2 = 0.0;
  sim::SampleOptions opts = sample_options(job);

  for (int v = 0; v < kViews; ++v) {
    ViewProbe& p = out[static_cast<std::size_t>(v)];
    const qir::Circuit& c = view_circuit(replay, v);
    p.gates = c.gate_count();
    double survive = 1.0;
    for (const auto& g : c.gates()) {
      if (g.kind == qir::GateKind::Barrier) continue;
      survive *= 1.0 - (g.num_qubits() >= 2 ? noise.p2 : noise.p1);
    }
    p.errored_frac = 1.0 - survive;

    opts.measured = replay.measured[static_cast<std::size_t>(v)];
    Rng rng(seed);
    auto start = Clock::now();
    sim::sample(c, readout_only, rng, opts);
    p.errorfree_s = since(start);

    p.statevector = replay.backend == sim::BackendKind::kStateVector;
    if (!p.statevector) continue;
    start = Clock::now();
    const sim::FusionPlan plan = sim::FusionPlan::build(c);
    p.plan_s = since(start);
    p.sweep_reduction = plan.stats().sweep_reduction();

    sim::StateVector sv(c.num_qubits());
    start = Clock::now();
    if (job.config.fusion) {
      sv.apply_fused(plan);
    } else {
      sv.apply_circuit(c);
    }
    p.ideal_s = since(start);
    const double sweeps = job.config.fusion
                              ? static_cast<double>(plan.stats().ops_out)
                              : static_cast<double>(plan.stats().gates_in);
    p.sweep_bytes = 32.0 * std::ldexp(1.0, c.num_qubits()) * sweeps;
  }
  return out;
}

}  // namespace flowbench

#include "lock/pipeline.h"

#include <utility>

#include "common/error.h"
#include "metrics/metrics.h"
#include "sim/sampler.h"

namespace tetris::lock {

namespace {

/// Maps the measured original qubits through a logical->physical layout.
std::vector<int> map_measured(const std::vector<int>& measured,
                              const std::vector<int>& orig_to_phys) {
  std::vector<int> out;
  out.reserve(measured.size());
  for (int o : measured) {
    TETRIS_REQUIRE(o >= 0 && o < static_cast<int>(orig_to_phys.size()),
                   "map_measured: qubit out of range");
    out.push_back(orig_to_phys[static_cast<std::size_t>(o)]);
  }
  return out;
}

}  // namespace

FlowResult run_flow(const qir::Circuit& circuit,
                    const std::vector<int>& measured,
                    const compiler::Target& target, const FlowConfig& config,
                    Rng& rng, obs::Trace* trace) {
  FlowResult result;

  // --- Designer side: obfuscate and split. ---
  {
    obs::ScopedSpan span(trace, "lock.obfuscate");
    span.attr("qubits", static_cast<std::uint64_t>(circuit.num_qubits()))
        .attr("gates", static_cast<std::uint64_t>(circuit.gate_count()));
    Obfuscator obfuscator(config.insertion);
    result.obf = obfuscator.obfuscate(circuit, rng);
  }

  {
    obs::ScopedSpan span(trace, "lock.split");
    span.attr("gates",
              static_cast<std::uint64_t>(result.obf.circuit.gate_count()));
    InterlockSplitter splitter(config.split);
    result.splits = splitter.split(result.obf, rng);
  }

  // --- Untrusted compilers. Two independent instances; the second one's
  //     initial layout is pinned by the designer during de-obfuscation. ---
  compiler::CompileOptions first_options{target,
                                         compiler::LayoutStrategy::GreedyDegree,
                                         /*run_optimizer=*/true,
                                         std::nullopt};
  compiler::CompileOptions second_options{target,
                                          compiler::LayoutStrategy::Trivial,
                                          /*run_optimizer=*/true,
                                          std::nullopt};
  {
    obs::ScopedSpan span(trace, "lock.recombine");
    Deobfuscator deob;
    result.recombined =
        deob.run(result.splits, circuit.num_qubits(), first_options,
                 second_options);
  }

  // --- Reference compilation of the unprotected circuit. ---
  {
    obs::ScopedSpan span(trace, "compile");
    span.attr("view", "baseline")
        .attr("gates", static_cast<std::uint64_t>(circuit.gate_count()));
    compiler::Compiler baseline_compiler(first_options);
    result.baseline = baseline_compiler.compile(circuit);
  }

  // --- Size metrics. ---
  result.depth_original = circuit.depth();
  result.depth_obfuscated = result.obf.circuit.depth();
  result.gates_original = circuit.gate_count();
  result.gates_obfuscated = result.obf.circuit.gate_count();

  // --- Simulation metrics. ---
  // Reference distribution. A classical circuit (every RevLib benchmark)
  // has a point-mass reference at its deterministic outcome, computed by
  // bit propagation — the permutation kernels keep amplitudes exactly 0/1,
  // so this equals ideal_distribution bit for bit where both exist, and
  // unlike it stays available at 50+ qubits where no 2^n statevector fits.
  std::map<std::string, double> reference;
  std::string correct;
  {
    obs::ScopedSpan span(trace, "sim.reference");
    span.attr("classical", circuit.is_classical() ? "1" : "0");
    if (circuit.is_classical()) {
      correct = sim::classical_outcome(circuit, measured);
      reference[correct] = 1.0;
    } else {
      reference = sim::ideal_distribution(circuit, measured);
    }
  }

  sim::SampleOptions opts;
  opts.shots = config.shots;
  // Shots shard over the pool this flow executes on (see SampleOptions);
  // the counts are bit-identical at any fan-out.
  opts.threads = config.sample_threads;
  // Gate fusion applies only to the sampled runs; the ideal reference
  // distribution above stays unfused so the exact reference never moves.
  opts.fuse = config.fusion;
  // Resolve kAuto once, against the source circuit: the compiled views are
  // Clifford exactly when the source is (the compiler's {X, SX, RZ, CX}
  // output stays on the quarter-turn lattice and every insertion alphabet
  // is Clifford), so one engine consistently serves all three runs below —
  // and it is the same engine service::flow_fingerprint keys on.
  opts.backend = sim::resolve_backend(config.backend, circuit);

  // One sim.sample span per sampled view; the fusion pass runs inside
  // sim::sample, so it shows up as the `fused` attribute here rather than as
  // a separate sim.fuse span.
  auto sample_span = [&](const char* view) {
    obs::ScopedSpan span(trace, "sim.sample");
    span.attr("view", view)
        .attr("shots", static_cast<std::uint64_t>(opts.shots))
        .attr("backend", sim::backend_kind_name(opts.backend))
        .attr("fused", opts.fuse ? "1" : "0");
    return span;
  };

  // Obfuscated view: the masked circuit R.C an adversary would run, compiled
  // on the same backend (paper Sec. V-C). Its compile gets its own span,
  // closed before sampling starts, so sim.sample is charged only sampling.
  {
    compiler::CompileResult compiled_masked;
    {
      obs::ScopedSpan span(trace, "compile");
      const qir::Circuit masked = result.obf.masked();
      span.attr("view", "obfuscated")
          .attr("gates", static_cast<std::uint64_t>(masked.gate_count()));
      compiler::Compiler masked_compiler(first_options);
      compiled_masked = masked_compiler.compile(masked);
    }
    auto span = sample_span("obfuscated");
    opts.measured = map_measured(measured, compiled_masked.final_layout);
    auto counts = sim::sample(compiled_masked.circuit, target.noise, rng, opts);
    result.tvd_obfuscated = metrics::tvd(counts, reference);
  }

  // Restored view: the recombined split-compiled circuit.
  {
    auto span = sample_span("restored");
    opts.measured = map_measured(measured, result.recombined.orig_to_phys);
    auto counts =
        sim::sample(result.recombined.circuit, target.noise, rng, opts);
    result.tvd_restored = metrics::tvd(counts, reference);
    if (!correct.empty()) {
      result.accuracy_restored = metrics::accuracy(counts, correct);
    }
  }

  // Baseline accuracy of the unprotected compiled circuit.
  {
    auto span = sample_span("baseline");
    opts.measured = map_measured(measured, result.baseline.final_layout);
    auto counts = sim::sample(result.baseline.circuit, target.noise, rng, opts);
    if (!correct.empty()) {
      result.accuracy_original = metrics::accuracy(counts, correct);
    }
  }

  return result;
}

FlowJob make_flow_job(std::string name, qir::Circuit circuit,
                      std::vector<int> measured, FlowConfig config) {
  FlowJob job;
  compiler::DeviceSelection sel = compiler::device_for(circuit.num_qubits());
  job.target = std::move(sel.target);
  if (sel.fallback) job.warnings.push_back(std::move(sel.note));
  if (measured.empty()) {
    measured.reserve(static_cast<std::size_t>(circuit.num_qubits()));
    for (int q = 0; q < circuit.num_qubits(); ++q) measured.push_back(q);
  }
  job.name = std::move(name);
  job.circuit = std::move(circuit);
  job.measured = std::move(measured);
  job.config = config;
  return job;
}

}  // namespace tetris::lock

// Gate-fusion + SIMD throughput: fused vs unfused statevector execution
// across a register-width sweep, in both kernel modes (scalar reference and
// AVX2 when the host has it), on layered circuits shaped like compiled
// views: an rz.sx.rz chain on every qubit, then CX pairs, and a Toffoli
// every third layer.
//
// Every gate of the unfused path costs one amplitude sweep. The fusion pass
// (sim/fusion.h) multiplies each qubit's chain into one 2x2, so a layer's
// 3n single-qubit sweeps become n dense ones, while the CX pairs and the
// Toffolis run the same subspace kernels in both paths. At 4 qubits the
// whole register lives in L1 and fusion only saves loop overhead; at 16-20
// qubits every saved sweep is a saved pass over a multi-megabyte array.
//
// **Roofline.** Each sweep reads and writes every amplitude once, so its
// traffic model is 32 bytes per amplitude (complex<double> in + out):
// sweep_bytes = 32 * 2^n * sweeps. Dividing by the measured run time gives
// the achieved GB/s, reported against a memcpy bandwidth probe
// (stream_gbps) — the fraction tells how close the kernels sit to the
// memory roof. Scalar kernels are compute-bound (libstdc++ complex
// multiplies); the AVX2 kernels close most of that gap, which is where the
// SIMD speedup comes from.
//
// Flags (bench_util.h): --shots N sets the gate count per circuit (yes,
// "shots" — the shared flag set keeps the CI smoke invocation uniform
// across benches), --iterations N the timed repetitions per width, --seed,
// --out the JSON path (default BENCH_fusion.json). Every sweep runs on the
// calling thread.
//
// The harness is also a correctness gate; any violation makes the exit
// status non-zero, which is what CI checks. For every width the SIMD-fused
// state must equal the scalar-fused one and the SIMD-unfused state the
// scalar-unfused one byte for byte (memcmp: the AVX2 kernels compute the
// scalar kernels' bits, zero signs and NaN payloads included), and the
// scalar-fused state must agree with the scalar-unfused reference within
// --tolerance (fixed 1e-9: fusion multiplies gate matrices, which reorders
// rounding). The speedup numbers are reported but NOT gated; they depend on
// the host, so regenerate the checked-in JSON on the hardware you care
// about.
//
// CI runs `bench_fusion_throughput --shots 64 --iterations 2` as a smoke
// check, validates the JSON with `python -m json.tool`, and on an AVX2
// runner requires the JSON to say "simd_mode": "avx2".

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "qir/circuit.h"
#include "sim/fusion.h"
#include "sim/kernels/simd.h"
#include "sim/statevector.h"

namespace {

using namespace tetris;
using sim::kernels::SimdMode;

/// Compiled-view-shaped workload: per layer, an rz.sx.rz chain on every
/// qubit (one merged 2x2 each), CX pairs on alternating offsets
/// (passthrough), and a Toffoli every third layer (passthrough).
qir::Circuit layered_circuit(int n, int gates, Rng& rng) {
  qir::Circuit c(n, "fusion_bench");
  int layer = 0;
  while (static_cast<int>(c.size()) < gates) {
    for (int q = 0; q < n && static_cast<int>(c.size()) < gates; ++q) {
      const double before = rng.uniform() * 3.1;
      const double after = rng.uniform() * 3.1;
      c.rz(before, q).sx(q).rz(after, q);
    }
    for (int q = layer % 2; q + 1 < n && static_cast<int>(c.size()) < gates;
         q += 2) {
      c.cx(q, q + 1);
    }
    if (n >= 3 && ++layer % 3 == 0 && static_cast<int>(c.size()) < gates) {
      c.ccx(0, 1, 2);
    }
  }
  return c;
}

struct WidthPoint {
  int qubits = 0;
  std::size_t gates = 0;
  std::size_t sweeps_unfused = 0;
  std::size_t sweeps_fused = 0;
  double sweep_reduction = 0.0;
  double plan_seconds = 0.0;
  // Scalar-mode timings (the byte-identity reference path).
  double unfused_seconds = 0.0;
  double fused_seconds = 0.0;
  double speedup = 0.0;  ///< scalar fused vs scalar unfused
  // SIMD-mode timings; 0 when the host has no AVX2.
  double simd_unfused_seconds = 0.0;
  double simd_fused_seconds = 0.0;
  double speedup_simd_vs_scalar_fused = 0.0;
  // Roofline: modelled traffic of the fused run (32 bytes per amplitude per
  // sweep) and the bandwidth the fastest fused run achieved against it.
  double sweep_bytes = 0.0;
  double fused_gbps = 0.0;
  double roofline_fraction = 0.0;  ///< fused_gbps / stream_gbps
  double max_abs_diff = 0.0;       ///< scalar fused vs scalar unfused
  /// SIMD fused has scalar fused's bytes and SIMD unfused scalar unfused's.
  bool simd_identical = true;
};

/// True when `a` and `b` hold the same amplitude bytes.
bool same_bytes(const sim::StateVector& a, const sim::StateVector& b) {
  return a.dim() == b.dim() &&
         std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                     a.dim() * sizeof(sim::cplx)) == 0;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Memcpy bandwidth probe: best of 3 passes over a 32 MiB buffer (well past
/// L3 on the target machines), counting read + write bytes. This is the
/// "roof" the sweep bandwidths are reported against.
double measure_stream_gbps() {
  const std::size_t bytes = std::size_t{32} << 20;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    auto start = std::chrono::steady_clock::now();
    std::memcpy(dst.data(), src.data(), bytes);
    const double s = seconds_since(start);
    if (s > 0.0) best = std::max(best, 2.0 * bytes / s / 1e9);
    std::swap(src, dst);  // keep the optimizer from eliding a pass
  }
  return best;
}

void write_json(const std::string& path, const benchutil::Args& args,
                double tolerance, bool tolerance_ok,
                bool simd_identical, bool avx2, double stream_gbps,
                const std::vector<WidthPoint>& sweep) {
  json::Writer w;
  w.begin_object();
  w.key("bench").value("fusion_throughput");
  w.key("gates_per_circuit").value(args.shots);
  w.key("iterations").value(args.iterations);
  w.key("seed").value(args.seed);
  w.key("simd_mode").value(avx2 ? "avx2" : "scalar");
  w.key("stream_gbps").value(stream_gbps);
  w.key("tolerance").value(tolerance);
  w.key("tolerance_ok").value(tolerance_ok);
  w.key("simd_identical").value(simd_identical);
  w.key("results").begin_array();
  for (const WidthPoint& p : sweep) {
    w.begin_object();
    w.key("qubits").value(p.qubits);
    w.key("gates").value(p.gates);
    w.key("sweeps_unfused").value(p.sweeps_unfused);
    w.key("sweeps_fused").value(p.sweeps_fused);
    w.key("sweep_reduction").value(p.sweep_reduction);
    w.key("plan_seconds").value(p.plan_seconds);
    w.key("unfused_seconds").value(p.unfused_seconds);
    w.key("fused_seconds").value(p.fused_seconds);
    w.key("speedup_fused_vs_unfused").value(p.speedup);
    if (avx2) {
      w.key("simd_unfused_seconds").value(p.simd_unfused_seconds);
      w.key("simd_fused_seconds").value(p.simd_fused_seconds);
      w.key("speedup_simd_vs_scalar_fused")
          .value(p.speedup_simd_vs_scalar_fused);
      w.key("simd_identical").value(p.simd_identical);
    }
    w.key("sweep_bytes").value(p.sweep_bytes);
    w.key("fused_gbps").value(p.fused_gbps);
    w.key("roofline_fraction").value(p.roofline_fraction);
    w.key("max_abs_diff").value(p.max_abs_diff);
    w.end_object();
  }
  w.end_array();
  // The acceptance-relevant numbers: best ratios at >= 16 qubits (0 when
  // the sweep never reaches that width / the host has no AVX2).
  double wide_speedup = 0.0;
  double wide_simd = 0.0;
  for (const WidthPoint& p : sweep) {
    if (p.qubits >= 16) {
      wide_speedup = std::max(wide_speedup, p.speedup);
      wide_simd = std::max(wide_simd, p.speedup_simd_vs_scalar_fused);
    }
  }
  w.key("speedup_at_width_16_plus").value(wide_speedup);
  w.key("speedup_simd_fused_at_width_16_plus").value(wide_simd);
  w.end_object();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  out << w.str() << "\n";
  std::cout << "wrote " << path << "\n";
}

/// Times `iterations` full applications of the plan (or circuit) under a
/// forced SIMD mode, leaving the final state in `sv`.
template <typename Apply>
double timed_run(sim::StateVector& sv, int iterations, Apply&& apply) {
  auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    sv.reset();
    apply(sv);
  }
  return seconds_since(start) / iterations;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = benchutil::parse_args(argc, argv);
  const std::string out_path = args.out.empty() ? "BENCH_fusion.json" : args.out;
  const int gates = static_cast<int>(std::max<std::size_t>(8, args.shots));
  const int iterations = std::max(1, args.iterations);
  constexpr double kTolerance = 1e-9;
  const bool avx2 = sim::kernels::avx2_available();
  const SimdMode ambient = sim::kernels::simd_mode();
  const double stream_gbps = measure_stream_gbps();

  // 20 qubits = 16 MiB of amplitudes — past typical L3, the memory-bound
  // regime where each sweep fusion saves is a pass over main memory.
  const std::vector<int> widths = {4, 8, 12, 16, 18, 20};
  std::cout << "workload: layered rz.sx.rz + cx circuits, " << gates
            << " gates x " << iterations << " iterations, simd "
            << (avx2 ? "avx2" : "scalar-only") << ", memcpy roof "
            << fmt_double(stream_gbps, 1) << " GB/s\n\n";
  benchutil::Table table({"qubits", "sweeps", "scalar fused", "simd fused",
                          "simd/scalar", "GB/s", "max|diff|", "simd==scalar"},
                         {7, 12, 13, 11, 12, 7, 16, 13});
  table.print_header();

  std::vector<WidthPoint> sweep;
  bool tolerance_ok = true;
  bool simd_identical = true;
  for (int n : widths) {
    Rng rng(args.seed + static_cast<std::uint64_t>(n));
    auto circuit = layered_circuit(n, gates, rng);

    auto plan_start = std::chrono::steady_clock::now();
    auto plan = sim::FusionPlan::build(circuit);
    WidthPoint point;
    point.plan_seconds = seconds_since(plan_start);
    point.qubits = n;
    point.gates = circuit.gate_count();
    point.sweeps_unfused = plan.stats().gates_in;
    point.sweeps_fused = plan.stats().ops_out;
    point.sweep_reduction = plan.stats().sweep_reduction();

    // Scalar reference: unfused then fused, both forced scalar.
    sim::kernels::set_simd_mode(SimdMode::kScalar);
    sim::StateVector reference(n);
    point.unfused_seconds = timed_run(reference, iterations, [&](auto& sv) {
      sv.apply_circuit(circuit);
    });
    sim::StateVector fused(n);
    point.fused_seconds = timed_run(fused, iterations, [&](auto& sv) {
      sv.apply_fused(plan);
    });
    point.speedup = point.fused_seconds > 0.0
                        ? point.unfused_seconds / point.fused_seconds
                        : 0.0;
    point.max_abs_diff = fused.max_abs_diff(reference);

    // AVX2: same runs under the vector kernels, each gated for byte
    // equality with its scalar counterpart.
    if (avx2) {
      sim::kernels::set_simd_mode(SimdMode::kAvx2);
      sim::StateVector simd_unfused(n);
      point.simd_unfused_seconds =
          timed_run(simd_unfused, iterations, [&](auto& sv) {
            sv.apply_circuit(circuit);
          });
      sim::StateVector simd_fused(n);
      point.simd_fused_seconds =
          timed_run(simd_fused, iterations, [&](auto& sv) {
            sv.apply_fused(plan);
          });
      point.speedup_simd_vs_scalar_fused =
          point.simd_fused_seconds > 0.0
              ? point.fused_seconds / point.simd_fused_seconds
              : 0.0;
      point.simd_identical = same_bytes(simd_fused, fused) &&
                             same_bytes(simd_unfused, reference);
    }
    if (!(point.max_abs_diff < kTolerance)) tolerance_ok = false;
    if (!point.simd_identical) simd_identical = false;

    // Roofline: modelled fused-run traffic vs the fastest fused time.
    const double amps = std::pow(2.0, n);
    point.sweep_bytes = 32.0 * amps * static_cast<double>(point.sweeps_fused);
    const double best_fused = avx2 && point.simd_fused_seconds > 0.0
                                  ? std::min(point.fused_seconds,
                                             point.simd_fused_seconds)
                                  : point.fused_seconds;
    if (best_fused > 0.0) point.fused_gbps = point.sweep_bytes / best_fused / 1e9;
    if (stream_gbps > 0.0) {
      point.roofline_fraction = point.fused_gbps / stream_gbps;
    }

    table.print_row(
        {std::to_string(n),
         std::to_string(point.sweeps_unfused) + "->" +
             std::to_string(point.sweeps_fused),
         fmt_double(point.fused_seconds, 4),
         avx2 ? fmt_double(point.simd_fused_seconds, 4) : "-",
         avx2 ? fmt_double(point.speedup_simd_vs_scalar_fused, 2) + "x" : "-",
         fmt_double(point.fused_gbps, 1),
         fmt_double(point.max_abs_diff, 12),
         avx2 ? (point.simd_identical ? "yes" : "NO") : "-"});
    sweep.push_back(point);
  }
  sim::kernels::set_simd_mode(ambient);

  std::cout << "\nfused within " << kTolerance
            << " of unfused at every width: "
            << (tolerance_ok ? "yes" : "NO — KERNEL CORRECTNESS BUG") << "\n";
  if (avx2) {
    std::cout << "SIMD bit-identical to scalar at every width: "
              << (simd_identical ? "yes" : "NO — KERNEL CORRECTNESS BUG")
              << "\n";
  }
  write_json(out_path, args, kTolerance, tolerance_ok, simd_identical, avx2,
             stream_gbps, sweep);
  return tolerance_ok && simd_identical ? 0 : 1;
}

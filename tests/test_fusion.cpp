// Differential-testing harness for the gate-fusion engine (sim/fusion.h).
//
// The load-bearing properties, each pinned here:
//  - fused execution is tolerance-equal to unfused execution AND to the dense
//    sim::unitary reference, on randomized 4-12 qubit circuits, and
//    bit-identical wherever no qubit holds two gates of one window;
//  - the sharded fused sampler gives identical histograms at 1, 2, and 8
//    worker threads;
//  - a plan never merges across a Barrier gate (the fence contract);
//  - fusion is opt-in: SampleOptions defaults to fuse == false, and the
//    default equals an explicit fuse=false run exactly. (Byte-identity of
//    fuse-off output against a literally pre-fusion build cannot be pinned
//    from inside one build; it was verified against a pre-PR binary — see
//    CHANGES.md — and the all-barriers test below pins the in-build
//    equivalent: passthrough plans run the exact apply_circuit path.)

#include "sim/fusion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "qir/circuit.h"
#include "runtime/thread_pool.h"
#include "sim/noise.h"
#include "sim/sampler.h"
#include "sim/statevector.h"
#include "sim/unitary.h"

namespace tetris::sim {
namespace {

/// Random circuit biased toward fusible structure: dense single-qubit runs,
/// repeated two-qubit pairs, plus the non-fusible kinds (CCX) and barriers
/// so every planner branch is exercised.
qir::Circuit random_fusible(int n, int gates, Rng& rng) {
  qir::Circuit c(n, "fusible");
  for (int g = 0; g < gates; ++g) {
    int q0 = rng.uniform_int(0, n - 1);
    int q1 = rng.uniform_int(0, n - 2);
    if (q1 >= q0) ++q1;
    switch (rng.uniform_int(0, 11)) {
      case 0: c.h(q0); break;
      case 1: c.t(q0); break;
      case 2: c.s(q0); break;
      case 3: c.x(q0); break;
      case 4: c.rx(rng.uniform() * 3.1, q0); break;
      case 5: c.rz(rng.uniform() * 3.1, q0); break;
      case 6: c.cx(q0, q1); break;
      case 7: c.cz(q0, q1); break;
      case 8: c.add(qir::make_cp(rng.uniform() * 3.1, q0, q1)); break;
      case 9: c.swap(q0, q1); break;
      case 10: {
        int q2 = rng.uniform_int(0, n - 1);
        if (q2 == q0 || q2 == q1 || n < 3) {
          c.cx(q0, q1);
        } else {
          c.add(qir::make_ccx(q0, q1, q2));
        }
        break;
      }
      default: c.barrier(); break;
    }
  }
  return c;
}

/// Random circuit in which no qubit holds two gates of one single-qubit
/// window, so the plan merges nothing: each two-qubit gate (often on the
/// previous pair, in either orientation) is followed by at most one rotation
/// or Clifford per qubit, the pair's wires first. So every 2q gate starts a
/// pair window (gates within one qubit pair), which a planner building 4x4
/// pair products would merge.
qir::Circuit random_unmerged(int n, int gates, Rng& rng) {
  qir::Circuit c(n, "unmerged");
  int a = 0, b = 1;
  while (static_cast<int>(c.size()) < gates) {
    if (rng.uniform_int(0, 2) == 0) {
      a = rng.uniform_int(0, n - 1);
      b = rng.uniform_int(0, n - 2);
      if (b >= a) ++b;
    } else if (rng.uniform_int(0, 1) == 0) {
      std::swap(a, b);
    }
    if (rng.uniform_int(0, 3) == 0) {
      c.cz(a, b);
    } else {
      c.cx(a, b);
    }
    std::vector<int> wires = {a, b};
    for (int q = 0; q < n; ++q) {
      if (q != a && q != b && rng.uniform_int(0, 2) == 0) wires.push_back(q);
    }
    for (int q : wires) {
      switch (rng.uniform_int(0, 6)) {
        case 0: c.rx(rng.uniform() * 6.2, q); break;
        case 1: c.ry(rng.uniform() * 6.2, q); break;
        case 2: c.rz(rng.uniform() * 6.2, q); break;
        case 3: c.h(q); break;
        case 4: c.sx(q); break;
        default: break;  // no gate: CX-CX on one pair when both skip
      }
    }
  }
  return c;
}

/// Max element-wise |a - b| over two equally-sized unitaries.
double unitary_max_diff(const Unitary& a, const Unitary& b) {
  EXPECT_EQ(a.num_qubits, b.num_qubits);
  double mx = 0.0;
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    mx = std::max(mx, std::abs(a.data[i] - b.data[i]));
  }
  return mx;
}

/// True when no fused op's source range [first_gate, first_gate+gate_count)
/// contains the fence index `fence` strictly inside it.
bool no_op_spans(const FusionPlan& plan, std::size_t fence) {
  for (const FusedOp& op : plan.ops()) {
    if (op.first_gate < fence && fence < op.first_gate + op.gate_count) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ plan structure

TEST(FusionPlan, SingleQubitRunFusesToOneOp) {
  qir::Circuit c(2);
  c.h(0).t(0).s(0);
  auto plan = FusionPlan::build(c);
  ASSERT_EQ(plan.ops().size(), 1u);
  EXPECT_EQ(plan.ops()[0].kind, FusedOp::Kind::kSingle);
  EXPECT_EQ(plan.ops()[0].gate_count, 3u);
  EXPECT_EQ(plan.stats().gates_in, 3u);
  EXPECT_EQ(plan.stats().ops_out, 1u);
  EXPECT_EQ(plan.stats().gates_fused, 3u);
  EXPECT_NEAR(plan.stats().sweep_reduction(), 2.0 / 3.0, 1e-12);

  StateVector fused(2), unfused(2);
  fused.apply_fused(plan);
  unfused.apply_circuit(c);
  EXPECT_LT(fused.max_abs_diff(unfused), 1e-12);
}

TEST(FusionPlan, DistinctQubitsPassThroughInStreamOrder) {
  qir::Circuit c(3);
  c.h(0).x(1).t(2);
  auto plan = FusionPlan::build(c);
  ASSERT_EQ(plan.ops().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.ops()[i].kind, FusedOp::Kind::kGate);
    EXPECT_EQ(plan.ops()[i].first_gate, i);
    EXPECT_EQ(plan.ops()[i].gate.qubits[0], static_cast<int>(i));
  }
  EXPECT_EQ(plan.stats().gates_fused, 0u);
}

TEST(FusionPlan, WindowMergesEachQubitsGatesAtItsFirstGate) {
  // q0 appears twice inside the window: its gates multiply into one 2x2,
  // placed where its first gate was; q1's lone gate passes through.
  qir::Circuit c(2);
  c.h(0).x(1).t(0);
  auto plan = FusionPlan::build(c);
  ASSERT_EQ(plan.ops().size(), 2u);
  EXPECT_EQ(plan.ops()[0].kind, FusedOp::Kind::kSingle);
  EXPECT_EQ(plan.ops()[0].single.qubit, 0);
  EXPECT_EQ(plan.ops()[0].first_gate, 0u);
  EXPECT_EQ(plan.ops()[0].gate_count, 2u);
  EXPECT_EQ(plan.ops()[1].kind, FusedOp::Kind::kGate);
  EXPECT_EQ(plan.ops()[1].first_gate, 1u);
  EXPECT_EQ(plan.stats().gates_fused, 2u);

  StateVector fused(2), unfused(2);
  fused.apply_fused(plan);
  unfused.apply_circuit(c);
  EXPECT_LT(fused.max_abs_diff(unfused), 1e-12);
}

TEST(FusionPlan, PairWindowsPassThrough) {
  // Two-qubit gates and the 1q gates on their wires stay separate ops, so
  // each CX keeps its swap kernel and the run equals the gate stream.
  qir::Circuit c(2);
  c.h(0).cx(0, 1).rz(0.7, 1).cx(1, 0).h(0);
  auto plan = FusionPlan::build(c);
  ASSERT_EQ(plan.ops().size(), 5u);
  for (const FusedOp& op : plan.ops()) {
    EXPECT_EQ(op.kind, FusedOp::Kind::kGate);
  }

  StateVector fused(2), unfused(2);
  fused.apply_fused(plan);
  unfused.apply_circuit(c);
  EXPECT_EQ(fused.max_abs_diff(unfused), 0.0);
}

TEST(FusionPlan, LoneAndWideGatesPassThrough) {
  qir::Circuit c(3);
  c.ccx(0, 1, 2).cx(0, 1).ccx(1, 2, 0).h(2);
  auto plan = FusionPlan::build(c);
  ASSERT_EQ(plan.ops().size(), 4u);
  for (const FusedOp& op : plan.ops()) {
    EXPECT_EQ(op.kind, FusedOp::Kind::kGate);
    EXPECT_EQ(op.gate_count, 1u);
  }
  EXPECT_EQ(plan.stats().gates_fused, 0u);
  EXPECT_DOUBLE_EQ(plan.stats().sweep_reduction(), 0.0);
}

// ------------------------------------------------------------------ fences

TEST(FusionPlan, BarrierIsAFusionFence) {
  qir::Circuit c(2);
  c.h(0).t(0).barrier().h(0).t(0);  // barrier at gate index 2
  auto plan = FusionPlan::build(c);
  ASSERT_EQ(plan.ops().size(), 2u);
  EXPECT_EQ(plan.ops()[0].kind, FusedOp::Kind::kSingle);
  EXPECT_EQ(plan.ops()[1].kind, FusedOp::Kind::kSingle);
  EXPECT_EQ(plan.ops()[0].first_gate, 0u);
  EXPECT_EQ(plan.ops()[0].gate_count, 2u);
  EXPECT_EQ(plan.ops()[1].first_gate, 3u);
  EXPECT_EQ(plan.ops()[1].gate_count, 2u);
  EXPECT_EQ(plan.stats().barriers, 1u);
  EXPECT_TRUE(no_op_spans(plan, 2));

  StateVector fused(2), unfused(2);
  fused.apply_fused(plan);
  unfused.apply_circuit(c);
  EXPECT_LT(fused.max_abs_diff(unfused), 1e-12);
}

TEST(FusionPlan, BarrierSplitsAQubitsWindow) {
  // h(0) sits alone before the barrier (index 1); after it, q0's t and s
  // merge around q1's lone h.
  qir::Circuit c(2);
  c.h(0).barrier().t(0).h(1).s(0);
  auto plan = FusionPlan::build(c);
  ASSERT_EQ(plan.ops().size(), 3u);
  EXPECT_EQ(plan.ops()[0].kind, FusedOp::Kind::kGate);
  EXPECT_EQ(plan.ops()[1].kind, FusedOp::Kind::kSingle);
  EXPECT_EQ(plan.ops()[1].first_gate, 2u);
  EXPECT_EQ(plan.ops()[1].gate_count, 2u);
  EXPECT_EQ(plan.ops()[2].kind, FusedOp::Kind::kGate);
  EXPECT_EQ(plan.ops()[2].first_gate, 3u);
  EXPECT_TRUE(no_op_spans(plan, 1));
}

TEST(FusionPlan, FenceBeforeEveryGateIsBitIdenticalToApplyCircuit) {
  // All-passthrough plans run the exact apply_gate code path, so this is an
  // exact (bitwise) check — the `--fuse` off-path contract in miniature.
  Rng rng(7);
  auto c = random_fusible(6, 80, rng);
  qir::Circuit fenced(6);
  for (const qir::Gate& g : c.gates()) fenced.add(g).barrier();
  auto plan = FusionPlan::build(fenced);
  EXPECT_EQ(plan.stats().gates_fused, 0u);

  StateVector fused(6), unfused(6);
  fused.apply_fused(plan);
  unfused.apply_circuit(c);
  EXPECT_EQ(fused.max_abs_diff(unfused), 0.0);
}

// ------------------------------------------------------- differential sweep

TEST(FusionDifferential, RandomCircuitsFusedVsUnfusedVsDenseReference) {
  Rng rng(2025);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 4 + (trial % 9);  // 4..12 qubits
    auto c = random_fusible(n, 70, rng);
    auto plan = FusionPlan::build(c);
    EXPECT_LE(plan.stats().ops_out, plan.stats().gates_in);

    StateVector fused(n), unfused(n);
    fused.apply_fused(plan);
    unfused.apply_circuit(c);
    EXPECT_LT(fused.max_abs_diff(unfused), 1e-10)
        << "n=" << n << " trial=" << trial;

    // Dense operator-level reference where the O(4^n) build is affordable.
    if (n <= 7) {
      auto dense = build_unitary(c);
      auto dense_fused = build_unitary_fused(c, plan);
      EXPECT_LT(unitary_max_diff(dense_fused, dense), 1e-10)
          << "n=" << n << " trial=" << trial;
      // And the state the fused run produced is the reference column of |0>.
      double mx = 0.0;
      for (std::size_t i = 0; i < fused.dim(); ++i) {
        mx = std::max(mx, std::abs(fused.amplitudes()[i] - dense.at(i, 0)));
      }
      EXPECT_LT(mx, 1e-10) << "n=" << n << " trial=" << trial;
    }
  }
}

// Where no qubit holds two gates of one window the plan is the gate stream
// itself, so the fused run equals the unfused one to the bit, zero signs
// included: pair windows keep their subspace kernels instead of becoming a
// 4x4 product that rounds differently.
TEST(FusionDifferential, UnmergedPairWindowsBitIdenticalToApplyCircuit) {
  Rng rng(77);
  for (int trial = 0; trial < 18; ++trial) {
    const int n = 2 + (trial % 9);  // 2..10 qubits
    auto c = random_unmerged(n, 90, rng);
    auto plan = FusionPlan::build(c);
    EXPECT_EQ(plan.stats().gates_fused, 0u) << "n=" << n;

    StateVector fused(n), unfused(n);
    fused.apply_fused(plan);
    unfused.apply_circuit(c);
    EXPECT_EQ(std::memcmp(fused.amplitudes().data(),
                          unfused.amplitudes().data(),
                          fused.dim() * sizeof(cplx)),
              0)
        << "n=" << n << " trial=" << trial;
  }
}

// ------------------------------------------------------------------ sampler

TEST(FusionSampler, FuseDefaultsOffAndEqualsExplicitOff) {
  Rng crng(11);
  auto c = random_fusible(6, 40, crng);
  NoiseModel noise = NoiseModel::fake_valencia();

  SampleOptions defaults_opts;
  defaults_opts.shots = 500;           // fuse left at its default
  EXPECT_FALSE(defaults_opts.fuse);    // fusion must stay opt-in
  SampleOptions off = defaults_opts;
  off.fuse = false;

  Rng rng_a(99), rng_b(99);
  auto counts_default = sample(c, noise, rng_a, defaults_opts);
  auto counts_off = sample(c, noise, rng_b, off);
  EXPECT_EQ(counts_default.histogram, counts_off.histogram);
}

TEST(FusionSampler, NoisyCircuitFusedCloseToUnfused) {
  // Noise channels fire between fusible gates on every trajectory; errored
  // shots re-simulate unfused, so a fused run may differ from the unfused
  // one only through FP round-off in the ideal run's amplitudes. The two
  // histograms must agree to far better than shot noise.
  Rng crng(31);
  qir::Circuit c(5);
  // Deep fusible runs with 2q gates interleaved — worst case for a planner
  // that (wrongly) fused across noise sites.
  for (int layer = 0; layer < 6; ++layer) {
    for (int q = 0; q < 5; ++q) c.h(q);
    for (int q = 0; q < 5; ++q) c.t(q);
    c.cx(0, 1).cx(2, 3).cz(3, 4);
  }
  NoiseModel noise;
  noise.p1 = 0.02;
  noise.p2 = 0.05;
  noise.readout = 0.01;
  noise.name = "stress";

  SampleOptions fused_opts, unfused_opts;
  fused_opts.shots = unfused_opts.shots = 3000;
  fused_opts.fuse = true;
  unfused_opts.fuse = false;

  Rng rng_a(123), rng_b(123);
  auto fused = sample(c, noise, rng_a, fused_opts);
  auto unfused = sample(c, noise, rng_b, unfused_opts);
  ASSERT_EQ(fused.shots, unfused.shots);

  auto da = fused.distribution();
  auto db = unfused.distribution();
  double tvd = 0.0;
  for (const auto& [k, v] : da) {
    auto it = db.find(k);
    tvd += std::abs(v - (it == db.end() ? 0.0 : it->second));
  }
  for (const auto& [k, v] : db) {
    if (da.find(k) == da.end()) tvd += v;
  }
  tvd *= 0.5;
  // FP round-off can flip a shot only when a uniform draw lands within
  // ~1e-13 of a bin boundary; any real fusion-across-noise bug shows up as
  // tens of percent here.
  EXPECT_LT(tvd, 0.02);
}

TEST(FusionSampler, FusedCountsBitIdenticalAcrossThreadCounts) {
  // With `fuse` fixed ON, the sharded sampler's determinism contract is
  // unchanged: identical histograms at any fan-out.
  Rng crng(47);
  auto c = random_fusible(6, 50, crng);
  NoiseModel noise = NoiseModel::fake_valencia();
  sim::Counts reference;
  for (unsigned threads : {1u, 2u, 8u}) {
    runtime::ThreadPool pool(threads);
    SampleOptions opts;
    opts.shots = 600;
    opts.fuse = true;
    opts.threads = threads;
    opts.pool = &pool;
    opts.shots_per_chunk = 37;  // force multi-chunk sharding
    Rng rng(555);
    auto counts = sample(c, noise, rng, opts);
    if (threads == 1u) {
      reference = counts;
    } else {
      EXPECT_EQ(counts.histogram, reference.histogram)
          << "threads=" << threads;
    }
  }
}

TEST(ApplyFused, RejectsWiderPlans) {
  qir::Circuit c(3);
  c.h(0).h(1).h(2);
  auto plan = FusionPlan::build(c);
  StateVector narrow(2);
  EXPECT_THROW(narrow.apply_fused(plan), InvalidArgument);
}

}  // namespace
}  // namespace tetris::sim

#include "sim/sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/error.h"
#include "runtime/shard.h"
#include "runtime/thread_pool.h"
#include "sim/backend/backend.h"
#include "sim/backend/statevector_backend.h"
#include "sim/fusion.h"
#include "sim/statevector.h"

namespace tetris::sim {

namespace {

const char kPaulis[] = {'I', 'X', 'Y', 'Z'};

/// Applies a uniformly random non-identity Pauli string to `qubits`. The
/// draw and the per-qubit application order are part of the per-shot
/// determinism contract, which every engine shares through this one path.
void inject_depolarizing(Backend& reg, const std::vector<int>& qubits,
                         Rng& rng) {
  std::size_t num_strings = 1;
  for (std::size_t i = 0; i < qubits.size(); ++i) num_strings *= 4;
  // Draw from [1, 4^k - 1]: skip the all-identity string.
  std::size_t code = 1 + rng.index(num_strings - 1);
  for (int q : qubits) {
    reg.apply_pauli(kPaulis[code & 3], q);
    code >>= 2;
  }
}

/// `Rng::bernoulli(p)` for one fixed p, resolved once per sample() call so
/// a shot compares raw draws instead of converting each to a double: it
/// fires without a draw when p >= 1 and otherwise on a raw draw below
/// `Rng::bernoulli_threshold(p)`, which is exactly `uniform() < p`.
struct Bernoulli {
  explicit Bernoulli(double p)
      : threshold(Rng::bernoulli_threshold(p)), certain(p >= 1.0) {}
  bool operator()(Rng& rng) const {
    return certain || rng.next_u64() < threshold;
  }
  std::uint64_t threshold;
  bool certain;
};

/// A gate that may err, with its error trial.
struct ErrorSite {
  std::size_t gate;
  Bernoulli trial;
};

/// The gates whose error probability under `noise` is > 0, in gate order;
/// barriers, p <= 0 and NaN draw nothing.
std::vector<ErrorSite> error_sites_of(const std::vector<qir::Gate>& gates,
                                      const NoiseModel& noise) {
  const Bernoulli one(noise.p1), two(noise.p2);
  std::vector<ErrorSite> sites;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (gates[i].kind == qir::GateKind::Barrier) continue;
    const bool multi = gates[i].num_qubits() >= 2;
    if ((multi ? noise.p2 : noise.p1) > 0.0) {
      sites.push_back({i, multi ? two : one});
    }
  }
  return sites;
}

std::vector<int> resolve_measured(const qir::Circuit& circuit,
                                  const std::vector<int>& measured) {
  if (!measured.empty()) {
    for (int q : measured) {
      TETRIS_REQUIRE(q >= 0 && q < circuit.num_qubits(),
                     "measured qubit out of range");
    }
    return measured;
  }
  std::vector<int> all(static_cast<std::size_t>(circuit.num_qubits()));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return all;
}

/// Memory one sample() call may spend on checkpoints.
constexpr std::size_t kCheckpointBudgetBytes = std::size_t{2} << 20;

/// Noise-free states of the unfused gate stream that errored shots start
/// from. `states[m - 1]` is the register after gates [0, m * spacing), i.e.
/// just before gate m * spacing. Each is an exact copy of the gate-by-gate
/// prefix, so a replay from it runs the very arithmetic of a replay from
/// gate 0 and the counts stay bit-identical.
struct Checkpoints {
  std::size_t spacing = 0;  ///< gates between checkpoints; 0 when none
  /// States the walk takes: one per multiple of `spacing` below the gate
  /// count, so e / spacing <= count for every gate index e.
  std::size_t count = 0;
  std::vector<StateVector> states;
};

/// Spaces checkpoints K = max(ceil(sqrt(G)), ceil(G / (S + 1))) gates apart
/// over a G-gate stream, where S is how many registers of `num_qubits`
/// fit the budget: √G spacing balances copies against replayed gates, and
/// the budget caps the copies at S (none when S = 0, since K is then G).
Checkpoints plan_checkpoints(std::size_t num_gates, int num_qubits) {
  Checkpoints cp;
  if (num_gates == 0) return cp;
  const std::size_t budget =
      kCheckpointBudgetBytes / (sizeof(cplx) << num_qubits);
  const auto root = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_gates))));
  cp.spacing = std::max(root, (num_gates + budget) / (budget + 1));
  cp.count = (num_gates - 1) / cp.spacing;
  cp.states.reserve(cp.count);
  return cp;
}

/// Applies gates [0, stop) to `sv` one by one, copying the register into
/// `cp` at each checkpoint it passes.
void walk(const std::vector<qir::Gate>& gates, std::size_t stop,
          StateVector& sv, Checkpoints& cp) {
  for (std::size_t i = 0; i < stop; ++i) {
    sv.apply_gate(gates[i]);
    if (cp.states.size() < cp.count &&
        i + 1 == (cp.states.size() + 1) * cp.spacing) {
      cp.states.push_back(sv);
    }
  }
}

/// Read-only context shared by every shard worker of one sample() call.
/// All pointers reference data owned by sample()'s frame, which outlives
/// every access (see the straggler-safety note in runtime::run_chunked).
struct SampleContext {
  const qir::Circuit* circuit = nullptr;
  const Backend* ideal = nullptr;  ///< prepared noise-free run, shared read-only
  BackendKind kind = BackendKind::kStateVector;  ///< trajectory register engine
  const std::vector<int>* measured = nullptr;
  const std::vector<ErrorSite>* sites = nullptr;  ///< gates that may err
  /// Readout flip trial per measured qubit; none when readout <= 0.
  const Bernoulli* readout = nullptr;
  std::uint64_t base_seed = 0;  ///< base of the per-shot stream family
  const Checkpoints* checkpoints = nullptr;  ///< empty off the statevector
};

/// Shots per raw basis index (readout flips applied), before projection
/// onto bitstrings.
using RawCounts = std::unordered_map<std::size_t, std::size_t>;

/// Puts `traj` in the noise-free state of the last checkpoint at or before
/// gate `first_error` (|0...0> when there is none) and returns the index of
/// the first gate left to replay.
std::size_t restore(const Checkpoints& cp, std::size_t first_error,
                    Backend& traj) {
  const std::size_t m = cp.states.empty() ? 0 : first_error / cp.spacing;
  if (m == 0) {
    traj.reset();
    return 0;
  }
  static_cast<StateVectorBackend&>(traj).state() = cp.states[m - 1];
  return m * cp.spacing;
}

/// Runs shots [begin, end) of the deterministic shot grid into `out`.
///
/// Shot `i` draws exclusively from `Rng::for_stream(base_seed, i)` — the
/// error-site Bernoullis, the injection draws in site order, one uniform
/// for the outcome, then the readout flips — so the outcomes of a range
/// depend only on its indices, never on which thread or chunk executes it,
/// and an engine swap reproduces the statevector's shots wherever the
/// engine's arithmetic agrees with it (exactly so on the Clifford grid).
/// An error-free shot draws from the shared ideal run (fused or not); an
/// errored shot restores the last checkpoint at or before its first error
/// site and replays the rest of the unfused gate stream on its own
/// register, injecting at each error site in order.
void run_shot_range(const SampleContext& ctx, std::size_t begin,
                    std::size_t end, RawCounts& out) {
  const auto& gates = ctx.circuit->gates();
  // The trajectory register is only needed when a gate error can fire, so
  // the error-free path stays allocation-free.
  std::unique_ptr<Backend> traj;
  if (!ctx.sites->empty()) {
    traj = make_backend(ctx.kind, ctx.circuit->num_qubits());
  }
  std::vector<std::size_t> error_sites;
  for (std::size_t shot = begin; shot < end; ++shot) {
    Rng rng = Rng::for_stream(ctx.base_seed, shot);
    std::size_t raw;
    error_sites.clear();
    for (const ErrorSite& site : *ctx.sites) {
      if (site.trial(rng)) error_sites.push_back(site.gate);
    }
    if (error_sites.empty()) {
      raw = ctx.ideal->sample_index(rng);
    } else {
      const std::size_t start =
          restore(*ctx.checkpoints, error_sites.front(), *traj);
      std::size_t next_err = 0;
      for (std::size_t i = start; i < gates.size(); ++i) {
        traj->apply_gate(gates[i]);
        if (next_err < error_sites.size() && error_sites[next_err] == i) {
          inject_depolarizing(*traj, gates[i].qubits, rng);
          ++next_err;
        }
      }
      raw = traj->sample_index(rng);
    }
    if (ctx.readout != nullptr) {
      for (int q : *ctx.measured) {
        if ((*ctx.readout)(rng)) raw ^= std::size_t{1} << q;
      }
    }
    ++out[raw];
  }
}

/// Shards `shots` over `pool` in `num_chunks` near-equal chunks with `width`
/// participants via `runtime::run_chunked` (caller-participates cursor: safe
/// from inside a pool worker, degrades to serial on a saturated pool) and
/// adds the per-chunk counts into `total`. Chunk c writes only to
/// partial[c] and draws only from shot-indexed RNG streams, so the summed
/// counts are independent of width, pool, and claim order.
void run_sharded(const SampleContext& ctx, std::size_t shots,
                 std::size_t num_chunks, unsigned width,
                 runtime::ThreadPool& pool, RawCounts& total) {
  const std::size_t chunk = (shots + num_chunks - 1) / num_chunks;
  std::vector<RawCounts> partial((shots + chunk - 1) / chunk);
  runtime::run_chunked(pool, partial.size(), width, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    run_shot_range(ctx, begin, std::min(shots, begin + chunk), partial[c]);
  });
  for (const RawCounts& p : partial) {
    for (const auto& [raw, n] : p) total[raw] += n;
  }
}

}  // namespace

std::size_t Counts::count(const std::string& bs) const {
  auto it = histogram.find(bs);
  return it == histogram.end() ? 0 : it->second;
}

std::map<std::string, double> Counts::distribution() const {
  std::map<std::string, double> out;
  if (shots == 0) return out;
  for (const auto& [k, v] : histogram) {
    out[k] = static_cast<double>(v) / static_cast<double>(shots);
  }
  return out;
}

std::string Counts::mode() const {
  TETRIS_REQUIRE(!histogram.empty(), "Counts::mode on empty histogram");
  auto best = histogram.begin();
  for (auto it = histogram.begin(); it != histogram.end(); ++it) {
    if (it->second > best->second) best = it;
  }
  return best->first;
}

std::string bitstring(std::size_t index, int num_bits) {
  std::string out(static_cast<std::size_t>(num_bits), '0');
  for (int b = 0; b < num_bits; ++b) {
    if ((index >> b) & 1) out[static_cast<std::size_t>(num_bits - 1 - b)] = '1';
  }
  return out;
}

Counts sample(const qir::Circuit& circuit, const NoiseModel& noise, Rng& rng,
              const SampleOptions& options) {
  std::vector<int> measured = resolve_measured(circuit, options.measured);
  Counts counts;
  counts.shots = options.shots;
  // Exactly one draw, unconditionally: the base of the per-shot stream
  // family. The caller's generator advancement is therefore independent of
  // shots, threads, and chunking.
  const std::uint64_t base_seed = rng.next_u64();
  if (options.shots == 0) return counts;

  const auto& gates = circuit.gates();
  const std::vector<ErrorSite> sites = error_sites_of(gates, noise);
  const Bernoulli readout(noise.readout);

  // Shard plan: over the pool this call runs on, serial off a pool. The
  // chunk grain is a pure performance knob: results are bit-identical for
  // any partition because shot i's randomness is for_stream(base_seed, i)
  // wherever it runs.
  runtime::ThreadPool* pool = runtime::ThreadPool::current();
  unsigned width = 1;
  if (pool != nullptr) {
    width = std::max(1u, options.threads == 0 ? pool->size() : options.threads);
  }
  const std::size_t grain = std::max<std::size_t>(1, options.shots_per_chunk);
  // Floor division honors the "at least `grain` shots per chunk" contract
  // (ceil could halve the final chunks); the width*4 cap gives each
  // participant a few chunks so one slow (error-heavy) chunk does not
  // serialize the tail.
  const std::size_t by_grain = std::max<std::size_t>(1, options.shots / grain);
  const std::size_t num_chunks =
      std::min<std::size_t>(by_grain, static_cast<std::size_t>(width) * 4);

  // One prepared noise-free run serves every error-free shot, shared
  // read-only by all shard workers; errored shots re-simulate on their own
  // trajectory registers of the same engine, from the checkpoints built
  // here on the statevector.
  const BackendKind resolved = resolve_backend(options.backend, circuit);
  std::unique_ptr<Backend> ideal = make_backend(resolved, circuit.num_qubits());
  Checkpoints checkpoints;
  if (resolved == BackendKind::kStateVector) {
    if (!sites.empty()) {
      checkpoints = plan_checkpoints(gates.size(), circuit.num_qubits());
    }
    StateVector& sv = static_cast<StateVectorBackend&>(*ideal).state();
    // `fuse` is a statevector kernel detail and touches only the ideal run.
    // Checkpoints must be exact prefixes of the unfused stream that errored
    // shots replay, so a fused ideal run needs one more walk, stopping at
    // the last checkpoint; an unfused ideal run is that walk itself.
    if (options.fuse) {
      sv.apply_fused(FusionPlan::build(circuit));
      if (checkpoints.count > 0) {
        StateVector prefix(circuit.num_qubits());
        walk(gates, checkpoints.count * checkpoints.spacing, prefix,
             checkpoints);
      }
    } else {
      walk(gates, gates.size(), sv, checkpoints);
    }
  } else {
    ideal->apply(circuit);  // structured UnsupportedGate on an unsupported gate
  }
  // Cache the sampling form before the register is shared across shard
  // workers: const queries on an unprepared engine rebuild it per call.
  ideal->prepare();

  SampleContext ctx;
  ctx.circuit = &circuit;
  ctx.ideal = ideal.get();
  ctx.kind = resolved;
  ctx.measured = &measured;
  ctx.sites = &sites;
  // A NaN rate fails `<= 0` and so draws once per qubit, never flipping.
  ctx.readout = noise.readout <= 0.0 ? nullptr : &readout;
  ctx.base_seed = base_seed;
  ctx.checkpoints = &checkpoints;

  RawCounts raw;
  if (width == 1 || num_chunks <= 1) {
    run_shot_range(ctx, 0, options.shots, raw);
  } else {
    run_sharded(ctx, options.shots, num_chunks, width, *pool, raw);
  }
  // Bitstrings are built once per distinct outcome, not once per shot.
  for (const auto& [index, n] : raw) {
    counts.histogram[project_index(index, measured)] += n;
  }
  return counts;
}

std::map<std::string, double> ideal_distribution(const qir::Circuit& circuit,
                                                 const std::vector<int>& measured) {
  std::vector<int> m = resolve_measured(circuit, measured);
  StateVectorBackend sv(circuit.num_qubits());
  sv.apply(circuit);
  return sv.distribution(m);
}

std::string classical_outcome(const qir::Circuit& circuit,
                              const std::vector<int>& measured) {
  TETRIS_REQUIRE(circuit.is_classical(),
                 "classical_outcome requires a reversible (classical) circuit");
  std::vector<int> m = resolve_measured(circuit, measured);
  // Propagate the all-zero bit assignment through the permutation gates.
  std::vector<char> bits(static_cast<std::size_t>(circuit.num_qubits()), 0);
  for (const auto& g : circuit.gates()) {
    using qir::GateKind;
    switch (g.kind) {
      case GateKind::I:
      case GateKind::Barrier:
        break;
      case GateKind::X:
        bits[static_cast<std::size_t>(g.qubits[0])] ^= 1;
        break;
      case GateKind::SWAP:
        std::swap(bits[static_cast<std::size_t>(g.qubits[0])],
                  bits[static_cast<std::size_t>(g.qubits[1])]);
        break;
      case GateKind::CSWAP:
        if (bits[static_cast<std::size_t>(g.qubits[0])]) {
          std::swap(bits[static_cast<std::size_t>(g.qubits[1])],
                    bits[static_cast<std::size_t>(g.qubits[2])]);
        }
        break;
      case GateKind::CX:
      case GateKind::CCX:
      case GateKind::MCX: {
        bool all = true;
        for (std::size_t i = 0; i + 1 < g.qubits.size(); ++i) {
          all = all && bits[static_cast<std::size_t>(g.qubits[i])];
        }
        if (all) bits[static_cast<std::size_t>(g.qubits.back())] ^= 1;
        break;
      }
      default:
        throw InvalidArgument("classical_outcome: non-classical gate " + g.name());
    }
  }
  std::size_t index = 0;
  for (std::size_t q = 0; q < bits.size(); ++q) {
    if (bits[q]) index |= std::size_t{1} << q;
  }
  return project_index(index, m);
}

}  // namespace tetris::sim

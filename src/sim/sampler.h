#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "qir/circuit.h"
#include "sim/backend/backend.h"
#include "sim/noise.h"

namespace tetris::runtime {
class ThreadPool;
}

namespace tetris::sim {

/// \brief Shot histogram of a sampling run.
///
/// Keys are bitstrings in Qiskit convention: the character at position 0 is
/// the *highest-indexed* measured qubit, the last character is qubit 0 (or
/// the first entry of the measured list). "01" with measured qubits {0,1}
/// means qubit1=0, qubit0=1.
struct Counts {
  std::map<std::string, std::size_t> histogram;
  std::size_t shots = 0;

  /// \param bitstring outcome key in the convention above
  /// \return the count for `bitstring` (0 if absent)
  std::size_t count(const std::string& bitstring) const;

  /// \return normalized distribution (sums to 1 when shots > 0)
  std::map<std::string, double> distribution() const;

  /// \return the most frequent outcome
  /// \throws InvalidArgument when the histogram is empty
  std::string mode() const;
};

/// \brief Renders basis index `index` as a bitstring over `num_bits` bits,
/// most-significant (highest qubit) first.
std::string bitstring(std::size_t index, int num_bits);

/// \brief Options for the trajectory sampler.
///
/// **Choosing `shots` (variance-vs-shots guideline).** Every metric derived
/// from a `Counts` histogram is a Monte-Carlo estimate whose standard error
/// shrinks as 1/sqrt(shots): an outcome with true probability `p` is
/// estimated with standard error `sqrt(p*(1-p)/shots)`, at worst
/// `0.5/sqrt(shots)`. So 1000 shots (the paper's setting) resolve an
/// accuracy to about ±1.6% and 10000 shots to about ±0.5%; distinguishing
/// two accuracies that differ by `d` needs roughly `1/d^2` shots. The
/// closed-form helpers `sim::accuracy_standard_error` /
/// `sim::shots_for_standard_error` (estimate.h) compute these numbers, and
/// docs/ARCHITECTURE.md discusses the trade-off in detail.
struct SampleOptions {
  /// Number of Monte-Carlo trajectories; the paper uses 1000 per simulation.
  std::size_t shots = 1000;

  /// Qubits to measure, in register order; empty means all qubits.
  std::vector<int> measured;

  /// Worker fan-out of this call: shots are sharded over a thread pool in
  /// chunks of at least `shots_per_chunk`.
  ///   - 0 (default): auto — use the full width of the resolved pool;
  ///   - 1: run serially on the calling thread;
  ///   - N: use at most N workers (the caller plus N-1 pool helpers).
  /// Any value produces bit-identical `Counts` (see `sample`).
  unsigned threads = 0;

  /// Pool the helper tasks are submitted to. nullptr resolves to the pool
  /// whose worker is executing this call (`ThreadPool::current()`) so a
  /// sampler inside a `service::Service` flow job shares the service pool
  /// instead of oversubscribing, and to `ThreadPool::global()` on
  /// non-worker threads.
  runtime::ThreadPool* pool = nullptr;

  /// Minimum shots per shard chunk; runs with fewer than twice this many
  /// shots stay serial (scheduling a pool task costs more than a small
  /// chunk). Purely a performance knob — chunk boundaries never change the
  /// counts.
  std::size_t shots_per_chunk = 256;

  /// Run the ideal (noise-free) run through a FusionPlan (sim/fusion.h):
  /// each qubit's gates within a window of single-qubit gates multiply into
  /// one 2x2, so the run takes fewer sweeps; every other gate runs as
  /// unfused. Only the ideal run is planned and fused; errored
  /// trajectories replay the unfused gate stream gate by gate, from
  /// checkpoints that one extra unfused walk takes (see `sample`).
  /// A merged 2x2 reorders floating-point arithmetic, so fused counts are
  /// tolerance-equal — NOT bit-identical — to unfused ones; the knob is
  /// therefore off by default and, unlike `threads`, part of
  /// `service::flow_fingerprint`. With `fuse` fixed, counts remain
  /// bit-identical at any threads/pool/chunk setting as documented below.
  bool fuse = false;

  /// Simulation engine for this call (sim/backend/backend.h). kAuto keeps
  /// the statevector unless the circuit is Clifford *and* wider than
  /// `kAutoStateVectorCeilingQubits`, in which case the stabilizer tableau
  /// engine takes over (the 50+-qubit verification path). Every engine
  /// consumes the identical per-shot randomness — same base draw, same
  /// stream family, same Bernoulli/injection order — so a backend swap
  /// never shifts the caller's generator, and on the Clifford grid the
  /// stabilizer's counts match the statevector's shot for shot (squared
  /// Clifford amplitudes round to exact powers of two; see
  /// backend/stabilizer.h). `fuse` is a statevector kernel detail and is
  /// ignored by the other engines. Unlike `threads`, this knob is part of
  /// `service::flow_fingerprint` whenever it resolves off the default.
  BackendKind backend = BackendKind::kAuto;
};

/// \brief Samples measurement outcomes of `circuit` under `noise`.
///
/// Ideal (noise-free) parts are served from a single run of the resolved
/// engine; shots on which at least one gate error fires are re-simulated as
/// individual Pauli trajectories on that engine. Readout errors are applied
/// per shot.
///
/// **Checkpoints.** On the statevector, an errored trajectory does not
/// start from |0...0>: it copies the noise-free register at the last
/// checkpoint at or before its first error site and replays only the rest
/// of the gate stream. Checkpoints are exact copies of the unfused stream's
/// prefix, taken during the unfused ideal run or, with `fuse`, on one extra
/// unfused walk, so the replayed arithmetic and the counts are exactly
/// those of a replay from gate 0. They are K = max(ceil(sqrt(G)),
/// ceil(G / (S + 1))) gates apart over G gates, where S registers fit in a
/// fixed 2 MiB budget, so at most S are held (none from 18 qubits up).
///
/// **Determinism contract.** The call consumes exactly one 64-bit draw from
/// `rng` — the base of a SplitMix64 stream family — and trajectory `i` then
/// runs on its own generator `Rng::for_stream(base, i)`. A shot's randomness
/// therefore depends only on (rng state at entry, shot index): the returned
/// `Counts` are bit-identical at any `threads`, `pool`, or `shots_per_chunk`
/// value, and the caller's `rng` advances by the same single draw whatever
/// `shots` is. Shots are counted by raw basis index and the summed counts
/// projected onto an ordered map once per distinct index, so even the
/// in-memory representation is identical.
///
/// **Pool sharing.** When executed on a worker of a thread pool (e.g. inside
/// a `service::Service` flow job), helper tasks are enqueued on that same
/// pool and the calling worker participates via a shared chunk cursor. Busy
/// pools simply never get to the helpers — they find the cursor exhausted
/// and return — so a saturated batch run degrades to serial per-job sampling
/// instead of oversubscribing the machine, while a lone job fans out over
/// the idle workers.
///
/// \param circuit circuit to sample (its width sets the register size)
/// \param noise   stochastic Pauli noise model (see noise.h)
/// \param rng     seed source; consumes exactly one draw
/// \param options shots, measured qubits, and sharding knobs
/// \return histogram over measured-qubit outcomes with `options.shots` shots
/// \throws InvalidArgument when a measured qubit is out of range, or when
///   the register is wider than the chosen backend's capability
/// \throws UnsupportedGate when the chosen backend cannot represent a gate
///   (e.g. a T gate on the stabilizer engine); the error names the gate and
///   its index
Counts sample(const qir::Circuit& circuit, const NoiseModel& noise, Rng& rng,
              const SampleOptions& options = {});

/// \brief Exact noise-free outcome distribution over the measured qubits
/// (marginalized if `measured` is a strict subset).
std::map<std::string, double> ideal_distribution(
    const qir::Circuit& circuit, const std::vector<int>& measured = {});

/// \brief The single deterministic outcome of a classical (reversible)
/// circuit on |0...0>, restricted to `measured` (all qubits when empty).
/// \throws InvalidArgument if the circuit is not classical.
std::string classical_outcome(const qir::Circuit& circuit,
                              const std::vector<int>& measured = {});

}  // namespace tetris::sim

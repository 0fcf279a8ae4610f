#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "qir/circuit.h"

namespace tetris::sim {

/// Which simulation engine executes a circuit.
///
/// `kAuto` is not an engine: it is a selection policy resolved per circuit by
/// `resolve_backend` — the statevector for everything it can hold, the
/// stabilizer tableau for Clifford circuits too wide for it. The other values
/// name concrete engines in the registry (`registered_backends`).
enum class BackendKind {
  kAuto,         ///< resolve per circuit (see resolve_backend)
  kStateVector,  ///< dense 2^n amplitudes (sim/statevector.h)
  kStabilizer,   ///< Aaronson-Gottesman tableau, Clifford-only, 50+ qubits
};

/// Stable lower-snake name ("auto", "statevector", "stabilizer").
const char* backend_kind_name(BackendKind kind);

/// Parses a name back to a kind; throws InvalidArgument for unknown names.
BackendKind parse_backend_kind(const std::string& name);

/// What an engine can and cannot do: the static half of its registry row
/// (registered_backends), which GET /v1/status reports.
struct BackendCaps {
  /// Widest register the engine accepts.
  int max_qubits = 0;
  /// Only Gate::is_clifford gates are executable; others raise
  /// UnsupportedGate.
  bool clifford_only = false;
  /// apply_pauli works mid-circuit, so the trajectory sampler can inject
  /// depolarizing noise. True for every registered engine (Pauli errors are
  /// themselves Clifford, so even the tableau supports them); kept because
  /// GET /v1/status publishes it.
  bool supports_noise = false;
};

/// Structured "this engine cannot execute that gate" error. Raised by
/// Clifford-only engines on non-Clifford input; `gate()` is the offending
/// gate's mnemonic rendering and `gate_index()` its position in the circuit
/// (npos when the gate was applied directly, outside a circuit walk).
/// Derives InvalidArgument so the service layer maps it to
/// kInvalidArgument/HTTP 400 like every other bad-request failure.
class UnsupportedGate : public InvalidArgument {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  UnsupportedGate(std::string backend, std::string gate,
                  std::size_t gate_index = npos);

  const std::string& backend() const { return backend_; }
  const std::string& gate() const { return gate_; }
  std::size_t gate_index() const { return gate_index_; }

 private:
  std::string backend_;
  std::string gate_;
  std::size_t gate_index_;
};

/// Abstract simulation engine: |0...0> at construction, gates applied in
/// temporal order, then measurement sampling / probability queries.
///
/// **Sampling contract.** `sample_index` consumes exactly one uniform draw
/// per call and returns a basis index distributed by the engine's outcome
/// probabilities, via the same inverse-CDF mapping for every engine: the
/// draw r in [0,1) selects the first basis index whose cumulative
/// probability exceeds r. Engines with bitwise-equal outcome distributions
/// therefore return the *same index for the same draw* — the property the
/// differential tests (test_backend.cpp) and the sampler's determinism
/// contract (one u64 per sample() call, one stream per shot) rest on.
///
/// **prepare().** Engines may need a finalization pass between the last
/// gate and the first concurrent query (the tableau engine runs a Gaussian
/// elimination to extract its sampling support; the statevector stores
/// block prefix sums that speed up `sample_index` without changing its
/// index). Callers that share one engine across threads must call
/// `prepare()` once after `apply`; single-threaded callers may skip it
/// (queries self-prepare lazily or take the unprepared path).
class Backend {
 public:
  virtual ~Backend() = default;

  /// Engine name as registered ("statevector", "stabilizer").
  virtual const char* name() const = 0;
  virtual int num_qubits() const = 0;

  /// Back to |0...0>, discarding any prepared state.
  virtual void reset() = 0;

  /// Applies one gate; throws UnsupportedGate (without an index) when the
  /// engine cannot execute it.
  virtual void apply_gate(const qir::Gate& gate) = 0;

  /// Applies a single Pauli ('I','X','Y','Z') to qubit q — the noise
  /// injection primitive of the trajectory sampler.
  virtual void apply_pauli(char pauli, int q) = 0;

  /// Finalizes state for concurrent const queries (see class comment).
  virtual void prepare() {}

  /// Outcome probability of basis state `index`.
  virtual double probability(std::size_t index) const = 0;

  /// One measurement draw (no collapse); consumes exactly one uniform.
  virtual std::size_t sample_index(Rng& rng) const = 0;

  /// Exact outcome distribution over `measured` (all qubits when empty).
  /// Engines without dense state bound the enumeration: the tableau engine
  /// throws InvalidArgument past 2^20 support elements.
  virtual std::map<std::string, double> distribution(
      const std::vector<int>& measured = {}) const = 0;

  /// Applies every gate of `circuit` in order, rethrowing a per-gate
  /// UnsupportedGate with the gate's circuit index attached. The circuit
  /// width must not exceed the register width.
  void apply(const qir::Circuit& circuit);
};

/// Renders basis index `index` restricted to the `measured` qubits as a
/// bitstring in the sim::Counts convention (measured.back() leftmost).
/// `measured` must be non-empty and validated by the caller.
std::string project_index(std::size_t index, const std::vector<int>& measured);

/// Registry row of a concrete engine (everything GET /v1/status reports).
struct BackendInfo {
  BackendKind kind = BackendKind::kStateVector;
  const char* name = "";
  BackendCaps caps;
};

/// The concrete engines, in enum order (statevector, stabilizer).
const std::vector<BackendInfo>& registered_backends();

/// Statevector registers wider than this make `auto` prefer the stabilizer
/// tableau when the circuit allows it: past ~2^20 amplitudes the dense
/// ideal run dominates a flow's wall time, while the tableau stays O(n^2).
constexpr int kAutoStateVectorCeilingQubits = 20;

/// Resolves the `auto` policy against a concrete circuit: stabilizer when
/// the circuit is Clifford and wider than the ceiling, statevector
/// otherwise. Concrete kinds resolve to themselves — resolution never
/// overrides an explicit choice, even one the engine will reject (the
/// rejection is then a structured UnsupportedGate / width error, which is
/// more useful than a silent engine swap).
BackendKind resolve_backend(BackendKind kind, const qir::Circuit& circuit);

/// Instantiates a concrete engine on `num_qubits` wires in |0...0>.
/// `kind` must not be kAuto (resolve first); width limits are enforced by
/// the engine (see BackendCaps::max_qubits).
std::unique_ptr<Backend> make_backend(BackendKind kind, int num_qubits);

}  // namespace tetris::sim

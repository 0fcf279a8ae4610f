#pragma once

#include <cstdint>

#include "common/binio.h"
#include "qir/circuit.h"

namespace tetris::qir {

/// Binary circuit codec — the Circuit record of the artifact format
/// (docs/FORMATS.md §3). The writer emits format 2:
///
///   num_qubits  var
///   name        var_str (var length + bytes)
///   gate_count  var
///   gates       gate_count × { kind u8, [qubit_count var — MCX and
///                              Barrier only], qubits var...,
///                              params f64 × gate_param_count(kind) }
///
/// Every other kind's qubit and parameter counts are implied by
/// `gate_arity` / `gate_param_count`, which Circuit::add enforces. The
/// reader also takes format 1, which wrote every integer fixed-width and
/// every count (u32 num_qubits, str name, u32 gate_count, and per gate
/// kind u8, u32 qubit_count, u32 qubits, u8 param_count, f64 params).
///
/// Gate parameters are written by exact IEEE-754 bit pattern, so a decoded
/// circuit is bit-identical to the encoded one: `content_hash()` (which also
/// hashes parameter bits) is invariant under a round trip, which is what
/// lets a stored artifact be re-keyed and re-verified without re-running
/// anything.

/// Hard limits of the reader. An input breaching any of these is rejected
/// with ParseError *before* allocation — a corrupt count must cost an
/// exception, not gigabytes. Generous relative to anything the pipeline
/// produces (the widest compiled RevLib artifact is < 100 qubits and a few
/// thousand gates).
inline constexpr std::uint32_t kMaxCircuitQubits = 1u << 20;
inline constexpr std::uint32_t kMaxCircuitGates = 1u << 26;
inline constexpr std::uint32_t kMaxCircuitNameBytes = 1u << 12;

/// Newest record layout; write_circuit always writes it.
inline constexpr std::uint32_t kCircuitFormat = 2;

/// Appends the circuit record (format kCircuitFormat) to `w`. Never fails.
void write_circuit(ByteWriter& w, const Circuit& circuit);

/// Reads one circuit record of `format` (1 or 2). Throws tetris::ParseError
/// on truncation, over-limit counts, malformed varints, unknown gate kinds,
/// or any gate that violates the IR's structural invariants (arity, qubit
/// range, distinctness — the same validation `Circuit::add` applies to
/// programmatic input, reported as a parse error with the gate index).
Circuit read_circuit(ByteReader& r, std::uint32_t format = kCircuitFormat);

}  // namespace tetris::qir

#pragma once

#include "common/binio.h"
#include "lock/pipeline.h"
#include "qir/binary.h"

namespace tetris::lock {

/// Binary FlowResult codec — the payload record of the artifact format
/// (docs/FORMATS.md §4). Serializes *everything* a flow produces, not just
/// the reported metrics: the obfuscated circuit with its designer-side
/// provenance (R, per-gate origins), both interlocked splits with their
/// private qubit maps, the recombined hardware-ready circuit with the
/// compiled-split layouts, the unlocked baseline compilation, and the
/// Table-I / Figure-4 metric fields.
///
/// The codec is exact: doubles travel by IEEE-754 bit pattern and circuits
/// round-trip bit-identically (qir/binary.h). A decoded FlowResult compares
/// equal — `Circuit::operator==`, exact double equality, element-wise
/// vector equality — to the encoded one, which is what makes a disk-cache
/// hit indistinguishable from a re-run and stored artifacts byte-stable
/// across processes and thread counts (tests/test_artifact.cpp pins both).
///
/// The writer emits format 2: integers as LEB128 varints (zigzag for int
/// fields), circuits in format 2, and one flag byte in place of the
/// recombined circuit when that is exactly what Deobfuscator::run builds —
/// `Circuit(np, "recombined_compiled")` plus the first compiled half plus
/// the second — which the reader rebuilds. The reader also takes format 1
/// (fixed-width integers, the recombined circuit always in full).
///
/// Versioning lives one layer up, in the artifact envelope
/// (service/artifact_store.h): this record has no header of its own, and
/// the envelope's version is the format it is read with.

/// Appends the FlowResult record (format 2) to `w`. Never fails.
void write_flow_result(ByteWriter& w, const FlowResult& result);

/// Reads one FlowResult record of `format` (1 or 2). Throws
/// tetris::ParseError on truncated, corrupt, or over-limit input (every
/// embedded circuit and vector is read through the bounded primitives of
/// common/binio.h and qir/binary.h).
FlowResult read_flow_result(ByteReader& r,
                            std::uint32_t format = qir::kCircuitFormat);

}  // namespace tetris::lock

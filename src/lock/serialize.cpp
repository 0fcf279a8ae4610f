#include "lock/serialize.h"

#include <cstring>
#include <vector>

#include "qir/binary.h"

namespace tetris::lock {

namespace {

// Vector-count ceilings, matching the circuit codec's limits: qubit-indexed
// vectors (layouts, permutations, origin-register maps) can never exceed a
// register width, gate-indexed vectors never a gate count.
constexpr std::uint32_t kMaxQubitVector = qir::kMaxCircuitQubits;
constexpr std::uint32_t kMaxGateVector = qir::kMaxCircuitGates;

/// Reads the fields of one record in its format's coding: format 1 wrote
/// u32 counts, i64 ints and u64 sizes, format 2 varints (zigzag for ints).
class FieldReader {
 public:
  FieldReader(ByteReader& r, std::uint32_t format) : r_(r), format_(format) {}

  ByteReader& bytes() { return r_; }
  std::uint32_t format() const { return format_; }
  std::uint32_t count(const char* what, std::uint32_t max) {
    return format_ == 1 ? r_.count(what, max) : r_.var_count(what, max);
  }
  int integer(const char* what) {
    return static_cast<int>(format_ == 1 ? r_.i64(what) : r_.zigzag(what));
  }
  std::size_t size(const char* what) {
    return static_cast<std::size_t>(format_ == 1 ? r_.u64(what) : r_.var(what));
  }
  qir::Circuit circuit() { return qir::read_circuit(r_, format_); }

 private:
  ByteReader& r_;
  std::uint32_t format_;
};

void write_int_vector(ByteWriter& w, const std::vector<int>& v) {
  w.var(v.size());
  for (int x : v) w.zigzag(x);
}

std::vector<int> read_int_vector(FieldReader& f, const char* what) {
  const std::uint32_t n = f.count(what, kMaxQubitVector);
  std::vector<int> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(f.integer(what));
  return v;
}

void write_index_vector(ByteWriter& w, const std::vector<std::size_t>& v) {
  w.var(v.size());
  for (std::size_t x : v) w.var(x);
}

std::vector<std::size_t> read_index_vector(FieldReader& f, const char* what) {
  const std::uint32_t n = f.count(what, kMaxGateVector);
  std::vector<std::size_t> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(f.size(what));
  return v;
}

void write_obfuscated(ByteWriter& w, const ObfuscatedCircuit& obf) {
  qir::write_circuit(w, obf.circuit);
  qir::write_circuit(w, obf.original);
  qir::write_circuit(w, obf.random);
  w.var(obf.origin.size());
  for (GateOrigin o : obf.origin) w.u8(static_cast<std::uint8_t>(o));
  w.u8(obf.has_gap_pairs ? 1 : 0);
}

ObfuscatedCircuit read_obfuscated(FieldReader& f) {
  ObfuscatedCircuit obf;
  obf.circuit = f.circuit();
  obf.original = f.circuit();
  obf.random = f.circuit();
  const std::uint32_t n = f.count("origin count", kMaxGateVector);
  obf.origin.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t o = f.bytes().u8("gate origin");
    if (o > static_cast<std::uint8_t>(GateOrigin::Original)) {
      throw ParseError("flow codec: unknown gate origin " + std::to_string(o) +
                       " at offset " + std::to_string(f.bytes().offset() - 1));
    }
    obf.origin.push_back(static_cast<GateOrigin>(o));
  }
  obf.has_gap_pairs = f.bytes().u8("has_gap_pairs") != 0;
  return obf;
}

void write_split(ByteWriter& w, const Split& split) {
  qir::write_circuit(w, split.circuit);
  write_int_vector(w, split.local_to_orig);
  write_index_vector(w, split.gate_indices);
}

Split read_split(FieldReader& f) {
  Split split;
  split.circuit = f.circuit();
  split.local_to_orig = read_int_vector(f, "split local_to_orig");
  split.gate_indices = read_index_vector(f, "split gate_indices");
  return split;
}

void write_compile_result(ByteWriter& w, const compiler::CompileResult& cr) {
  qir::write_circuit(w, cr.circuit);
  write_int_vector(w, cr.initial_layout);
  write_int_vector(w, cr.final_layout);
  write_int_vector(w, cr.wire_permutation);
  w.var(cr.stats.input_gates);
  w.var(cr.stats.output_gates);
  w.var(cr.stats.swaps_inserted);
  w.zigzag(cr.stats.input_depth);
  w.zigzag(cr.stats.output_depth);
  w.var(cr.stats.optimize.cancelled_pairs);
  w.var(cr.stats.optimize.merged_rotations);
  w.var(cr.stats.optimize.dropped_identities);
}

compiler::CompileResult read_compile_result(FieldReader& f) {
  compiler::CompileResult cr;
  cr.circuit = f.circuit();
  cr.initial_layout = read_int_vector(f, "compile initial_layout");
  cr.final_layout = read_int_vector(f, "compile final_layout");
  cr.wire_permutation = read_int_vector(f, "compile wire_permutation");
  cr.stats.input_gates = f.size("stats input_gates");
  cr.stats.output_gates = f.size("stats output_gates");
  cr.stats.swaps_inserted = f.size("stats swaps_inserted");
  cr.stats.input_depth = f.integer("stats input_depth");
  cr.stats.output_depth = f.integer("stats output_depth");
  cr.stats.optimize.cancelled_pairs = f.size("optimize cancelled_pairs");
  cr.stats.optimize.merged_rotations = f.size("optimize merged_rotations");
  cr.stats.optimize.dropped_identities = f.size("optimize dropped_identities");
  return cr;
}

void write_compiled_split(ByteWriter& w, const CompiledSplit& cs) {
  write_compile_result(w, cs.result);
  write_int_vector(w, cs.local_to_orig);
}

CompiledSplit read_compiled_split(FieldReader& f) {
  CompiledSplit cs;
  cs.result = read_compile_result(f);
  cs.local_to_orig = read_int_vector(f, "compiled split local_to_orig");
  return cs;
}

/// Name Deobfuscator::run gives the concatenated compiled halves.
constexpr const char* kRecombinedName = "recombined_compiled";

/// The circuit Deobfuscator::run builds from two compiled halves: the
/// first's register, the first's gates, then the second's.
qir::Circuit concatenation(const RecombinedCircuit& rc) {
  qir::Circuit out(rc.first.result.circuit.num_qubits(), kRecombinedName);
  out.reserve(rc.first.result.circuit.size() + rc.second.result.circuit.size());
  out.append(rc.first.result.circuit);
  out.append(rc.second.result.circuit);
  return out;
}

bool same_bits(const qir::Gate& a, const qir::Gate& b) {
  if (a.kind != b.kind || a.qubits != b.qubits ||
      a.params.size() != b.params.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    if (std::memcmp(&a.params[i], &b.params[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// True when `rc.circuit` is exactly concatenation(rc), parameter bits and
/// name included, so format 2 can store a flag in its place.
bool is_concatenation(const RecombinedCircuit& rc) {
  const qir::Circuit& first = rc.first.result.circuit;
  const qir::Circuit& second = rc.second.result.circuit;
  const auto& gates = rc.circuit.gates();
  if (rc.circuit.name() != kRecombinedName ||
      rc.circuit.num_qubits() != first.num_qubits() ||
      second.num_qubits() > first.num_qubits() ||
      gates.size() != first.size() + second.size()) {
    return false;
  }
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const qir::Gate& source = i < first.size() ? first.gates()[i]
                                               : second.gates()[i - first.size()];
    if (!same_bits(gates[i], source)) return false;
  }
  return true;
}

}  // namespace

void write_flow_result(ByteWriter& w, const FlowResult& result) {
  write_obfuscated(w, result.obf);
  write_split(w, result.splits.first);
  write_split(w, result.splits.second);
  if (is_concatenation(result.recombined)) {
    w.u8(1);
  } else {
    w.u8(0);
    qir::write_circuit(w, result.recombined.circuit);
  }
  write_int_vector(w, result.recombined.orig_to_phys);
  write_compiled_split(w, result.recombined.first);
  write_compiled_split(w, result.recombined.second);
  write_compile_result(w, result.baseline);
  w.zigzag(result.depth_original);
  w.zigzag(result.depth_obfuscated);
  w.var(result.gates_original);
  w.var(result.gates_obfuscated);
  w.f64(result.tvd_obfuscated);
  w.f64(result.tvd_restored);
  w.f64(result.accuracy_original);
  w.f64(result.accuracy_restored);
}

FlowResult read_flow_result(ByteReader& r, std::uint32_t format) {
  FieldReader f(r, format);
  FlowResult result;
  result.obf = read_obfuscated(f);
  result.splits.first = read_split(f);
  result.splits.second = read_split(f);
  // Format 2 replaces a recombined circuit that is the concatenation of the
  // compiled halves with flag 1; flag 0 precedes a full circuit record.
  bool rebuild = false;
  if (f.format() == 1) {
    result.recombined.circuit = f.circuit();
  } else {
    const std::uint8_t flag = f.bytes().u8("recombined flag");
    if (flag > 1) {
      throw ParseError("flow codec: unknown recombined flag " +
                       std::to_string(flag) + " at offset " +
                       std::to_string(f.bytes().offset() - 1));
    }
    rebuild = flag == 1;
    if (!rebuild) result.recombined.circuit = f.circuit();
  }
  result.recombined.orig_to_phys = read_int_vector(f, "recombined orig_to_phys");
  result.recombined.first = read_compiled_split(f);
  result.recombined.second = read_compiled_split(f);
  if (rebuild) {
    try {
      result.recombined.circuit = concatenation(result.recombined);
    } catch (const InvalidArgument& e) {
      throw ParseError(std::string("flow codec: recombined halves: ") +
                       e.what());
    }
  }
  result.baseline = read_compile_result(f);
  result.depth_original = f.integer("depth_original");
  result.depth_obfuscated = f.integer("depth_obfuscated");
  result.gates_original = f.size("gates_original");
  result.gates_obfuscated = f.size("gates_obfuscated");
  result.tvd_obfuscated = r.f64("tvd_obfuscated");
  result.tvd_restored = r.f64("tvd_restored");
  result.accuracy_original = r.f64("accuracy_original");
  result.accuracy_restored = r.f64("accuracy_restored");
  return result;
}

}  // namespace tetris::lock

// The durable-artifact stack, bottom-up: the binio primitives, the circuit
// and FlowResult codecs, the versioned envelope, the disk store, and the
// Service integration (warm start across a "restart"). The corruption sweeps
// are the load-bearing half: every stored byte is untrusted input, and every
// way of mangling an artifact must surface as a structured ParseError —
// never a crash (the suite runs under ASan/UBSan in CI) and never a
// silently-wrong result.

#include "service/artifact_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/error.h"
#include "common/rng.h"
#include "lock/pipeline.h"
#include "lock/serialize.h"
#include "obs/registry.h"
#include "qir/binary.h"
#include "qir/library.h"
#include "revlib/benchmarks.h"
#include "service/serialize.h"
#include "service/service.h"

namespace tetris {
namespace {

namespace fs = std::filesystem;

// Reference FNV-1a over raw bytes — the checksum docs/FORMATS.md specifies.
// Reimplemented here (not shared with the implementation) so the test pins
// the algorithm itself, not just self-consistency.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Replaces the trailing checksum so handcrafted corruption reaches the
// structural validators instead of stopping at the checksum gate.
std::string with_fixed_checksum(std::string bytes) {
  const std::size_t body = bytes.size() - 8;
  const std::uint64_t h = fnv1a(std::string_view(bytes).substr(0, body));
  for (int i = 0; i < 8; ++i) {
    bytes[body + static_cast<std::size_t>(i)] =
        static_cast<char>((h >> (8 * i)) & 0xff);
  }
  return bytes;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// One real FlowResult, computed once and shared: the flow is the expensive
// part of these tests and every codec case wants the same fully-populated
// document (obfuscation provenance, both splits, compiled layouts, metrics).
const lock::FlowResult& flow_result() {
  static const lock::FlowResult result = [] {
    const auto& b = revlib::get_benchmark("4mod5");
    lock::FlowConfig cfg;
    cfg.shots = 64;
    Rng rng(7);
    return lock::run_flow(b.circuit, b.measured,
                          compiler::device_for(b.circuit.num_qubits()).target,
                          cfg, rng);
  }();
  return result;
}

service::ArtifactKey test_key() { return {0x1111, 0x2222, 0x3333}; }

std::string test_artifact_bytes() {
  return service::encode_artifact(test_key(), flow_result());
}

void expect_equal_compile(const compiler::CompileResult& a,
                          const compiler::CompileResult& b) {
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.initial_layout, b.initial_layout);
  EXPECT_EQ(a.final_layout, b.final_layout);
  EXPECT_EQ(a.wire_permutation, b.wire_permutation);
  EXPECT_EQ(a.stats.input_gates, b.stats.input_gates);
  EXPECT_EQ(a.stats.output_gates, b.stats.output_gates);
  EXPECT_EQ(a.stats.swaps_inserted, b.stats.swaps_inserted);
  EXPECT_EQ(a.stats.input_depth, b.stats.input_depth);
  EXPECT_EQ(a.stats.output_depth, b.stats.output_depth);
  EXPECT_EQ(a.stats.optimize.cancelled_pairs, b.stats.optimize.cancelled_pairs);
  EXPECT_EQ(a.stats.optimize.merged_rotations,
            b.stats.optimize.merged_rotations);
  EXPECT_EQ(a.stats.optimize.dropped_identities,
            b.stats.optimize.dropped_identities);
}

// Full structural equality of two FlowResults — exact doubles on purpose:
// the codec ships bit patterns, so nothing may drift even in the last ulp.
void expect_equal_results(const lock::FlowResult& a, const lock::FlowResult& b) {
  EXPECT_EQ(a.obf.circuit, b.obf.circuit);
  EXPECT_EQ(a.obf.original, b.obf.original);
  EXPECT_EQ(a.obf.random, b.obf.random);
  EXPECT_EQ(a.obf.origin, b.obf.origin);
  EXPECT_EQ(a.obf.has_gap_pairs, b.obf.has_gap_pairs);
  for (const auto& [sa, sb] :
       {std::make_pair(&a.splits.first, &b.splits.first),
        std::make_pair(&a.splits.second, &b.splits.second)}) {
    EXPECT_EQ(sa->circuit, sb->circuit);
    EXPECT_EQ(sa->local_to_orig, sb->local_to_orig);
    EXPECT_EQ(sa->gate_indices, sb->gate_indices);
  }
  EXPECT_EQ(a.recombined.circuit, b.recombined.circuit);
  EXPECT_EQ(a.recombined.orig_to_phys, b.recombined.orig_to_phys);
  expect_equal_compile(a.recombined.first.result, b.recombined.first.result);
  EXPECT_EQ(a.recombined.first.local_to_orig, b.recombined.first.local_to_orig);
  expect_equal_compile(a.recombined.second.result, b.recombined.second.result);
  EXPECT_EQ(a.recombined.second.local_to_orig,
            b.recombined.second.local_to_orig);
  expect_equal_compile(a.baseline, b.baseline);
  EXPECT_EQ(a.depth_original, b.depth_original);
  EXPECT_EQ(a.depth_obfuscated, b.depth_obfuscated);
  EXPECT_EQ(a.gates_original, b.gates_original);
  EXPECT_EQ(a.gates_obfuscated, b.gates_obfuscated);
  EXPECT_EQ(a.tvd_obfuscated, b.tvd_obfuscated);
  EXPECT_EQ(a.tvd_restored, b.tvd_restored);
  EXPECT_EQ(a.accuracy_original, b.accuracy_original);
  EXPECT_EQ(a.accuracy_restored, b.accuracy_restored);
}

// A scratch directory per test, wiped on entry so reruns start clean.
std::string scratch_dir(const char* name) {
  fs::path dir = fs::path(testing::TempDir()) / "tetris_artifact" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// --------------------------------------------------------------------- binio

TEST(BinIo, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xab).u32(0xdeadbeef).u64(0x0123456789abcdefULL).i64(-42);
  w.f64(-0.1).str("hello").raw("MAGC", 4);
  const std::string bytes = std::move(w).take();
  // Fixed widths: 1 + 4 + 8 + 8 + 8 + (4 + 5) + 4.
  EXPECT_EQ(bytes.size(), 42u);

  ByteReader r(bytes);
  EXPECT_EQ(r.u8("a"), 0xab);
  EXPECT_EQ(r.u32("b"), 0xdeadbeefu);
  EXPECT_EQ(r.u64("c"), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64("d"), -42);
  EXPECT_EQ(r.f64("e"), -0.1);  // exact: bit pattern, not text
  EXPECT_EQ(r.str("f", 100), "hello");
  EXPECT_EQ(r.raw(4, "g"), "MAGC");
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end("tail"));
}

TEST(BinIo, LittleEndianOnTheWire) {
  ByteWriter w;
  w.u32(0x01020304);
  const std::string b = std::move(w).take();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x01);
}

TEST(BinIo, TruncationNamesFieldAndOffset) {
  ByteWriter w;
  w.u32(7);
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_EQ(r.u32("first"), 7u);
  try {
    r.u64("second field");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("second field"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset 4"), std::string::npos) << msg;
  }
}

TEST(BinIo, CountRejectsOverLimitBeforeAllocating) {
  ByteWriter w;
  w.u32(1'000'000);
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_THROW(r.count("gate count", 1000), ParseError);
}

TEST(BinIo, StringRejectsOversizedLength) {
  ByteWriter w;
  w.u32(0xffffffff);  // length prefix far beyond the buffer
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_THROW(r.str("name", 1 << 12), ParseError);
}

TEST(BinIo, VarintsRoundTripAtTheirBoundaries) {
  const std::uint64_t values[] = {0, 1, 127, 128, 16383, 16384, 0xffffffffULL,
                                  0x8000000000000000ULL, ~0ULL};
  ByteWriter w;
  for (std::uint64_t v : values) w.var(v);
  w.zigzag(0).zigzag(-1).zigzag(1).zigzag(-64).zigzag(64);
  w.zigzag(INT64_MIN).zigzag(INT64_MAX).var_str("name");
  const std::string bytes = std::move(w).take();
  // 1+1+1+2+2+3+5+10+10 bytes of vars, 1+1+1+1+2+10+10 of zigzags, 1+4.
  EXPECT_EQ(bytes.size(), 35u + 26u + 5u);

  ByteReader r(bytes);
  for (std::uint64_t v : values) EXPECT_EQ(r.var("v"), v);
  EXPECT_EQ(r.zigzag("z"), 0);
  EXPECT_EQ(r.zigzag("z"), -1);
  EXPECT_EQ(r.zigzag("z"), 1);
  EXPECT_EQ(r.zigzag("z"), -64);
  EXPECT_EQ(r.zigzag("z"), 64);
  EXPECT_EQ(r.zigzag("z"), INT64_MIN);
  EXPECT_EQ(r.zigzag("z"), INT64_MAX);
  EXPECT_EQ(r.var_str("s", 4), "name");
  EXPECT_TRUE(r.at_end());
}

// Each value has one encoding: a trailing zero group is a longer spelling
// of a shorter value, and a tenth byte above 1 (or an eleventh byte) holds
// bits past 64.
TEST(BinIo, VarintRejectsOverlongAndOverflowing) {
  const std::vector<std::string> bad = {
      std::string("\x80\x00", 2),                  // 0 in two bytes
      std::string("\xff\x00", 2),                  // 127 in two bytes
      std::string("\x80\x80\x80\x80\x00", 5),      // 0 in five bytes
      std::string(9, '\xff') + '\x02',             // bit 64 set
      std::string(9, '\xff') + '\x81' + '\x00',     // eleven bytes
      std::string(10, '\x80') + '\x01',            // 2^70
      std::string("\x80", 1),                      // truncated
  };
  for (const std::string& bytes : bad) {
    ByteReader r(bytes);
    EXPECT_THROW(r.var("field"), ParseError) << bytes.size() << " bytes";
  }
  // The largest value and a zero stay readable.
  const std::string max = std::string(9, '\xff') + '\x01';
  ByteReader ok(max);
  EXPECT_EQ(ok.var("max"), ~0ULL);
  // A count above its limit is refused before anything is allocated.
  ByteWriter w;
  w.var(1'000'000);
  const std::string count = std::move(w).take();
  ByteReader r(count);
  EXPECT_THROW(r.var_count("gate count", 1000), ParseError);
}

TEST(BinIo, ExpectEndRejectsTrailingBytes) {
  ByteWriter w;
  w.u8(1).u8(2);
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  r.u8("x");
  EXPECT_THROW(r.expect_end("record"), ParseError);
}

// ------------------------------------------------------------- circuit codec

TEST(CircuitCodec, RandomCircuitsRoundTripExactly) {
  Rng rng(2025);
  for (int i = 0; i < 20; ++i) {
    qir::Circuit original = (i % 2 == 0)
                                ? qir::library::random_universal(4, 25, rng)
                                : qir::library::random_reversible(5, 25, rng);
    original.set_name("case_" + std::to_string(i));
    ByteWriter w;
    qir::write_circuit(w, original);
    const std::string bytes = std::move(w).take();

    ByteReader r(bytes);
    const qir::Circuit decoded = qir::read_circuit(r);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(decoded, original);
    EXPECT_EQ(decoded.name(), original.name());
    // The cache key survives the round trip — what lets a stored artifact be
    // re-verified against its provenance without re-running anything.
    EXPECT_EQ(decoded.content_hash(), original.content_hash());
  }
}

TEST(CircuitCodec, BarrierRoundTrips) {
  qir::Circuit c(3, "b");
  c.h(0).barrier().cx(0, 1);
  ByteWriter w;
  qir::write_circuit(w, c);
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_EQ(qir::read_circuit(r), c);
}

TEST(CircuitCodec, RejectsUnknownGateKind) {
  ByteWriter w;
  w.var(1).var_str("x").var(1);
  w.u8(0xff).var(0);  // kind 0xff does not exist
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_THROW(qir::read_circuit(r), ParseError);
}

TEST(CircuitCodec, RejectsOutOfRangeQubit) {
  qir::Circuit c(2, "");
  c.cx(0, 1);
  ByteWriter w;
  qir::write_circuit(w, c);
  std::string bytes = std::move(w).take();
  // The CX target qubit is the record's last byte (CX has no parameters);
  // rewrite it to 9 (register width is 2).
  bytes.back() = 9;
  ByteReader r(bytes);
  EXPECT_THROW(qir::read_circuit(r), ParseError);
}

TEST(CircuitCodec, RejectsRepeatedQubitAndTruncation) {
  qir::Circuit c(3, "");
  c.ccx(0, 1, 2);
  ByteWriter w;
  qir::write_circuit(w, c);
  std::string bytes = std::move(w).take();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(std::string_view(bytes).substr(0, len));
    EXPECT_THROW(qir::read_circuit(r), ParseError) << len << " bytes";
  }
  bytes.back() = 1;  // ccx(0, 1, 1)
  ByteReader r(bytes);
  EXPECT_THROW(qir::read_circuit(r), ParseError);
}

// Only MCX and Barrier spell out their qubit counts; no kind spells out a
// parameter count.
TEST(CircuitCodec, KindsImplyTheirCounts) {
  qir::Circuit c(5, "");
  c.rz(0.5, 0).cx(0, 1).mcx({0, 1, 2}, 4).barrier();
  ByteWriter w;
  qir::write_circuit(w, c);
  const std::string bytes = std::move(w).take();
  // 3 header bytes; rz: kind, qubit, f64; cx: kind, 2 qubits; mcx: kind,
  // count, 4 qubits; barrier: kind, count, 5 qubits.
  EXPECT_EQ(bytes.size(), 3u + 10u + 3u + 6u + 7u);
  ByteReader r(bytes);
  EXPECT_EQ(qir::read_circuit(r), c);
  EXPECT_TRUE(r.at_end());
}

TEST(CircuitCodec, RejectsOversizedQubitCount) {
  ByteWriter w;
  w.var(qir::kMaxCircuitQubits + 1).var_str("").var(0);
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_THROW(qir::read_circuit(r), ParseError);
}

// ---------------------------------------------------------- FlowResult codec

TEST(FlowResultCodec, RealFlowRoundTripsExactly) {
  const lock::FlowResult& original = flow_result();
  ByteWriter w;
  lock::write_flow_result(w, original);
  const std::string bytes = std::move(w).take();

  ByteReader r(bytes);
  const lock::FlowResult decoded = lock::read_flow_result(r);
  EXPECT_TRUE(r.at_end());
  expect_equal_results(decoded, original);
}

// A recombined circuit that is not exactly the concatenation of the
// compiled halves travels in full behind flag 0.
TEST(FlowResultCodec, RecombinedCircuitOtherThanTheConcatenationRoundTrips) {
  ByteWriter flagged;
  lock::write_flow_result(flagged, flow_result());
  lock::FlowResult renamed = flow_result();
  renamed.recombined.circuit.set_name("other");
  lock::FlowResult extended = flow_result();
  extended.recombined.circuit.x(0);
  for (const lock::FlowResult* variant : {&renamed, &extended}) {
    ByteWriter w;
    lock::write_flow_result(w, *variant);
    const std::string bytes = std::move(w).take();
    EXPECT_GT(bytes.size(), flagged.size());
    ByteReader r(bytes);
    const lock::FlowResult decoded = lock::read_flow_result(r);
    EXPECT_TRUE(r.at_end());
    expect_equal_results(decoded, *variant);
    EXPECT_EQ(decoded.recombined.circuit.name(),
              variant->recombined.circuit.name());
  }
  // The flagged form rebuilds the circuit Deobfuscator::run built.
  ByteReader r(flagged.bytes());
  const lock::FlowResult decoded = lock::read_flow_result(r);
  EXPECT_EQ(decoded.recombined.circuit.name(), "recombined_compiled");
  EXPECT_EQ(decoded.recombined.circuit, flow_result().recombined.circuit);
}

TEST(FlowResultCodec, DefaultResultRoundTrips) {
  const lock::FlowResult empty;
  ByteWriter w;
  lock::write_flow_result(w, empty);
  const std::string bytes = std::move(w).take();
  ByteReader r(bytes);
  const lock::FlowResult decoded = lock::read_flow_result(r);
  EXPECT_TRUE(r.at_end());
  expect_equal_results(decoded, empty);
}

// ----------------------------------------------------------- artifact format

TEST(Artifact, EncodeIsDeterministic) {
  EXPECT_EQ(test_artifact_bytes(), test_artifact_bytes());
}

TEST(Artifact, RoundTripsKeyAndResult) {
  const std::string bytes = test_artifact_bytes();
  const service::Artifact artifact = service::decode_artifact(bytes);
  EXPECT_EQ(artifact.key, test_key());
  expect_equal_results(artifact.result, flow_result());
}

TEST(Artifact, ChecksumMatchesSpec) {
  // The trailing 8 bytes are little-endian FNV-1a over everything before
  // them — the independent reimplementation above must agree.
  const std::string bytes = test_artifact_bytes();
  const std::size_t body = bytes.size() - 8;
  ByteReader tail(std::string_view(bytes).substr(body));
  EXPECT_EQ(tail.u64("checksum"),
            fnv1a(std::string_view(bytes).substr(0, body)));
}

TEST(Artifact, EveryStrictPrefixIsRejected) {
  const std::string bytes = test_artifact_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(service::decode_artifact(std::string_view(bytes).substr(0, len)),
                 ParseError)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(Artifact, EverySingleByteFlipIsRejected) {
  const std::string original = test_artifact_bytes();
  for (std::size_t i = 0; i < original.size(); ++i) {
    std::string mangled = original;
    mangled[i] = static_cast<char>(mangled[i] ^ 0x40);
    EXPECT_THROW(service::decode_artifact(mangled), ParseError)
        << "flip at byte " << i << " parsed";
  }
}

TEST(Artifact, RejectsBadMagicEvenWithValidChecksum) {
  std::string bytes = test_artifact_bytes();
  bytes[0] = 'X';
  try {
    service::decode_artifact(with_fixed_checksum(std::move(bytes)));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(Artifact, RejectsFutureVersion) {
  std::string bytes = test_artifact_bytes();
  bytes[4] = static_cast<char>(service::kArtifactVersion + 1);
  try {
    service::decode_artifact(with_fixed_checksum(std::move(bytes)));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Artifact, RejectsPayloadSizeMismatch) {
  std::string bytes = test_artifact_bytes();
  bytes[32] = static_cast<char>(bytes[32] + 1);  // payload_size low byte
  EXPECT_THROW(service::decode_artifact(with_fixed_checksum(std::move(bytes))),
               ParseError);
}

TEST(Artifact, RejectsTrailingGarbage) {
  std::string bytes = test_artifact_bytes();
  bytes.insert(bytes.size() - 8, "JUNK");
  EXPECT_THROW(service::decode_artifact(with_fixed_checksum(std::move(bytes))),
               ParseError);
}

TEST(Artifact, RejectsOversizedCountInsidePayload) {
  // Handcrafted envelope whose payload opens with an absurd qubit count —
  // must die at the count validator, before any allocation.
  ByteWriter payload;
  payload.var(0xffffffff);
  const std::string payload_bytes = std::move(payload).take();
  ByteWriter w;
  w.raw(service::kArtifactMagic, 4);
  w.u32(service::kArtifactVersion);
  w.u64(1).u64(2).u64(3);
  w.u64(payload_bytes.size());
  w.raw(payload_bytes.data(), payload_bytes.size());
  w.u64(0);  // placeholder checksum
  try {
    service::decode_artifact(with_fixed_checksum(std::move(w).take()));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds limit"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------- format 1 files

// `tetrislock_cli protect --benchmark 4mod5 --seed 2025 --shots 200
// --store DIR` as written by the last format-1 build, named by its key as
// the store names it.
constexpr const char* kFormat1Fixture =
    TETRIS_TEST_DATA_DIR "/artifacts_v1/"
    "df43ae19600474d7-00000000000007e9-ed6a152331902b8b.tla";

lock::FlowJob fixture_job() {
  const auto& b = revlib::get_benchmark("4mod5");
  lock::FlowConfig cfg;
  cfg.shots = 200;
  return lock::make_flow_job(b.name, b.circuit, b.measured, cfg);
}

TEST(ArtifactFormat1, FixtureDecodesToTheSameResultAsVersion2) {
  const std::string v1 = read_file(kFormat1Fixture);
  const service::Artifact old = service::decode_artifact(v1);
  EXPECT_EQ(old.version, 1u);
  EXPECT_EQ(old.key, service::artifact_key(fixture_job(), 2025));

  const std::string v2 = service::encode_artifact(old.key, old.result);
  const service::Artifact now = service::decode_artifact(v2);
  EXPECT_EQ(now.version, service::kArtifactVersion);
  EXPECT_EQ(now.key, old.key);
  EXPECT_LT(v2.size(), v1.size());
  EXPECT_EQ(service::to_json(now.result), service::to_json(old.result));
  expect_equal_results(now.result, old.result);

  // Today's run of the same key computes the stored result.
  service::Service svc(service::ServiceConfig{});
  const service::JobOutcome fresh = svc.submit(fixture_job(), 2025).wait();
  ASSERT_EQ(fresh.state, service::JobState::kDone);
  EXPECT_EQ(service::to_json(fresh.result), service::to_json(old.result));
  expect_equal_results(fresh.result, old.result);
}

// ------------------------------------------------------------ artifact store

TEST(ArtifactStore, MissThenStoreThenHit) {
  service::ArtifactStore store({scratch_dir("basic"), 0});
  const service::ArtifactKey key = test_key();
  EXPECT_EQ(store.load(key).status, service::LoadStatus::kMiss);
  const service::StoreResult written =
      store.store(key, service::encode_artifact(key, flow_result()));
  EXPECT_TRUE(written.written);
  EXPECT_EQ(written.evicted, 0u);
  const auto loaded = store.load(key);
  ASSERT_EQ(loaded.status, service::LoadStatus::kHit);
  expect_equal_results(service::decode_artifact(loaded.bytes).result,
                       flow_result());
  EXPECT_EQ(store.entries(), 1u);
}

TEST(ArtifactStore, FileNameEncodesTheKey) {
  service::ArtifactStore store({scratch_dir("naming"), 0});
  const std::string path = store.path_for({0xab, 0x1, 0xffff});
  EXPECT_NE(path.find("00000000000000ab-0000000000000001-000000000000ffff.tla"),
            std::string::npos)
      << path;
}

TEST(ArtifactStore, CorruptFileCountsAndRecovers) {
  service::ArtifactStore store({scratch_dir("corrupt"), 0});
  const service::ArtifactKey key = test_key();
  ASSERT_TRUE(store.store(key, test_artifact_bytes()).written);

  // Truncate the file on disk behind the store's back.
  const std::string path = store.path_for(key);
  std::string bytes = read_file(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(store.load(key).status, service::LoadStatus::kCorrupt);

  // A rewrite heals it.
  ASSERT_TRUE(store.store(key, test_artifact_bytes()).written);
  EXPECT_EQ(store.load(key).status, service::LoadStatus::kHit);
}

TEST(ArtifactStore, WrongEmbeddedKeyIsCorruptNotHit) {
  service::ArtifactStore store({scratch_dir("renamed"), 0});
  const service::ArtifactKey key_a = {1, 2, 3};
  const service::ArtifactKey key_b = {4, 5, 6};
  ASSERT_TRUE(
      store.store(key_a, service::encode_artifact(key_a, flow_result()))
          .written);
  // Simulate a mis-renamed file: key_a's bytes under key_b's name.
  fs::copy_file(store.path_for(key_a), store.path_for(key_b));
  EXPECT_EQ(store.load(key_b).status, service::LoadStatus::kCorrupt);
  EXPECT_EQ(store.load(key_a).status, service::LoadStatus::kHit);
}

TEST(ArtifactStore, EvictsOldestPastCapacity) {
  service::ArtifactStore store({scratch_dir("evict"), 2});
  const lock::FlowResult empty;  // small artifacts; content is irrelevant
  std::size_t evicted = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const service::ArtifactKey key = {i, i, i};
    const service::StoreResult written =
        store.store(key, service::encode_artifact(key, empty));
    ASSERT_TRUE(written.written);
    evicted += written.evicted;
  }
  EXPECT_LE(store.entries(), 2u);
  EXPECT_GE(evicted, 2u);
}

// -------------------------------------------------------- service integration

lock::FlowJob small_job() {
  const auto& b = revlib::get_benchmark("4mod5");
  lock::FlowConfig cfg;
  cfg.shots = 64;
  return lock::make_flow_job(b.name, b.circuit, b.measured, cfg);
}

/// One unlabelled family of the service's registry (0 when absent).
double service_metric(const service::Service& svc, const char* name) {
  return obs::sum_samples(svc.telemetry().collect(), name);
}

TEST(ServiceStore, WarmStartsAcrossRestart) {
  const std::string dir = scratch_dir("warm_start");
  service::ServiceConfig cfg;
  cfg.store_dir = dir;
  cfg.cache_capacity = 0;  // disk tier only: the hit must come from the store

  lock::FlowResult first_result;
  {
    service::Service svc(cfg);
    const auto out = svc.submit(small_job(), /*seed=*/42).wait();
    ASSERT_EQ(out.state, service::JobState::kDone);
    EXPECT_FALSE(out.cache_hit);
    first_result = out.result;
    ASSERT_NE(svc.artifact_store(), nullptr);
    EXPECT_EQ(service_metric(svc, "tetris_store_writes_total"), 1.0);
  }  // "restart": the first service (and its memory) is gone

  service::Service svc(cfg);
  const auto out = svc.submit(small_job(), /*seed=*/42).wait();
  ASSERT_EQ(out.state, service::JobState::kDone);
  EXPECT_TRUE(out.cache_hit);  // answered from disk, no recompute
  EXPECT_EQ(service_metric(svc, "tetris_store_hits_total"), 1.0);
  expect_equal_results(out.result, first_result);
}

// A store written by a format-1 build warm-starts a format-2 service: the
// hit keeps the file's bytes as the job's artifact.
TEST(ServiceStore, WarmStartsFromFormat1File) {
  const std::string dir = scratch_dir("format1");
  fs::copy_file(kFormat1Fixture,
                fs::path(dir) / fs::path(kFormat1Fixture).filename());
  service::ServiceConfig cfg;
  cfg.store_dir = dir;
  service::Service svc(cfg);
  const auto handle = svc.submit(fixture_job(), 2025);
  const auto out = handle.wait();
  ASSERT_EQ(out.state, service::JobState::kDone);
  EXPECT_TRUE(out.cache_hit);
  EXPECT_EQ(service_metric(svc, "tetris_store_hits_total"), 1.0);
  EXPECT_EQ(svc.artifact_bytes(handle), read_file(kFormat1Fixture));
  expect_equal_results(
      out.result, service::decode_artifact(read_file(kFormat1Fixture)).result);
}

TEST(ServiceStore, DiskHitPromotesIntoMemoryCache) {
  const std::string dir = scratch_dir("promote");
  service::ServiceConfig cfg;
  cfg.store_dir = dir;
  cfg.cache_capacity = 8;
  {
    service::Service warmup(cfg);
    ASSERT_EQ(warmup.submit(small_job(), 42).wait().state,
              service::JobState::kDone);
  }

  service::Service svc(cfg);
  EXPECT_TRUE(svc.submit(small_job(), 42).wait().cache_hit);  // from disk
  EXPECT_TRUE(svc.submit(small_job(), 42).wait().cache_hit);  // from memory
  // Disk touched only once.
  EXPECT_EQ(service_metric(svc, "tetris_store_hits_total"), 1.0);
  EXPECT_EQ(svc.cache_stats().hits, 1u);
}

TEST(ServiceStore, ArtifactBytesMatchStoredFile) {
  const std::string dir = scratch_dir("bytes_match");
  service::ServiceConfig cfg;
  cfg.store_dir = dir;
  cfg.cache_capacity = 8;
  const service::ArtifactKey key = service::artifact_key(small_job(), 42);
  const std::string path = service::ArtifactStore({dir, 0}).path_for(key);

  service::Service svc(cfg);
  auto handle = svc.submit(small_job(), 42);
  const service::JobOutcome computed = handle.wait();
  ASSERT_EQ(computed.state, service::JobState::kDone);
  EXPECT_FALSE(computed.cache_hit);

  // The endpoint/CLI path (the bytes the record holds) and the store's file
  // must be byte-identical.
  const std::string via_service = svc.artifact_bytes(handle);
  const std::string via_disk = read_file(path);
  EXPECT_EQ(via_service, via_disk);

  // The cached paths hold the same bytes: a memory hit of the same triple,
  // and a store hit from a fresh Service over the same directory. Each
  // decodes to the computed job's document once id and cache_hit align.
  const std::string document = service::to_json(computed, false);
  const auto expect_same = [&](service::Service& owner,
                               const service::JobHandle& hit) {
    service::JobOutcome out = hit.wait();
    ASSERT_EQ(out.state, service::JobState::kDone);
    EXPECT_TRUE(out.cache_hit);
    EXPECT_EQ(owner.artifact_bytes(hit), via_disk);
    out.id = computed.id;
    out.cache_hit = computed.cache_hit;
    EXPECT_EQ(service::to_json(out, false), document);
  };
  expect_same(svc, svc.submit(small_job(), 42));
  EXPECT_EQ(svc.cache_stats().hits, 1u);
  service::Service fresh(cfg);
  expect_same(fresh, fresh.submit(small_job(), 42));
  EXPECT_EQ(service_metric(fresh, "tetris_store_hits_total"), 1.0);

  const service::Artifact decoded = service::decode_artifact(via_service);
  EXPECT_EQ(decoded.key, key);
}

TEST(ServiceStore, ArtifactBytesStableAcrossThreadCounts) {
  // The determinism contract, extended to stored artifacts: sample_threads
  // shards the same trajectories over more workers and must not change a
  // single output bit, so the encoded artifact is byte-identical too.
  std::string bytes[2];
  int i = 0;
  for (unsigned threads : {1u, 2u}) {
    lock::FlowJob job = small_job();
    job.config.sample_threads = threads;
    const service::ArtifactKey key = service::artifact_key(job, 42);
    service::Service svc;
    auto handle = svc.submit(std::move(job), 42);
    ASSERT_EQ(handle.wait().state, service::JobState::kDone);
    EXPECT_EQ(key, service::artifact_key(small_job(), 42))
        << "sample_threads must not enter the artifact key";
    bytes[i++] = svc.artifact_bytes(handle);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(ServiceStore, ArtifactBytesRequiresDoneJob) {
  service::Service svc;
  qir::Circuit wide(6, "too_wide");
  wide.x(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4).cx(4, 5);
  lock::FlowJob job;
  job.name = "too_wide";
  job.circuit = wide;
  for (int q = 0; q < 6; ++q) job.measured.push_back(q);
  job.target = compiler::fake_valencia();  // 5 physical qubits: must fail
  job.config.shots = 64;
  auto handle = svc.submit(std::move(job), 42);
  ASSERT_EQ(handle.wait().state, service::JobState::kFailed);
  EXPECT_THROW(svc.artifact_bytes(handle), InvalidArgument);
}

TEST(ServiceStore, CorruptStoreFileFallsBackToRecompute) {
  const std::string dir = scratch_dir("fallback");
  service::ServiceConfig cfg;
  cfg.store_dir = dir;
  {
    service::Service warmup(cfg);
    ASSERT_EQ(warmup.submit(small_job(), 42).wait().state,
              service::JobState::kDone);
  }
  // Flip one byte in the stored artifact.
  const std::string path =
      service::ArtifactStore({dir, 0}).path_for(
          service::artifact_key(small_job(), 42));
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  service::Service svc(cfg);
  const auto out = svc.submit(small_job(), 42).wait();
  ASSERT_EQ(out.state, service::JobState::kDone);
  EXPECT_FALSE(out.cache_hit);  // corrupt file must not answer the job
  EXPECT_EQ(service_metric(svc, "tetris_store_corrupt_total"), 1.0);
  // The recompute healed the file: a fresh service hits.
  service::Service again(cfg);
  EXPECT_TRUE(again.submit(small_job(), 42).wait().cache_hit);
}

}  // namespace
}  // namespace tetris

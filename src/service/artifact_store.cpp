#include "service/artifact_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/error.h"
#include "common/hash.h"
#include "lock/serialize.h"
#include "service/service.h"

namespace tetris::service {

namespace fs = std::filesystem;

namespace {

/// Guard against a corrupt payload_size: no FlowResult the pipeline can
/// produce comes near this (the circuit codec alone caps out far below), and
/// a reader must not allocate gigabytes on the say-so of eight corrupt bytes.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 32;

/// FNV-1a over raw bytes — the artifact checksum. Deliberately the same
/// per-byte mix as tetris::Fnv64 (common/hash.h) so docs/FORMATS.md has one
/// hash to specify, but fed bytes directly (no length prefix or widening).
std::uint64_t fnv1a_bytes(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return false;
  out = std::move(bytes);
  return true;
}

/// Atomic publication: write to a sibling temp file, then rename over the
/// final name. rename(2) within one directory is atomic on POSIX, so a
/// concurrent reader sees either the old complete file or the new complete
/// file, never a prefix.
bool write_file_atomic(const fs::path& path, std::string_view bytes) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

/// (mtime, path) of every artifact file in `dir`. Scan errors (a sibling
/// racing us) skip the entry: the listing feeds best-effort housekeeping and
/// a gauge, never correctness.
std::vector<std::pair<fs::file_time_type, fs::path>> artifact_files(
    const std::string& dir) {
  std::vector<std::pair<fs::file_time_type, fs::path>> files;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec) || ec) continue;
    if (it->path().extension() != kArtifactExtension) continue;
    const auto mtime = fs::last_write_time(it->path(), ec);
    if (ec) continue;
    files.emplace_back(mtime, it->path());
  }
  return files;
}

}  // namespace

ArtifactKey artifact_key(const lock::FlowJob& job, std::uint64_t seed) {
  return ArtifactKey{job.circuit.content_hash(), seed, flow_fingerprint(job)};
}

std::string encode_artifact(const ArtifactKey& key,
                            const lock::FlowResult& result) {
  ByteWriter payload;
  lock::write_flow_result(payload, result);
  const std::string payload_bytes = std::move(payload).take();

  ByteWriter w;
  w.raw(kArtifactMagic, sizeof(kArtifactMagic));
  w.u32(kArtifactVersion);
  w.u64(key.circuit_hash);
  w.u64(key.seed);
  w.u64(key.fingerprint);
  w.u64(static_cast<std::uint64_t>(payload_bytes.size()));
  w.raw(payload_bytes.data(), payload_bytes.size());
  // Whole-file checksum over everything before it: any single-byte flip in
  // header or payload changes the digest and is caught before parsing.
  w.u64(fnv1a_bytes(w.bytes()));
  return std::move(w).take();
}

Artifact decode_artifact(std::string_view bytes) {
  // The checksum is validated first, against the raw buffer, so a flipped
  // byte reports as corruption rather than as whatever structural error it
  // happens to masquerade as. Truncation below the minimum envelope size is
  // the one case reported structurally (there is no complete checksum to
  // check).
  const std::size_t min_size = kArtifactHeaderBytes + kArtifactTrailerBytes;
  if (bytes.size() < min_size) {
    throw ParseError("artifact: truncated envelope: " +
                     std::to_string(bytes.size()) + " bytes, need at least " +
                     std::to_string(min_size));
  }
  const std::size_t body_size = bytes.size() - kArtifactTrailerBytes;
  {
    ByteReader tail(bytes.substr(body_size));
    const std::uint64_t stored = tail.u64("artifact checksum");
    const std::uint64_t actual = fnv1a_bytes(bytes.substr(0, body_size));
    if (stored != actual) {
      throw ParseError("artifact: checksum mismatch: stored " + hex16(stored) +
                       ", computed " + hex16(actual));
    }
  }

  ByteReader r(bytes.substr(0, body_size));
  const std::string_view magic = r.raw(sizeof(kArtifactMagic), "artifact magic");
  if (magic != std::string_view(kArtifactMagic, sizeof(kArtifactMagic))) {
    throw ParseError("artifact: bad magic (not a TetrisLock artifact)");
  }
  const std::uint32_t version = r.u32("artifact version");
  if (version == 0 || version > kArtifactVersion) {
    throw ParseError("artifact: unsupported format version " +
                     std::to_string(version) + " (reader supports 1.." +
                     std::to_string(kArtifactVersion) + ")");
  }

  Artifact artifact;
  artifact.key.circuit_hash = r.u64("artifact circuit_hash");
  artifact.key.seed = r.u64("artifact seed");
  artifact.key.fingerprint = r.u64("artifact fingerprint");

  const std::uint64_t payload_size = r.u64("artifact payload size");
  if (payload_size > kMaxPayloadBytes) {
    throw ParseError("artifact: payload size " + std::to_string(payload_size) +
                     " exceeds limit " + std::to_string(kMaxPayloadBytes));
  }
  if (payload_size != r.remaining()) {
    throw ParseError("artifact: payload size " + std::to_string(payload_size) +
                     " does not match " + std::to_string(r.remaining()) +
                     " bytes present");
  }
  ByteReader payload(r.raw(static_cast<std::size_t>(payload_size),
                           "artifact payload"));
  artifact.result = lock::read_flow_result(payload);
  payload.expect_end("artifact payload");
  return artifact;
}

ArtifactStore::ArtifactStore(ArtifactStoreConfig config)
    : config_(std::move(config)) {
  TETRIS_REQUIRE(!config_.dir.empty(), "ArtifactStore: empty directory");
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  TETRIS_REQUIRE(!ec && fs::is_directory(config_.dir),
                 "ArtifactStore: cannot create directory " + config_.dir);
}

std::string ArtifactStore::path_for(const ArtifactKey& key) const {
  return (fs::path(config_.dir) /
          (hex16(key.circuit_hash) + "-" + hex16(key.seed) + "-" +
           hex16(key.fingerprint) + kArtifactExtension))
      .string();
}

LoadResult ArtifactStore::load(const ArtifactKey& key) const {
  LoadResult out;
  std::string bytes;
  if (!read_file(path_for(key), bytes)) return out;  // kMiss
  try {
    if (decode_artifact(bytes).key != key) {
      // A renamed or cross-copied file: structurally valid, wrong identity.
      throw ParseError("artifact: embedded key does not match requested key");
    }
    out.status = LoadStatus::kHit;
    out.bytes = std::move(bytes);
  } catch (const ParseError&) {
    // Corrupt on disk: treated as a miss — the recompute path will
    // overwrite the bad file atomically.
    out.status = LoadStatus::kCorrupt;
  }
  return out;
}

StoreResult ArtifactStore::store(const ArtifactKey& key,
                                 std::string_view bytes) const {
  StoreResult out;
  out.written = write_file_atomic(path_for(key), bytes);
  if (out.written && config_.max_entries > 0) {
    out.evicted = evict_over_capacity();
  }
  return out;
}

std::size_t ArtifactStore::evict_over_capacity() const {
  // Evict oldest-first (by mtime) until within bound.
  auto files = artifact_files(config_.dir);
  if (files.size() <= config_.max_entries) return 0;
  std::sort(files.begin(), files.end());
  const std::size_t excess = files.size() - config_.max_entries;
  std::size_t removed = 0;
  std::error_code ec;
  for (std::size_t i = 0; i < excess; ++i) {
    if (fs::remove(files[i].second, ec) && !ec) ++removed;
  }
  return removed;
}

std::size_t ArtifactStore::entries() const {
  return artifact_files(config_.dir).size();
}

}  // namespace tetris::service

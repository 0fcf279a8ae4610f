#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "lock/pipeline.h"

namespace tetris::service {

/// Durable artifact layer: the versioned on-disk form of a finished flow and
/// the directory-backed cache tier behind the in-memory LRU. docs/FORMATS.md
/// is the normative byte-level spec; this header is the API.
///
/// Obfuscation output is a *stored product*, not a transient result: a
/// locked circuit is computed once by the designer and then downloaded many
/// times (per fab, per audit, per node of a serving fleet). The artifact
/// format packages one complete lock::FlowResult together with the exact
/// cache identity that produced it, so any process — a restarted `serve`, a
/// sibling node sharing the directory, an offline `fetch` — can verify what
/// it holds and serve it in place of a re-run.

/// The identity of one flow run — the same triple the in-memory result cache
/// keys on: the circuit's canonical content hash, the job's effective RNG
/// seed, and service::flow_fingerprint over everything else that influences
/// the outcome. Because a FlowResult is a pure function of this triple, the
/// triple is sufficient provenance: equal keys imply bit-identical results.
struct ArtifactKey {
  std::uint64_t circuit_hash = 0;  ///< qir::Circuit::content_hash()
  std::uint64_t seed = 0;          ///< effective per-job RNG seed
  std::uint64_t fingerprint = 0;   ///< service::flow_fingerprint(job)

  bool operator==(const ArtifactKey& o) const {
    return circuit_hash == o.circuit_hash && seed == o.seed &&
           fingerprint == o.fingerprint;
  }
  bool operator!=(const ArtifactKey& o) const { return !(*this == o); }
};

/// The key of one job: (content hash, seed, fingerprint) — computed the same
/// way the service's execute path computes its cache key.
ArtifactKey artifact_key(const lock::FlowJob& job, std::uint64_t seed);

/// Envelope constants (docs/FORMATS.md §2). The magic makes an artifact file
/// self-identifying; the version gates the reader: files carrying a higher
/// version than kArtifactVersion are rejected as from-the-future, never
/// half-parsed.
inline constexpr char kArtifactMagic[4] = {'T', 'L', 'A', 'F'};
inline constexpr std::uint32_t kArtifactVersion = 1;
inline constexpr const char* kArtifactExtension = ".tla";
/// Fixed envelope size around the payload: 4 magic + 4 version + 24 key +
/// 8 payload length before it, 8 checksum after it.
inline constexpr std::size_t kArtifactHeaderBytes = 40;
inline constexpr std::size_t kArtifactTrailerBytes = 8;

/// One decoded artifact: the provenance key and the full flow result.
struct Artifact {
  ArtifactKey key;
  lock::FlowResult result;
};

/// Serializes (key, result) into the versioned envelope:
/// magic, version, key triple, payload length, FlowResult payload
/// (lock/serialize.h), and a trailing FNV-1a checksum over every preceding
/// byte. Deterministic: bit-identical results produce byte-identical
/// artifacts, so the same key always maps to the same file content whatever
/// process or thread count computed it.
std::string encode_artifact(const ArtifactKey& key,
                            const lock::FlowResult& result);

/// Parses and fully validates an artifact: magic, supported version, length
/// consistency, checksum (verified *before* the payload is parsed — any
/// single corrupted byte anywhere in the file is caught here), then the
/// payload itself through the bounded readers. Throws tetris::ParseError
/// with a structured message on any violation; never crashes on arbitrary
/// bytes (fuzzed under ASan/UBSan in tests/test_artifact.cpp).
Artifact decode_artifact(std::string_view bytes);

/// Store knobs.
struct ArtifactStoreConfig {
  std::string dir;  ///< directory holding one file per artifact (created)
  /// Entry cap; past it the oldest files (by mtime) are evicted after each
  /// write. 0 = unbounded.
  std::size_t max_entries = 0;
};

/// What one ArtifactStore::load found.
enum class LoadStatus {
  kHit,      ///< a valid artifact for the key
  kMiss,     ///< no file for the key
  kCorrupt,  ///< a file that failed validation or embeds another key
};

/// Outcome of ArtifactStore::load; `bytes` is set only for kHit.
struct LoadResult {
  LoadStatus status = LoadStatus::kMiss;
  /// The file's bytes, fully decoded once and checked against the requested
  /// key — the Service keeps them as the job's artifact.
  std::string bytes;
};

/// Outcome of ArtifactStore::store.
struct StoreResult {
  bool written = false;     ///< the artifact landed on disk
  std::size_t evicted = 0;  ///< files removed by the max_entries bound
};

/// Disk-backed artifact cache, keyed on the ArtifactKey triple.
///
/// One artifact per file, named `<hash>-<seed>-<fingerprint>.tla` (16 hex
/// digits each) so the key is recoverable from a directory listing alone.
/// Writes are atomic (temp file + rename): a reader — in this process or a
/// sibling sharing the directory over NFS/a volume mount — can never observe
/// a half-written artifact. A corrupt or truncated file is reported as
/// kCorrupt, left in place, and treated as a miss; the recompute that
/// follows overwrites it atomically. The store never throws on load/store
/// I/O or corruption — a broken cache tier must degrade a flow to a
/// recompute, not fail it — but the constructor does throw if the directory
/// cannot be created. It keeps no counters: each call returns its outcome
/// and the Service counts it.
///
/// Thread safety: all methods may be called concurrently; file-level
/// atomicity comes from rename, and the store holds no mutable state.
class ArtifactStore {
 public:
  explicit ArtifactStore(ArtifactStoreConfig config);

  /// Loads the artifact for `key`. A stored file whose embedded key differs
  /// from `key` (a renamed or cross-copied file) is kCorrupt, not a hit —
  /// the filename is a convenience, the embedded key is the authority.
  LoadResult load(const ArtifactKey& key) const;

  /// Persists `bytes` — encode_artifact(key, result), encoded once by the
  /// caller — as the artifact for `key`, overwriting any existing file, then
  /// applies the max_entries bound. `written` is false (and nothing is
  /// evicted) if the bytes could not be written.
  StoreResult store(const ArtifactKey& key, std::string_view bytes) const;

  /// Absolute-ish path an artifact for `key` lives at (whether or not it
  /// currently exists).
  std::string path_for(const ArtifactKey& key) const;

  /// Artifact files currently in the directory (a fresh scan).
  std::size_t entries() const;

  const ArtifactStoreConfig& config() const { return config_; }

 private:
  /// Removes the oldest files past max_entries; returns how many went.
  std::size_t evict_over_capacity() const;

  ArtifactStoreConfig config_;
};

}  // namespace tetris::service

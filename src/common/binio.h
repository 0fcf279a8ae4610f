#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.h"

namespace tetris {

/// Binary serialization primitives — the `fread`/`fwrite` layer every stored
/// artifact goes through (docs/FORMATS.md is the normative spec).
///
/// The encoding is deliberately boring: little-endian fixed-width integers
/// or LEB128 varints, IEEE-754 doubles by exact bit pattern, and
/// length-prefixed byte strings. The fixed widths frame the artifact
/// envelope and format-1 payloads; format-2 payloads write their integers
/// as varints, since nearly all of them (qubits, counts, layouts) fit one
/// byte. Every value has exactly one encoding — the reader rejects overlong
/// varints — and bit-pattern doubles make encoding lossless, so
/// bit-identical values serialize to byte-identical output, which is what
/// lets the disk cache and the artifact endpoint promise byte-stable
/// artifacts (see the determinism contract in docs/ARCHITECTURE.md).
///
/// The writer is append-only and infallible; all validation lives in the
/// reader, because stored bytes are untrusted input (a truncated download, a
/// corrupted disk block, a hand-edited file). Every reader primitive is
/// bounds-checked and throws tetris::ParseError naming the field and byte
/// offset — never reads past the buffer, never crashes, never returns
/// garbage.

/// Append-only little-endian byte sink.
///
/// Usage:
///   ByteWriter w;
///   w.u32(42).f64(0.5).str("name");
///   std::string bytes = std::move(w).take();
class ByteWriter {
 public:
  ByteWriter& u8(std::uint8_t v);
  ByteWriter& u32(std::uint32_t v);
  ByteWriter& u64(std::uint64_t v);
  /// Two's-complement via the u64 bit pattern.
  ByteWriter& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern as a u64 — exact, locale-free, reversible.
  ByteWriter& f64(double v);
  /// u32 byte length + raw bytes (no terminator).
  ByteWriter& str(std::string_view s);
  /// Unsigned LEB128: seven bits per byte, lowest first, the high bit set
  /// on every byte but the last; 1 to 10 bytes.
  ByteWriter& var(std::uint64_t v);
  /// Zigzag-mapped var (0, -1, 1, -2, ... as 0, 1, 2, 3, ...), so small
  /// negative values stay one byte.
  ByteWriter& zigzag(std::int64_t v) {
    return var((static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63));
  }
  /// var byte length + raw bytes.
  ByteWriter& var_str(std::string_view s);
  /// Raw bytes, no length prefix (for magic tags).
  ByteWriter& raw(const void* data, std::size_t size);
  /// Sizes the buffer for `total` bytes up front, so a writer whose final
  /// size is known allocates once and keeps no growth slack.
  ByteWriter& reserve(std::size_t total) {
    out_.reserve(total);
    return *this;
  }

  std::size_t size() const { return out_.size(); }
  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounded little-endian reader over an in-memory byte buffer.
///
/// Primitives mirror ByteWriter exactly. Each takes a short field name that
/// appears in the error message, so a corrupt file reports *which* field at
/// *which* offset failed instead of a bare "bad data":
///
///   ByteReader r(bytes);
///   std::uint32_t n = r.u32("gate count");
///   // truncated input -> ParseError("binio: truncated reading gate count
///   //                                at offset 12 (need 4 bytes, have 1)")
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : data_(bytes) {}

  std::uint8_t u8(const char* what);
  std::uint32_t u32(const char* what);
  std::uint64_t u64(const char* what);
  std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }
  double f64(const char* what);
  /// Length-prefixed string; rejects lengths above `max_bytes` (a corrupt
  /// length prefix must not become a multi-gigabyte allocation).
  std::string str(const char* what, std::size_t max_bytes);
  /// LEB128 value (ByteWriter::var). Rejects an encoding that runs past the
  /// buffer, one longer than the value needs (a final 0x00 byte after a
  /// continuation), and one whose value exceeds 64 bits.
  std::uint64_t var(const char* what);
  std::int64_t zigzag(const char* what) {
    const std::uint64_t u = var(what);
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }
  /// var-prefixed string, with str's limit.
  std::string var_str(const char* what, std::size_t max_bytes);
  /// Raw view of the next `size` bytes (bounds-checked, no copy).
  std::string_view raw(std::size_t size, const char* what);

  /// u32 element count, rejected above `max_count` with an over-limit error.
  /// The limit check happens *before* any allocation or element loop, so an
  /// adversarial count can cost at most one exception.
  std::uint32_t count(const char* what, std::uint32_t max_count);
  /// var element count, with count's limit check.
  std::uint32_t var_count(const char* what, std::uint32_t max_count);

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }
  /// Throws ParseError unless the input is fully consumed — trailing bytes
  /// mean the reader and writer disagree about the format, which must never
  /// pass silently.
  void expect_end(const char* what) const;

 private:
  void require(std::size_t need, const char* what) const;
  /// Throws the over-limit error for a count or length read from `start`.
  [[noreturn]] void over_limit(const char* what, std::uint64_t n,
                               std::uint64_t limit, std::size_t start) const;
  /// Reads `size` bytes into a string (after the limit check).
  std::string take(std::uint64_t size, const char* what);

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace tetris

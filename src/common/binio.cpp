#include "common/binio.h"

#include <cstring>

namespace tetris {

namespace {

/// Little-endian append of the low `bytes` bytes of `v`. Explicit shifts,
/// not memcpy of the in-memory representation, so the wire format is
/// identical on any host endianness.
void append_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffULL));
  }
}

std::uint64_t read_le(std::string_view data, std::size_t pos, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

}  // namespace

// ------------------------------------------------------------- ByteWriter

ByteWriter& ByteWriter::u8(std::uint8_t v) {
  out_.push_back(static_cast<char>(v));
  return *this;
}

ByteWriter& ByteWriter::u32(std::uint32_t v) {
  append_le(out_, v, 4);
  return *this;
}

ByteWriter& ByteWriter::u64(std::uint64_t v) {
  append_le(out_, v, 8);
  return *this;
}

ByteWriter& ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return u64(bits);
}

ByteWriter& ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s.data(), s.size());
  return *this;
}

ByteWriter& ByteWriter::var(std::uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
  return *this;
}

ByteWriter& ByteWriter::var_str(std::string_view s) {
  var(s.size());
  out_.append(s.data(), s.size());
  return *this;
}

ByteWriter& ByteWriter::raw(const void* data, std::size_t size) {
  out_.append(static_cast<const char*>(data), size);
  return *this;
}

// ------------------------------------------------------------- ByteReader

void ByteReader::require(std::size_t need, const char* what) const {
  if (remaining() < need) {
    throw ParseError("binio: truncated reading " + std::string(what) +
                     " at offset " + std::to_string(pos_) + " (need " +
                     std::to_string(need) + " bytes, have " +
                     std::to_string(remaining()) + ")");
  }
}

std::uint8_t ByteReader::u8(const char* what) {
  require(1, what);
  return static_cast<std::uint8_t>(read_le(data_, pos_++, 1));
}

std::uint32_t ByteReader::u32(const char* what) {
  require(4, what);
  auto v = static_cast<std::uint32_t>(read_le(data_, pos_, 4));
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64(const char* what) {
  require(8, what);
  std::uint64_t v = read_le(data_, pos_, 8);
  pos_ += 8;
  return v;
}

double ByteReader::f64(const char* what) {
  std::uint64_t bits = u64(what);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void ByteReader::over_limit(const char* what, std::uint64_t n,
                            std::uint64_t limit, std::size_t start) const {
  throw ParseError("binio: " + std::string(what) + " " + std::to_string(n) +
                   " exceeds limit " + std::to_string(limit) + " at offset " +
                   std::to_string(start));
}

std::string ByteReader::take(std::uint64_t size, const char* what) {
  require(static_cast<std::size_t>(size), what);
  std::string s(data_.substr(pos_, static_cast<std::size_t>(size)));
  pos_ += static_cast<std::size_t>(size);
  return s;
}

std::string ByteReader::str(const char* what, std::size_t max_bytes) {
  const std::size_t start = pos_;
  const std::uint32_t size = u32(what);
  if (size > max_bytes) over_limit(what, size, max_bytes, start);
  return take(size, what);
}

std::uint64_t ByteReader::var(const char* what) {
  const std::size_t start = pos_;
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    require(1, what);
    const auto byte = static_cast<unsigned char>(data_[pos_++]);
    // The tenth byte holds bit 63 alone.
    if (shift == 63 && byte > 1) {
      throw ParseError("binio: " + std::string(what) +
                       " varint overflows 64 bits at offset " +
                       std::to_string(start));
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift > 0) {
        throw ParseError("binio: " + std::string(what) +
                         " overlong varint at offset " + std::to_string(start));
      }
      return v;
    }
  }
}

std::string ByteReader::var_str(const char* what, std::size_t max_bytes) {
  const std::size_t start = pos_;
  const std::uint64_t size = var(what);
  if (size > max_bytes) over_limit(what, size, max_bytes, start);
  return take(size, what);
}

std::string_view ByteReader::raw(std::size_t size, const char* what) {
  require(size, what);
  std::string_view v = data_.substr(pos_, size);
  pos_ += size;
  return v;
}

std::uint32_t ByteReader::count(const char* what, std::uint32_t max_count) {
  const std::size_t start = pos_;
  const std::uint32_t n = u32(what);
  if (n > max_count) over_limit(what, n, max_count, start);
  return n;
}

std::uint32_t ByteReader::var_count(const char* what,
                                    std::uint32_t max_count) {
  const std::size_t start = pos_;
  const std::uint64_t n = var(what);
  if (n > max_count) over_limit(what, n, max_count, start);
  return static_cast<std::uint32_t>(n);
}

void ByteReader::expect_end(const char* what) const {
  if (!at_end()) {
    throw ParseError("binio: " + std::to_string(remaining()) +
                     " trailing bytes after " + std::string(what) +
                     " at offset " + std::to_string(pos_));
  }
}

}  // namespace tetris

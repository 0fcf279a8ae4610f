#include "common/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <locale>
#include <sstream>

#include "common/error.h"

namespace tetris::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  // Shortest %g text that round-trips, locale-independent (printf-family %g
  // would emit ',' under e.g. de_DE and produce invalid JSON). The search
  // starts at the digit count of the shortest scientific form; %g at that
  // precision misses only next to a power of two, where the rounding
  // interval is lopsided.
  char buf[32];
  char* end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific)
          .ptr;
  int precision = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++precision;
  }
  std::string s;
  for (; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        precision)
              .ptr;
    double parsed = 0.0;
    std::from_chars(buf, end, parsed);
    s.assign(buf, end);
    if (parsed == v) break;
  }
  // "1e+05" and bare integers are valid JSON numbers, but bare integers lose
  // the "this was a double" hint; keep them as-is (JSON has one number type).
  return s;
}

Writer::Writer(int indent) : indent_(indent) {}

void Writer::newline_indent() {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void Writer::raw(std::string_view text) { out_.append(text); }

void Writer::before_value() {
  TETRIS_REQUIRE(!done_, "json::Writer: document already complete");
  if (stack_.empty()) return;  // top-level value
  if (stack_.back() == Scope::Object) {
    TETRIS_REQUIRE(key_pending_,
                   "json::Writer: value inside object requires key() first");
    return;  // key() already emitted separator and indentation
  }
  if (has_items_.back()) raw(",");
  newline_indent();
  has_items_.back() = true;
}

Writer& Writer::key(std::string_view k) {
  TETRIS_REQUIRE(!stack_.empty() && stack_.back() == Scope::Object,
                 "json::Writer: key() outside object");
  TETRIS_REQUIRE(!key_pending_, "json::Writer: key() after key()");
  if (has_items_.back()) raw(",");
  newline_indent();
  has_items_.back() = true;
  raw("\"");
  raw(escape(k));
  raw(indent_ > 0 ? "\": " : "\":");
  key_pending_ = true;
  return *this;
}

Writer& Writer::begin_object() {
  before_value();
  key_pending_ = false;
  raw("{");
  stack_.push_back(Scope::Object);
  has_items_.push_back(false);
  return *this;
}

Writer& Writer::end_object() {
  TETRIS_REQUIRE(!stack_.empty() && stack_.back() == Scope::Object,
                 "json::Writer: end_object without open object");
  TETRIS_REQUIRE(!key_pending_, "json::Writer: end_object after dangling key");
  bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) newline_indent();
  raw("}");
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::begin_array() {
  before_value();
  key_pending_ = false;
  raw("[");
  stack_.push_back(Scope::Array);
  has_items_.push_back(false);
  return *this;
}

Writer& Writer::end_array() {
  TETRIS_REQUIRE(!stack_.empty() && stack_.back() == Scope::Array,
                 "json::Writer: end_array without open array");
  bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) newline_indent();
  raw("]");
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(std::string_view v) {
  before_value();
  key_pending_ = false;
  raw("\"");
  raw(escape(v));
  raw("\"");
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(const char* v) { return value(std::string_view(v)); }

Writer& Writer::value(bool v) {
  before_value();
  key_pending_ = false;
  raw(v ? "true" : "false");
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(long long v) {
  before_value();
  key_pending_ = false;
  raw(std::to_string(v));
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(unsigned long long v) {
  before_value();
  key_pending_ = false;
  raw(std::to_string(v));
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(double v) {
  before_value();
  key_pending_ = false;
  raw(format_double(v));
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::null_value() {
  before_value();
  key_pending_ = false;
  raw("null");
  if (stack_.empty()) done_ = true;
  return *this;
}

const std::string& Writer::str() const {
  TETRIS_REQUIRE(stack_.empty() && done_,
                 "json::Writer: str() on incomplete document");
  return out_;
}

// --------------------------------------------------------------------- reader

bool Value::as_bool() const {
  const bool* b = std::get_if<bool>(&data_);
  TETRIS_REQUIRE(b != nullptr, "json::Value: not a bool");
  return *b;
}

double Value::as_number() const {
  const Number* n = std::get_if<Number>(&data_);
  TETRIS_REQUIRE(n != nullptr, "json::Value: not a number");
  return n->value;
}

std::int64_t Value::as_int() const {
  const Number* n = std::get_if<Number>(&data_);
  TETRIS_REQUIRE(n != nullptr, "json::Value: not a number");
  TETRIS_REQUIRE(n->integral, "json::Value: number is not an int64 literal");
  return n->int_value;
}

bool Value::is_integer() const {
  const Number* n = std::get_if<Number>(&data_);
  return n != nullptr && n->integral;
}

const std::string& Value::as_string() const {
  const std::string* s = std::get_if<std::string>(&data_);
  TETRIS_REQUIRE(s != nullptr, "json::Value: not a string");
  return *s;
}

const Value::Array& Value::as_array() const {
  const Array* a = std::get_if<Array>(&data_);
  TETRIS_REQUIRE(a != nullptr, "json::Value: not an array");
  return *a;
}

const Value::Object& Value::as_object() const {
  const Object* o = std::get_if<Object>(&data_);
  TETRIS_REQUIRE(o != nullptr, "json::Value: not an object");
  return *o;
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  TETRIS_REQUIRE(v != nullptr,
                 "json::Value: missing key '" + std::string(key) + "'");
  return *v;
}

std::size_t Value::size() const {
  if (const Array* a = std::get_if<Array>(&data_)) return a->size();
  if (const Object* o = std::get_if<Object>(&data_)) return o->size();
  return 0;
}

/// Recursive-descent parser over a string_view; every entry point below
/// leaves pos_ on the first unconsumed byte.
class Parser {
 public:
  Parser(std::string_view text, const ParseOptions& options)
      : text_(text), options_(options) {}

  Value run() {
    skip_whitespace();
    Value v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("json: " + message + " at byte " + std::to_string(pos_));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void skip_whitespace() {
    while (!eof()) {
      char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume_literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  Value parse_value(std::size_t depth) {
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        Value v;
        v.data_ = parse_string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          Value v;
          v.data_ = true;
          return v;
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          Value v;
          v.data_ = false;
          return v;
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object(std::size_t depth) {
    if (depth >= options_.max_depth) fail("nesting deeper than max_depth");
    expect('{');
    Value v;
    Value::Object& object = v.data_.emplace<Value::Object>();
    skip_whitespace();
    if (!eof() && peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_whitespace();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      char c = take();
      if (c == '}') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array(std::size_t depth) {
    if (depth >= options_.max_depth) fail("nesting deeper than max_depth");
    expect('[');
    Value v;
    Value::Array& array = v.data_.emplace<Value::Array>();
    skip_whitespace();
    if (!eof() && peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_whitespace();
      array.push_back(parse_value(depth + 1));
      skip_whitespace();
      char c = take();
      if (c == ']') return v;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else {
        --pos_;
        fail("invalid \\u escape digit");
      }
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      char e = take();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("lone low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: the pair's low half must follow immediately.
            if (take() != '\\' || take() != 'u') {
              fail("high surrogate not followed by \\u escape");
            }
            unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("high surrogate not followed by low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default:
          --pos_;
          fail("invalid escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    // Integer part: "0" alone or a nonzero-led digit run (no leading zeros).
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    if (take() != '0') {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    } else if (!eof() && peek() >= '0' && peek() <= '9') {
      fail("leading zero in number");
    }
    bool integral = true;
    if (!eof() && peek() == '.') {
      integral = false;
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid number fraction");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid number exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));

    Value::Number number;
    if (integral) {
      errno = 0;
      char* end = nullptr;
      long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno == ERANGE || end != token.c_str() + token.size()) {
        // Out of int64 range: still a valid JSON number, keep it as a
        // double-only value below.
        integral = false;
      } else {
        number.integral = true;
        number.int_value = parsed;
        number.value = static_cast<double>(parsed);
      }
    }
    if (!number.integral) {
      // Classic-locale stream: '.' stays the decimal separator whatever
      // LC_NUMERIC is, and values overflowing a double set failbit instead
      // of silently saturating.
      std::istringstream in(token);
      in.imbue(std::locale::classic());
      double parsed = 0.0;
      in >> parsed;
      if (!in || !in.eof() || !std::isfinite(parsed)) {
        fail("number out of range");
      }
      number.value = parsed;
    }
    Value v;
    v.data_ = number;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  const ParseOptions& options_;
};

Value parse(std::string_view text, const ParseOptions& options) {
  if (text.size() > options.max_bytes) {
    throw ParseError("json: document of " + std::to_string(text.size()) +
                     " bytes exceeds max_bytes " +
                     std::to_string(options.max_bytes));
  }
  return Parser(text, options).run();
}

}  // namespace tetris::json

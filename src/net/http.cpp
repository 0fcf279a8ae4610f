#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/json.h"

namespace tetris::net::http {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

const std::string* find_pair(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    std::string_view name, bool lowercase_needle) {
  const std::string needle = lowercase_needle ? lower(name) : std::string(name);
  for (const auto& [k, v] : pairs) {
    if (k == needle) return &v;
  }
  return nullptr;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Splits a header block (every line "Name: value\r\n") into lowercased
/// name/value pairs. `lines` excludes the start line and the final blank.
std::vector<std::pair<std::string, std::string>> parse_headers(
    std::string_view block) {
  std::vector<std::pair<std::string, std::string>> headers;
  std::size_t pos = 0;
  while (pos < block.size()) {
    std::size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) {
      throw HttpError(400, "bad_request", "header line without CRLF");
    }
    std::string_view line = block.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      throw HttpError(400, "bad_request", "malformed header line");
    }
    std::string name = lower(line.substr(0, colon));
    if (name.find(' ') != std::string::npos ||
        name.find('\t') != std::string::npos) {
      throw HttpError(400, "bad_request", "whitespace in header name");
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    headers.emplace_back(std::move(name), std::string(value));
  }
  return headers;
}

}  // namespace

const std::string* Request::header(std::string_view name) const {
  return find_pair(headers, name, /*lowercase_needle=*/true);
}

const std::string* Request::query_param(std::string_view name) const {
  return find_pair(query, name, /*lowercase_needle=*/false);
}

const std::string* Response::header(std::string_view name) const {
  return find_pair(headers, name, /*lowercase_needle=*/true);
}

bool Request::keep_alive() const {
  if (const std::string* connection = header("connection")) {
    const std::string value = lower(*connection);
    if (value == "close") return false;
    if (value == "keep-alive") return true;
  }
  return version != "HTTP/1.0";  // HTTP/1.1 persists by default
}

Response json_response(int status, std::string body) {
  Response res;
  res.status = status;
  res.body = std::move(body);
  return res;
}

Response error_response(int status, const std::string& code,
                        const std::string& message) {
  json::Writer w;
  w.begin_object();
  w.key("error").begin_object();
  w.key("code").value(code);
  w.key("message").value(message);
  w.end_object();
  w.end_object();
  return json_response(status, w.str());
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Content";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    default: return "Unknown";
  }
}

std::string url_decode(std::string_view text, bool plus_to_space) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '+' && plus_to_space) {
      out += ' ';
    } else if (c == '%') {
      if (i + 2 >= text.size()) {
        throw HttpError(400, "bad_request", "truncated percent escape");
      }
      int hi = hex_digit(text[i + 1]);
      int lo = hex_digit(text[i + 2]);
      if (hi < 0 || lo < 0) {
        throw HttpError(400, "bad_request", "invalid percent escape");
      }
      out += static_cast<char>((hi << 4) | lo);
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

Request parse_request_head(std::string_view head) {
  std::size_t eol = head.find("\r\n");
  if (eol == std::string_view::npos) {
    throw HttpError(400, "bad_request", "missing request line");
  }
  std::string_view line = head.substr(0, eol);

  Request req;
  std::size_t sp1 = line.find(' ');
  std::size_t sp2 = (sp1 == std::string_view::npos)
                        ? std::string_view::npos
                        : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1 ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    throw HttpError(400, "bad_request", "malformed request line");
  }
  req.method = std::string(line.substr(0, sp1));
  req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  std::string_view version = line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    throw HttpError(501, "http_version_not_supported",
                    "unsupported HTTP version '" + std::string(version) + "'");
  }
  req.version = std::string(version);
  if (req.target.empty() || req.target[0] != '/') {
    throw HttpError(400, "bad_request",
                    "request target must be an absolute path");
  }

  // Split target into path and query, decoding both.
  std::string_view target = req.target;
  std::size_t qmark = target.find('?');
  req.path = url_decode(target.substr(0, qmark), /*plus_to_space=*/false);
  if (qmark != std::string_view::npos) {
    std::string_view qs = target.substr(qmark + 1);
    while (!qs.empty()) {
      std::size_t amp = qs.find('&');
      std::string_view pair = qs.substr(0, amp);
      qs = (amp == std::string_view::npos) ? std::string_view()
                                           : qs.substr(amp + 1);
      if (pair.empty()) continue;
      std::size_t eq = pair.find('=');
      std::string key = url_decode(pair.substr(0, eq), /*plus_to_space=*/true);
      std::string value = (eq == std::string_view::npos)
                              ? std::string()
                              : url_decode(pair.substr(eq + 1),
                                           /*plus_to_space=*/true);
      req.query.emplace_back(std::move(key), std::move(value));
    }
  }

  req.headers = parse_headers(head.substr(eol + 2));
  return req;
}

Response parse_response_head(std::string_view head) {
  std::size_t eol = head.find("\r\n");
  if (eol == std::string_view::npos) {
    throw HttpError(400, "bad_response", "missing status line");
  }
  std::string_view line = head.substr(0, eol);
  if (line.rfind("HTTP/1.", 0) != 0) {
    throw HttpError(400, "bad_response", "not an HTTP response");
  }
  std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > line.size()) {
    throw HttpError(400, "bad_response", "malformed status line");
  }
  int status = 0;
  for (std::size_t i = sp + 1; i < sp + 4 && i < line.size(); ++i) {
    char c = line[i];
    if (c < '0' || c > '9') {
      throw HttpError(400, "bad_response", "non-numeric status code");
    }
    status = status * 10 + (c - '0');
  }
  Response res;
  res.status = status;
  res.headers = parse_headers(head.substr(eol + 2));
  if (const std::string* ct = res.header("content-type")) {
    res.content_type = *ct;
  }
  return res;
}

std::size_t body_length(const Request& request, std::size_t max_body) {
  if (const std::string* te = request.header("transfer-encoding")) {
    (void)te;
    throw HttpError(411, "length_required",
                    "chunked transfer encoding is not supported; "
                    "send a Content-Length");
  }
  const std::string* cl = nullptr;
  for (const auto& [name, value] : request.headers) {
    if (name != "content-length") continue;
    if (cl != nullptr && *cl != value) {
      throw HttpError(400, "bad_request", "conflicting Content-Length headers");
    }
    cl = &value;
  }
  if (cl == nullptr) return 0;
  if (cl->empty() || cl->size() > 18 ||
      cl->find_first_not_of("0123456789") != std::string::npos) {
    throw HttpError(400, "bad_request", "invalid Content-Length");
  }
  std::size_t length = 0;
  for (char c : *cl) length = length * 10 + static_cast<std::size_t>(c - '0');
  if (length > max_body) {
    throw HttpError(413, "payload_too_large",
                    "request body of " + *cl + " bytes exceeds the limit of " +
                        std::to_string(max_body) + " bytes");
  }
  return length;
}

std::string format_response(const Response& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

std::string format_request(const std::string& method, const std::string& target,
                           const std::string& host, const std::string& body,
                           const std::string& content_type, bool keep_alive) {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: " + host + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  if (!body.empty()) {
    out += "Content-Type: " + content_type + "\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

// ------------------------------------------------------ incremental parser

std::size_t RequestParser::consume(const char* data, std::size_t size) {
  std::size_t consumed = 0;
  while (consumed < size) {
    if (state_ == State::kHead) {
      // Grow the head, scanning for the blank line. Re-scanning starts a
      // few bytes back so a "\r\n\r\n" split across consume() calls is
      // still found.
      const std::size_t scan_from = head_.size() < 3 ? 0 : head_.size() - 3;
      head_.append(data + consumed, size - consumed);
      consumed = size;
      const std::size_t head_end = head_.find("\r\n\r\n", scan_from);
      if (head_end == std::string::npos) {
        // No terminator yet. Fail as soon as the cap is crossed — a hostile
        // peer dribbling an endless header block must not buffer forever.
        if (head_.size() > limits_.max_header_bytes) {
          fail(431, "headers_too_large",
               "header block exceeds " +
                   std::to_string(limits_.max_header_bytes) + " bytes");
        }
        return consumed;
      }
      // The cap applies to complete heads too — without this, an oversized
      // header block that arrives in one read would slip past the
      // dribble-time check above.
      if (head_end + 4 > limits_.max_header_bytes) {
        fail(431, "headers_too_large",
             "header block exceeds " +
                 std::to_string(limits_.max_header_bytes) + " bytes");
        return consumed;
      }
      // Bytes past the terminator belong to the body (or the next pipelined
      // request); hand them back to the caller's cursor.
      const std::size_t extra = head_.size() - (head_end + 4);
      consumed -= extra;
      head_.resize(head_end + 4);
      try {
        request_ = parse_request_head(head_);
        body_needed_ = body_length(request_, limits_.max_body_bytes);
      } catch (const HttpError& e) {
        state_ = State::kError;
        error_ = std::make_unique<HttpError>(e);
        return consumed;
      }
      head_.clear();
      state_ = body_needed_ == 0 ? State::kDone : State::kBody;
    } else if (state_ == State::kBody) {
      const std::size_t take = std::min(size - consumed, body_needed_);
      request_.body.append(data + consumed, take);
      consumed += take;
      body_needed_ -= take;
      if (body_needed_ == 0) state_ = State::kDone;
    } else {
      break;  // kDone / kError: stop consuming; remainder is not ours
    }
  }
  return consumed;
}

const HttpError& RequestParser::error() const {
  TETRIS_REQUIRE(state_ == State::kError && error_ != nullptr,
                 "http::RequestParser::error: parser is not in kError");
  return *error_;
}

Request RequestParser::take() {
  TETRIS_REQUIRE(state_ == State::kDone,
                 "http::RequestParser::take: no complete request buffered");
  Request out = std::move(request_);
  reset();
  return out;
}

void RequestParser::reset() {
  state_ = State::kHead;
  head_.clear();
  request_ = Request();
  body_needed_ = 0;
  error_.reset();
}

void RequestParser::fail(int status, const std::string& code,
                         const std::string& message) {
  state_ = State::kError;
  error_ = std::make_unique<HttpError>(status, code, message);
}

}  // namespace tetris::net::http

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"

namespace tetris::net::http {

/// Minimal HTTP/1.1 message layer: pure parse/format functions over strings
/// plus an incremental request parser, shared by the server, the dispatcher,
/// and the client, and unit-testable without a socket. The dialect is
/// deliberately small — requests must carry a Content-Length when they have
/// a body (chunked transfer encoding is rejected with 411) — which is all a
/// REST front-end over loopback/infra-LAN traffic needs, with none of the
/// parsing ambiguity general proxies have to cope with. Connections are
/// persistent by default (HTTP/1.1 keep-alive); either side opts out with
/// "Connection: close".

/// Protocol-level rejection: carries the HTTP status to answer with and a
/// stable machine-readable code for the JSON error body.
class HttpError : public Error {
 public:
  HttpError(int status, std::string code, const std::string& message)
      : Error(message), status_(status), code_(std::move(code)) {}

  int status() const { return status_; }
  const std::string& code() const { return code_; }

 private:
  int status_;
  std::string code_;
};

/// One parsed request. Header names are lowercased; the path and query
/// parameters are percent-decoded ('+' decodes to space in query values).
struct Request {
  std::string method;   ///< verbatim, e.g. "GET" (method names are
                        ///< case-sensitive per RFC 9110)
  std::string target;   ///< raw request target, e.g. "/v1/jobs/3?timing=0"
  std::string path;     ///< decoded path, e.g. "/v1/jobs/3"
  std::string version;  ///< "HTTP/1.1" or "HTTP/1.0"
  std::vector<std::pair<std::string, std::string>> query;  ///< decoded pairs
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with this (case-insensitive) name, nullptr when absent.
  const std::string* header(std::string_view name) const;
  /// First query parameter with this name, nullptr when absent.
  const std::string* query_param(std::string_view name) const;

  /// Connection persistence the client asked for: HTTP/1.1 defaults to
  /// keep-alive, HTTP/1.0 to close; an explicit "Connection: close" /
  /// "Connection: keep-alive" header (case-insensitive) overrides either.
  bool keep_alive() const;
};

/// One response. The server fills status/content_type/body; the client
/// parses status/headers/body out of the wire format.
struct Response {
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> headers;  ///< extras
  std::string body;

  const std::string* header(std::string_view name) const;
};

/// A JSON response (Response's default content type) with `body`.
Response json_response(int status, std::string body);

/// The structured error every route and protocol reject answers:
/// {"error": {"code", "message"}}.
Response error_response(int status, const std::string& code,
                        const std::string& message);

/// Canonical reason phrase ("OK", "Not Found", ...; "Unknown" otherwise).
const char* status_reason(int status);

/// Parses everything before the body: request line + header block. `head`
/// must end with the blank line ("\r\n\r\n"). Throws HttpError(400/501/...)
/// on anything malformed; Request::body is left empty.
Request parse_request_head(std::string_view head);

/// Parses a response status line + header block (client side).
Response parse_response_head(std::string_view head);

/// Content-Length of a parsed head: 0 when absent, HttpError(400) when
/// non-numeric or duplicated inconsistently, HttpError(411) when a chunked
/// Transfer-Encoding is announced instead, HttpError(413) when above
/// `max_body`.
std::size_t body_length(const Request& request, std::size_t max_body);

/// Serializes a response with Content-Length and an explicit Connection
/// header ("keep-alive" or "close"). The server sets `keep_alive` false on
/// the final response of a connection (protocol errors, Connection: close
/// requests, the per-connection request cap) so clients always know whether
/// the socket stays usable.
std::string format_response(const Response& response, bool keep_alive = false);

/// Serializes a request line + headers + body for the client. `keep_alive`
/// controls the Connection header ("keep-alive" vs "close").
std::string format_request(const std::string& method, const std::string& target,
                           const std::string& host,
                           const std::string& body,
                           const std::string& content_type,
                           bool keep_alive = false);

/// Incremental HTTP/1.1 request parser — the per-connection state machine of
/// the event-loop server. Bytes arrive in arbitrary fragments (one poll
/// wakeup may deliver half a header line or three pipelined requests);
/// `consume` eats as much as one request needs and reports the connection's
/// next move. After kDone, `take()` yields the request and resets the
/// machine for the next pipelined request on the same connection.
///
/// All protocol violations surface as a *structured* rejection (the
/// HttpError the server answers with before closing), never an exception
/// out of `consume`: kError is sticky and `error()` carries the
/// status/code/message triple. Limits mirror ServerConfig: an oversized
/// header block fails with 431 as soon as the cap is crossed — without
/// waiting for the terminator a hostile peer would never send — and an
/// oversized announced body fails with 413 before any body byte is read.
class RequestParser {
 public:
  struct Limits {
    // Constructor-set defaults, not member initializers: the enclosing
    // class's default argument `Limits()` may not rely on a nested class's
    // NSDMIs before RequestParser is complete.
    Limits()
        : max_header_bytes(std::size_t{16} << 10),
          max_body_bytes(std::size_t{1} << 20) {}
    std::size_t max_header_bytes;
    std::size_t max_body_bytes;
  };

  enum class State {
    kHead,   ///< collecting the request line + header block
    kBody,   ///< head parsed; collecting Content-Length body bytes
    kDone,   ///< one full request buffered; call take()
    kError,  ///< protocol violation; call error(), answer, close
  };

  explicit RequestParser(Limits limits = Limits()) : limits_(limits) {}

  /// Consumes up to `size` bytes, stopping at the end of one request (the
  /// remainder belongs to the next pipelined request — feed it again after
  /// take()). Returns the number of bytes consumed; 0 in kDone/kError.
  std::size_t consume(const char* data, std::size_t size);

  State state() const { return state_; }
  bool done() const { return state_ == State::kDone; }
  bool failed() const { return state_ == State::kError; }
  /// True while no byte of a (new) request has been consumed — the state in
  /// which an idle keep-alive connection can be evicted without owing the
  /// peer a response.
  bool idle() const { return state_ == State::kHead && head_.empty(); }

  /// The structured rejection; valid only in kError.
  const HttpError& error() const;

  /// Moves the completed request out and resets for the next one.
  Request take();

  void reset();

 private:
  void fail(int status, const std::string& code, const std::string& message);

  Limits limits_;
  State state_ = State::kHead;
  std::string head_;
  Request request_;
  std::size_t body_needed_ = 0;
  std::unique_ptr<HttpError> error_;
};

/// Percent-decoding; `plus_to_space` additionally maps '+' (query dialect).
/// Throws HttpError(400) on truncated or non-hex escapes.
std::string url_decode(std::string_view text, bool plus_to_space);

}  // namespace tetris::net::http

#include "net/http.h"

#include <cctype>
#include <cstdlib>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "common/strings.h"

namespace galois::net {

namespace {

/// Concatenates `parts` with one allocation.
std::string Concat(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) out.append(part);
  return out;
}

/// Shared header+body reader. `is_response` selects the framing rule for
/// a missing Content-Length: responses fall back to read-to-EOF (we
/// always send Connection: close), requests mean an empty body.
struct RawMessage {
  std::string start_line;
  std::string headers;
  std::string body;
};

Result<RawMessage> ReadMessage(int fd, int64_t deadline_ms, bool is_response,
                               const SyscallShim* shim) {
  std::string raw;
  char buf[4096];
  size_t header_end = std::string::npos;
  int64_t content_length = -1;
  bool has_content_length = false;
  while (true) {
    if (header_end != std::string::npos) {
      if (has_content_length &&
          raw.size() >= header_end + 4 + static_cast<size_t>(content_length)) {
        break;
      }
      // A request without Content-Length has an empty body by our
      // framing rules — don't wait for an EOF the client (which keeps
      // the connection open for the response) will never send.
      if (!has_content_length && !is_response) break;
    }
    GALOIS_ASSIGN_OR_RETURN(
        size_t n, RecvSome(fd, buf, sizeof(buf), deadline_ms, shim));
    if (n == 0) {
      // EOF. Legal only once the whole advertised body has arrived (the
      // loop condition above), or — for responses — when no length was
      // advertised at all (read-to-EOF framing). Anything else is a
      // truncation fault, classified below.
      break;
    }
    raw.append(buf, n);
    if (static_cast<int64_t>(raw.size()) >
        kMaxHttpBody + static_cast<int64_t>(64 * 1024)) {
      return Status::ParseError("http: message exceeds " +
                                std::to_string(kMaxHttpBody) + " byte cap");
    }
    if (header_end == std::string::npos) {
      header_end = raw.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        std::string cl;
        if (FindHeader(raw.substr(0, header_end), "Content-Length", &cl)) {
          GALOIS_ASSIGN_OR_RETURN(content_length, ParseContentLength(cl));
          has_content_length = true;
          // Bounded by kMaxHttpBody: the rest of the message lands in
          // one allocation instead of a doubling series.
          raw.reserve(header_end + 4 + static_cast<size_t>(content_length));
        }
      }
    }
  }
  if (header_end == std::string::npos) {
    return Status::IoError(
        "http: connection closed before headers completed (" +
        std::to_string(raw.size()) + " bytes)");
  }

  RawMessage msg;
  size_t line_end = raw.find("\r\n");
  msg.start_line = raw.substr(0, line_end);
  msg.headers = raw.substr(line_end + 2, header_end - line_end - 2);
  // The body is the buffer itself, minus the head: no second copy.
  raw.erase(0, header_end + 4);
  msg.body = std::move(raw);
  if (has_content_length) {
    if (msg.body.size() < static_cast<size_t>(content_length)) {
      // The headline short-read bugfix: the peer closed mid-body. This
      // is a connection-level fault (kIoError -> retryable upstream),
      // never a payload handed to the JSON parser.
      return Status::IoError(
          "http: truncated body, peer closed after " +
          std::to_string(msg.body.size()) + " of " +
          std::to_string(content_length) + " bytes");
    }
    msg.body.resize(static_cast<size_t>(content_length));
  } else if (!is_response) {
    msg.body.clear();  // requests have no read-to-EOF mode
  }
  return msg;
}

}  // namespace

bool FindHeader(const std::string& headers, const std::string& name,
                std::string* value) {
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t eol = headers.find("\r\n", pos);
    if (eol == std::string::npos) eol = headers.size();
    std::string line = headers.substr(pos, eol - pos);
    size_t colon = line.find(':');
    if (colon != std::string::npos &&
        EqualsIgnoreCase(Trim(line.substr(0, colon)), name)) {
      *value = Trim(line.substr(colon + 1));
      return true;
    }
    pos = eol + 2;
  }
  return false;
}

Result<int64_t> ParseContentLength(const std::string& value,
                                   int64_t max_bytes) {
  const std::string trimmed = Trim(value);
  if (trimmed.empty()) {
    return Status::ParseError("http: empty Content-Length");
  }
  int64_t parsed = 0;
  for (char c : trimmed) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::ParseError("http: malformed Content-Length \"" + value +
                                "\"");
    }
    parsed = parsed * 10 + (c - '0');
    if (parsed > max_bytes) {
      return Status::ParseError("http: Content-Length \"" + value +
                                "\" exceeds " + std::to_string(max_bytes) +
                                " byte cap");
    }
  }
  return parsed;
}

Result<HttpResponseMessage> ReadHttpResponse(int fd, int64_t deadline_ms,
                                             const SyscallShim* shim) {
  GALOIS_ASSIGN_OR_RETURN(
      RawMessage raw, ReadMessage(fd, deadline_ms, /*is_response=*/true, shim));
  // "HTTP/1.1 200 OK"
  size_t sp = raw.start_line.find(' ');
  if (raw.start_line.compare(0, 5, "HTTP/") != 0 || sp == std::string::npos) {
    return Status::ParseError("http: malformed status line \"" +
                              raw.start_line + "\"");
  }
  HttpResponseMessage resp;
  resp.status_code = std::atoi(raw.start_line.c_str() + sp + 1);
  resp.headers = std::move(raw.headers);
  resp.body = std::move(raw.body);
  return resp;
}

Result<HttpRequestMessage> ReadHttpRequest(int fd, int64_t deadline_ms,
                                           const SyscallShim* shim) {
  GALOIS_ASSIGN_OR_RETURN(
      RawMessage raw,
      ReadMessage(fd, deadline_ms, /*is_response=*/false, shim));
  size_t sp1 = raw.start_line.find(' ');
  size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : raw.start_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return Status::ParseError("http: malformed request line \"" +
                              raw.start_line + "\"");
  }
  HttpRequestMessage req;
  req.method = raw.start_line.substr(0, sp1);
  req.path = raw.start_line.substr(sp1 + 1, sp2 - sp1 - 1);
  req.headers = std::move(raw.headers);
  req.body = std::move(raw.body);
  return req;
}

std::string BuildHttpResponse(int code, const std::string& reason,
                              const std::string& body,
                              const std::string& extra_headers,
                              int64_t advertised_length) {
  const int64_t length = advertised_length >= 0
                             ? advertised_length
                             : static_cast<int64_t>(body.size());
  return Concat({"HTTP/1.1 ", std::to_string(code), " ", reason, "\r\n",
                 "Content-Type: application/json\r\n", extra_headers,
                 "Content-Length: ", std::to_string(length),
                 "\r\nConnection: close\r\n\r\n", body});
}

std::string BuildHttpPost(const std::string& host_header,
                          const std::string& path, const std::string& body) {
  return Concat({"POST ", path, " HTTP/1.1\r\n", "Host: ", host_header,
                 "\r\n", "Content-Type: application/json\r\n",
                 "Content-Length: ", std::to_string(body.size()), "\r\n",
                 "Connection: close\r\n\r\n", body});
}

}  // namespace galois::net

#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace galois {

namespace {

const Json& NullSentinel() {
  static const Json* kNull = new Json();
  return *kNull;
}

}  // namespace

Json Json::Bool(bool v) {
  Json j;
  j.value_ = v;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.value_ = v;
  return j;
}

Json Json::String(std::string v) {
  Json j;
  j.value_ = std::move(v);
  return j;
}

Json Json::Array() {
  Json j;
  j.value_ = Items();
  return j;
}

Json Json::Object() {
  Json j;
  j.value_ = Members();
  return j;
}

bool Json::bool_value() const {
  const bool* v = std::get_if<bool>(&value_);
  return v != nullptr && *v;
}

double Json::number_value() const {
  const double* v = std::get_if<double>(&value_);
  return v != nullptr ? *v : 0.0;
}

const std::string& Json::string_value() const {
  static const std::string* kEmpty = new std::string();
  const std::string* v = std::get_if<std::string>(&value_);
  return v != nullptr ? *v : *kEmpty;
}

size_t Json::size() const {
  const Items* items = this->items();
  return items != nullptr ? items->size() : 0;
}

const Json& Json::at(size_t i) const {
  const Items* items = this->items();
  if (items == nullptr || i >= items->size()) return NullSentinel();
  return (*items)[i];
}

void Json::Append(Json v) {
  if (!is_array()) value_ = Items();
  std::get<Items>(value_).push_back(std::move(v));
}

std::vector<std::string> Json::Keys() const {
  std::vector<std::string> keys;
  const Members* members = this->members();
  if (members == nullptr) return keys;
  keys.reserve(members->size());
  for (const auto& [k, v] : *members) {
    keys.push_back(k);
  }
  return keys;
}

bool Json::Has(const std::string& key) const {
  const Members* members = this->members();
  if (members == nullptr) return false;
  for (const auto& [k, v] : *members) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::operator[](const std::string& key) const {
  const Members* members = this->members();
  if (members == nullptr) return NullSentinel();
  for (const auto& [k, v] : *members) {
    if (k == key) return v;
  }
  return NullSentinel();
}

void Json::Set(const std::string& key, Json v) {
  if (!is_object()) value_ = Members();
  Members& members = std::get<Members>(value_);
  for (auto& [k, existing] : members) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members.emplace_back(key, std::move(v));
}

std::string Json::GetString(const std::string& key,
                            const std::string& fallback) const {
  const Json& v = (*this)[key];
  return v.is_string() ? v.string_value() : fallback;
}

double Json::GetNumber(const std::string& key, double fallback) const {
  const Json& v = (*this)[key];
  return v.is_number() ? v.number_value() : fallback;
}

int64_t Json::GetInt(const std::string& key, int64_t fallback) const {
  const Json& v = (*this)[key];
  return v.is_number() ? static_cast<int64_t>(std::llround(v.number_value()))
                       : fallback;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  const Json& v = (*this)[key];
  return v.is_bool() ? v.bool_value() : fallback;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void Json::DumpTo(std::string* out) const {
  switch (type()) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_value() ? "true" : "false";
      break;
    case Type::kNumber: {
      // Integral doubles print without a fraction so token counts and
      // indices round-trip textually ("42", not "42.000000").
      const double number = number_value();
      if (number == std::floor(number) && std::fabs(number) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(number));
        *out += buf;
      } else {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", number);
        *out += buf;
      }
      break;
    }
    case Type::kString:
      *out += '"';
      *out += JsonEscape(string_value());
      *out += '"';
      break;
    case Type::kArray: {
      *out += '[';
      bool first = true;
      for (const Json& v : *items()) {
        if (!first) *out += ',';
        first = false;
        v.DumpTo(out);
      }
      *out += ']';
      break;
    }
    case Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [k, v] : *members()) {
        if (!first) *out += ',';
        first = false;
        *out += '"';
        *out += JsonEscape(k);
        *out += "\":";
        v.DumpTo(out);
      }
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {

/// Recursive-descent parser over a bounded view. Depth is capped so a
/// hostile payload ("[[[[…") cannot blow the stack.
class Parser {
 public:
  Parser(const std::string& text) : text_(text) {}

  Result<Json> Parse() {
    GALOIS_ASSIGN_OR_RETURN(Json v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::ParseError("json: trailing characters at offset " +
                                std::to_string(pos_));
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Err(const std::string& what) {
    return Status::ParseError("json: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      GALOIS_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json::String(std::move(s));
    }
    if (ConsumeLiteral("true")) return Json::Bool(true);
    if (ConsumeLiteral("false")) return Json::Bool(false);
    if (ConsumeLiteral("null")) return Json::Null();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Err(std::string("unexpected character '") + c + "'");
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      pos_ = start;
      return Err("malformed number '" + token + "'");
    }
    return Json::Number(v);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Err("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("unterminated escape");
        char e = text_[pos_++];
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
            if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Err("bad \\u escape digit");
            }
            // UTF-8 encode the code point (BMP only; surrogate pairs are
            // not produced by our own writer, which escapes bytes).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Err("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  Result<Json> ParseArray(int depth) {
    if (!Consume('[')) return Err("expected '['");
    Json arr = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      GALOIS_ASSIGN_OR_RETURN(Json v, ParseValue(depth + 1));
      arr.Append(std::move(v));
      SkipWhitespace();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Result<Json> ParseObject(int depth) {
    if (!Consume('{')) return Err("expected '{'");
    Json obj = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      GALOIS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Err("expected ':'");
      GALOIS_ASSIGN_OR_RETURN(Json v, ParseValue(depth + 1));
      obj.Set(key, std::move(v));
      SkipWhitespace();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace galois

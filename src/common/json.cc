#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <system_error>

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

namespace {

constexpr uint64_t kOnes = 0x0101010101010101ULL;
constexpr uint64_t kHighs = 0x8080808080808080ULL;

/// The eight bytes at `p`, as one word.
uint64_t Word(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Whether any byte of `word` is below `n` (n <= 0x80), or equals `a` or
/// `b`: the zero-byte trick, eight bytes at once.
bool AnyByteBelowOr(uint64_t word, unsigned char n, char a, char b) {
  const uint64_t is_a = word ^ (kOnes * static_cast<unsigned char>(a));
  const uint64_t is_b = word ^ (kOnes * static_cast<unsigned char>(b));
  return (((word - kOnes * n) & ~word) | ((is_a - kOnes) & ~is_a) |
          ((is_b - kOnes) & ~is_b)) &
         kHighs;
}

/// The index of the first '"' or '\\' at or after `i`, or `n`: the end of
/// a string's run of plain bytes, found eight bytes at a time.
size_t RunEnd(const char* data, size_t i, size_t n) {
  while (i + 8 <= n && !AnyByteBelowOr(Word(data + i), 0, '"', '\\')) i += 8;
  while (i < n && data[i] != '"' && data[i] != '\\') ++i;
  return i;
}

/// Appends the escaped body of `s`, copying each run of plain bytes whole.
void AppendEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    while (i + 8 <= s.size() &&
           !AnyByteBelowOr(Word(s.data() + i), 0x20, '"', '\\')) {
      i += 8;
    }
    if (i >= s.size()) break;
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

}  // namespace

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  AppendEscaped(out, s);
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  // Room for the longest %.17g form, "-2.2250738585072014e-308".
  char buf[32];
  std::to_chars_result written;
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    written = std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(v));
  } else {
    // Precision 17 rather than the shortest round-trip form: it writes
    // snprintf("%.17g")'s bytes, which the pinned payloads hold.
    written = std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general, 17);
  }
  out->append(buf, static_cast<size_t>(written.ptr - buf));
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  AppendEscaped(&out, s);
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
    case Type::kNumber:
      AppendJsonNumber(out, number_value());
      break;
    case Type::kString:
      AppendJsonString(out, string_value());
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
        AppendJsonString(out, k);
        *out += ':';
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

// --- JsonReader -------------------------------------------------------------

Status JsonReader::Error(const std::string& what) const {
  return Status::ParseError("json: " + what + " at offset " +
                            std::to_string(pos_));
}

Status JsonReader::PeekError() const {
  if (depth_ > kMaxDepth) return Error("nesting too deep");
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  return Error(std::string("unexpected character '") + text_[pos_] + "'");
}

Status JsonReader::ReadNull() {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  if (type != Json::Type::kNull || text_.substr(pos_, 4) != "null") {
    return Error(std::string("unexpected character '") + text_[pos_] + "'");
  }
  pos_ += 4;
  return Status::OK();
}

Result<bool> JsonReader::ReadBool() {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  if (type == Json::Type::kBool) {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return false;
    }
  }
  return Error(std::string("unexpected character '") + text_[pos_] + "'");
}

Result<double> JsonReader::ReadNumber() {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  if (type != Json::Type::kNumber) return Error("expected a number");
  return ReadNumberAt();
}

Result<double> JsonReader::ReadNumberAt() {
  const size_t start = pos_;
  const bool negative = text_[pos_] == '-';
  if (negative) ++pos_;
  // An integer of up to 15 digits, the common case (counts, token
  // totals), is exact as a double and needs no from_chars.
  int64_t integer = 0;
  const size_t digits = pos_;
  while (pos_ < text_.size() && pos_ - digits < 16 && text_[pos_] >= '0' &&
         text_[pos_] <= '9') {
    integer = integer * 10 + (text_[pos_++] - '0');
  }
  // The token is the run of bytes a number may hold; from_chars must
  // take all of it, so "1e", "1-2" and "-" are malformed.
  const size_t rest = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-')) {
      break;
    }
    ++pos_;
  }
  if (pos_ == rest && rest > digits && rest - digits <= 15) {
    return negative ? -static_cast<double>(integer)
                    : static_cast<double>(integer);
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  double v = 0.0;
  const std::from_chars_result read = std::from_chars(first, last, v);
  if (read.ptr == last && read.ec == std::errc::result_out_of_range) {
    // Past double's range: strtod's ±HUGE_VAL or ±0, which from_chars
    // does not give.
    return std::strtod(std::string(first, last).c_str(), nullptr);
  }
  if (read.ptr != last || read.ec != std::errc()) {
    pos_ = start;
    return Error("malformed number '" + std::string(first, last) + "'");
  }
  return v;
}

Result<std::string_view> JsonReader::ReadString() {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  if (type != Json::Type::kString) return Error("expected '\"'");
  return ReadStringAt();
}

Result<std::string_view> JsonReader::ReadStringAt() {
  const char* data = text_.data();
  const size_t n = text_.size();
  const size_t start = ++pos_;
  pos_ = RunEnd(data, start, n);
  if (pos_ >= n) return Error("unterminated string");
  if (data[pos_] == '"') {
    // No escape: the string is a view of the input.
    return text_.substr(start, pos_++ - start);
  }
  unescaped_.assign(data + start, pos_ - start);
  while (true) {
    if (pos_ >= n) return Error("unterminated string");
    if (data[pos_++] == '"') return std::string_view(unescaped_);
    if (pos_ >= n) return Error("unterminated escape");
    switch (data[pos_++]) {
      case '"': unescaped_ += '"'; break;
      case '\\': unescaped_ += '\\'; break;
      case '/': unescaped_ += '/'; break;
      case 'b': unescaped_ += '\b'; break;
      case 'f': unescaped_ += '\f'; break;
      case 'n': unescaped_ += '\n'; break;
      case 'r': unescaped_ += '\r'; break;
      case 't': unescaped_ += '\t'; break;
      case 'u': {
        if (pos_ + 4 > n) return Error("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = data[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return Error("bad \\u escape digit");
        }
        // UTF-8 encode the code point (BMP only; surrogate pairs are
        // not produced by our own writer, which escapes bytes).
        if (code < 0x80) {
          unescaped_ += static_cast<char>(code);
        } else if (code < 0x800) {
          unescaped_ += static_cast<char>(0xC0 | (code >> 6));
          unescaped_ += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          unescaped_ += static_cast<char>(0xE0 | (code >> 12));
          unescaped_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          unescaped_ += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default:
        return Error("bad escape");
    }
    const size_t run = pos_;
    pos_ = RunEnd(data, run, n);
    unescaped_.append(data + run, pos_ - run);
  }
}

Status JsonReader::BeginArray() {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  if (type != Json::Type::kArray) return Error("expected '['");
  Open();
  return Status::OK();
}

Status JsonReader::BeginObject() {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  if (type != Json::Type::kObject) return Error("expected '{'");
  Open();
  return Status::OK();
}

Result<bool> JsonReader::NextItem() {
  SkipWhitespace();
  if (Close(']')) {
    after_open_ = false;
    return false;
  }
  if (after_open_) {
    after_open_ = false;
    return true;
  }
  if (!At(',')) return Error("expected ',' or ']'");
  ++pos_;
  return true;
}

Result<bool> JsonReader::NextMember(std::string_view* key) {
  SkipWhitespace();
  if (Close('}')) {
    after_open_ = false;
    return false;
  }
  if (after_open_) {
    after_open_ = false;
  } else {
    if (!At(',')) return Error("expected ',' or '}'");
    ++pos_;
    SkipWhitespace();
  }
  if (!At('"')) return Error("expected '\"'");
  GALOIS_ASSIGN_OR_RETURN(*key, ReadStringAt());
  SkipWhitespace();
  if (!At(':')) return Error("expected ':'");
  ++pos_;
  return true;
}

Status JsonReader::Skip() {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  switch (type) {
    case Json::Type::kNull:
      return ReadNull();
    case Json::Type::kBool:
      return ReadBool().status();
    case Json::Type::kNumber:
      return ReadNumberAt().status();
    case Json::Type::kString:
      return ReadStringAt().status();
    case Json::Type::kArray:
      return ReadArray([this] { return Skip(); });
    case Json::Type::kObject:
      return ReadObject([this](std::string_view) { return Skip(); });
  }
  return Status::OK();
}

Status JsonReader::Finish() {
  SkipWhitespace();
  if (pos_ != text_.size()) return Error("trailing characters");
  return Status::OK();
}

Result<double> JsonReader::ReadNumberOr(double fallback) {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  if (type == Json::Type::kNumber) return ReadNumberAt();
  GALOIS_RETURN_IF_ERROR(Skip());
  return fallback;
}

Result<int64_t> JsonReader::ReadIntOr(int64_t fallback) {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  if (type != Json::Type::kNumber) {
    GALOIS_RETURN_IF_ERROR(Skip());
    return fallback;
  }
  GALOIS_ASSIGN_OR_RETURN(double v, ReadNumberAt());
  return static_cast<int64_t>(std::llround(v));
}

Result<std::string_view> JsonReader::ReadStringOr(std::string_view fallback) {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  if (type == Json::Type::kString) return ReadStringAt();
  GALOIS_RETURN_IF_ERROR(Skip());
  return fallback;
}

Result<bool> JsonReader::ReadBoolOr(bool fallback) {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, Peek());
  if (type == Json::Type::kBool) return ReadBool();
  GALOIS_RETURN_IF_ERROR(Skip());
  return fallback;
}

Status Json::ReadFrom(JsonReader* reader) {
  GALOIS_ASSIGN_OR_RETURN(Type type, reader->Peek());
  switch (type) {
    case Type::kNull:
      value_ = std::monostate();
      return reader->ReadNull();
    case Type::kBool: {
      GALOIS_ASSIGN_OR_RETURN(bool v, reader->ReadBool());
      value_ = v;
      return Status::OK();
    }
    case Type::kNumber: {
      GALOIS_ASSIGN_OR_RETURN(double v, reader->ReadNumber());
      value_ = v;
      return Status::OK();
    }
    case Type::kString: {
      GALOIS_ASSIGN_OR_RETURN(std::string_view v, reader->ReadString());
      value_.emplace<std::string>(v);
      return Status::OK();
    }
    case Type::kArray: {
      Items& items = value_.emplace<Items>();
      return reader->ReadArray(
          [&] { return items.emplace_back().ReadFrom(reader); });
    }
    case Type::kObject: {
      Members& members = value_.emplace<Members>();
      return reader->ReadObject([&](std::string_view key) {
        for (auto& [k, v] : members) {
          if (k == key) return v.ReadFrom(reader);
        }
        return members.emplace_back(key, Json()).second.ReadFrom(reader);
      });
    }
  }
  return Status::OK();
}

Result<Json> Json::Parse(std::string_view text) {
  // Recursion is bounded by the reader's nesting cap.
  JsonReader reader(text);
  Json v;
  GALOIS_RETURN_IF_ERROR(v.ReadFrom(&reader));
  GALOIS_RETURN_IF_ERROR(reader.Finish());
  return v;
}

}  // namespace galois

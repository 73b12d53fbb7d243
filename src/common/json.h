#ifndef GALOIS_COMMON_JSON_H_
#define GALOIS_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"

namespace galois {

class JsonReader;

/// A minimal JSON document model for the LLM wire protocol (requests,
/// completions, usage accounting) and GALP's request, stats and error
/// frames. Hand-rolled because the build bakes in no third-party JSON
/// dependency; the subset implemented — null, bool, double, string,
/// array, object, with full string escaping — is exactly what an
/// OpenAI-style chat-completions payload needs. Numbers are stored as
/// double; int64 values that must survive the wire losslessly (packed
/// dates, populations) are transmitted as strings by the prompt codec.
///
/// There is one lexer and one writer for all JSON text: Parse builds the
/// tree with JsonReader, and Dump writes through AppendJsonString and
/// AppendJsonNumber. GALP's result frames skip the tree and use the two
/// directly (net/protocol.h).
///
/// A node holds exactly one of the six kinds (a std::variant, 40 bytes on
/// LP64), so a round trip's document costs what its values need: an
/// object member is its key plus one node, not a slot for every kind.
class Json {
 public:
  /// In the order of the variant's alternatives.
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;

  static Json Null() { return Json(); }
  static Json Bool(bool v);
  static Json Number(double v);
  static Json Number(int64_t v) { return Number(static_cast<double>(v)); }
  static Json String(std::string v);
  static Json Array();
  static Json Object();

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_object() const { return type() == Type::kObject; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_string() const { return type() == Type::kString; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_bool() const { return type() == Type::kBool; }

  /// Typed accessors; wrong-type access returns a neutral default (0,
  /// false, "") so callers validate with the predicates above.
  bool bool_value() const;
  double number_value() const;
  const std::string& string_value() const;

  /// Array access. size() is 0 for non-arrays; Append turns a non-array
  /// into an empty array first.
  size_t size() const;
  const Json& at(size_t i) const;
  void Append(Json v);

  /// Object access. `Get` returns a shared null sentinel on absent keys,
  /// so lookups chain without null checks: j["a"]["b"].is_string(). Set
  /// turns a non-object into an empty object first.
  bool Has(const std::string& key) const;
  const Json& operator[](const std::string& key) const;
  void Set(const std::string& key, Json v);

  /// Keys of an object, in insertion order; empty for non-objects. Lets
  /// a caller walk a map with dynamic keys without a parallel key list.
  std::vector<std::string> Keys() const;

  /// Convenience typed getters with defaults, for tolerant decoding.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  double GetNumber(const std::string& key, double fallback = 0.0) const;
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// Serialises to compact JSON text (no insignificant whitespace).
  /// Object keys are emitted in insertion order; numbers follow
  /// AppendJsonNumber, so a non-finite number dumps as null.
  std::string Dump() const;

  /// Parses `text`; trailing non-whitespace is an error, as is any syntax
  /// violation (kParseError) — the transport maps that to kLlmError with
  /// no partial completions. A repeated object key keeps its first
  /// position and takes its last value.
  static Result<Json> Parse(std::string_view text);

 private:
  using Items = std::vector<Json>;
  // Insertion-ordered object representation: lookup is linear, which is
  // fine at wire-payload sizes (a handful of keys per object).
  using Members = std::vector<std::pair<std::string, Json>>;

  const Items* items() const { return std::get_if<Items>(&value_); }
  const Members* members() const { return std::get_if<Members>(&value_); }

  void DumpTo(std::string* out) const;
  /// Replaces this node with the next value `reader` reads; a repeated
  /// object key keeps its first position and takes its last value.
  Status ReadFrom(JsonReader* reader);

  std::variant<std::monostate, bool, double, std::string, Items, Members>
      value_;
};

static_assert(sizeof(Json) <= 48, "a Json node holds one kind, not six");

/// Appends `s` as a quoted JSON string literal: '"' and '\\' are
/// backslash-escaped, \b \f \n \r \t take their short escapes, other
/// control characters become \u00xx, and every other byte is copied as is.
void AppendJsonString(std::string* out, std::string_view s);

/// Appends `v` as a JSON number. Integral values below 1e15 print as
/// integers ("42", so token counts and indices round-trip textually);
/// others print at 17 significant digits, which reads back bit-exact.
/// JSON has no token for a non-finite value, so one writes `null`.
void AppendJsonNumber(std::string* out, double v);

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included), as AppendJsonString does.
std::string JsonEscape(std::string_view s);

/// A pull reader over JSON text: the one lexer behind Json::Parse and the
/// GALP result codec. It reads strings in runs and numbers with
/// std::from_chars on the token, and it accepts exactly what Parse
/// accepts: values nest at most 64 deep, and every error is kParseError
/// "json: <what> at offset N".
///
/// A caller reads the text in order, one value at a time; a container is
/// read with ReadArray or ReadObject, whose callback reads (or skips) each
/// item or member value. A view the reader returns (a string, a key) is
/// valid until its next read.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The kind of the next value. Fails at the end of the input, on a byte
  /// no value starts with, and past the nesting cap.
  Result<Json::Type> Peek() {
    SkipWhitespace();
    if (depth_ <= kMaxDepth && pos_ < text_.size()) {
      switch (text_[pos_]) {
        case '{': return Json::Type::kObject;
        case '[': return Json::Type::kArray;
        case '"': return Json::Type::kString;
        case 't':
        case 'f': return Json::Type::kBool;
        case 'n': return Json::Type::kNull;
        case '-': case '0': case '1': case '2': case '3': case '4':
        case '5': case '6': case '7': case '8': case '9':
          return Json::Type::kNumber;
      }
    }
    return PeekError();
  }

  Status ReadNull();
  Result<bool> ReadBool();
  Result<double> ReadNumber();
  /// The next string, unescaped.
  Result<std::string_view> ReadString();

  /// Reads an array, calling `item()` (returning Status) to read each item.
  template <typename ReadItem>
  Status ReadArray(ReadItem item) {
    GALOIS_RETURN_IF_ERROR(BeginArray());
    while (true) {
      GALOIS_ASSIGN_OR_RETURN(bool more, NextItem());
      if (!more) return Status::OK();
      GALOIS_RETURN_IF_ERROR(item());
    }
  }

  /// Reads an object, calling `member(key)` (returning Status) to read
  /// each member's value. `key` is valid until that value is read.
  template <typename ReadMember>
  Status ReadObject(ReadMember member) {
    GALOIS_RETURN_IF_ERROR(BeginObject());
    std::string_view key;
    while (true) {
      GALOIS_ASSIGN_OR_RETURN(bool more, NextMember(&key));
      if (!more) return Status::OK();
      GALOIS_RETURN_IF_ERROR(member(key));
    }
  }

  /// Skips the next value, checking its syntax.
  Status Skip();
  /// Fails unless only whitespace is left.
  Status Finish();

  /// Tolerant reads, the rules of Json's typed getters: a value of
  /// another kind is skipped and `fallback` returned. ReadIntOr rounds a
  /// number to the nearest integer, as Json::GetInt does.
  Result<double> ReadNumberOr(double fallback);
  Result<int64_t> ReadIntOr(int64_t fallback);
  Result<std::string_view> ReadStringOr(std::string_view fallback);
  Result<bool> ReadBoolOr(bool fallback);

  /// A position to come back to, taken before a value: Reset(mark) reads
  /// that value again.
  struct Mark {
    size_t pos = 0;
    int depth = 0;
  };
  Mark mark() const { return {pos_, depth_}; }
  void Reset(Mark mark) {
    pos_ = mark.pos;
    depth_ = mark.depth;
    after_open_ = false;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status BeginArray();
  /// True when another item follows; false after the closing ']'.
  Result<bool> NextItem();
  Status BeginObject();
  /// Reads the next key and its ':' into `*key` and returns true; returns
  /// false after the closing '}'.
  Result<bool> NextMember(std::string_view* key);

  Status Error(const std::string& what) const;
  Status PeekError() const;
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool At(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  /// Read the value that starts at pos_, which Peek has classified.
  Result<double> ReadNumberAt();
  Result<std::string_view> ReadStringAt();
  void Open() {
    ++pos_;
    ++depth_;
    after_open_ = true;
  }
  /// Consumes `c`, a container's closing bracket, when it is next.
  bool Close(char c) {
    if (!At(c)) return false;
    ++pos_;
    --depth_;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  /// Containers open around pos_.
  int depth_ = 0;
  /// Set by Begin*: the next NextItem/NextMember reads no ','.
  bool after_open_ = false;
  /// Unescaped text of the last string that held an escape.
  std::string unescaped_;
};

}  // namespace galois

#endif  // GALOIS_COMMON_JSON_H_

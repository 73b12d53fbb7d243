#ifndef GALOIS_COMMON_JSON_H_
#define GALOIS_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"

namespace galois {

/// A minimal JSON document model for the LLM wire protocol (requests,
/// completions, usage accounting). Hand-rolled because the build bakes in
/// no third-party JSON dependency; the subset implemented — null, bool,
/// double, string, array, object, with full string escaping — is exactly
/// what an OpenAI-style chat-completions payload needs. Numbers are stored
/// as double; int64 values that must survive the wire losslessly (packed
/// dates, populations) are transmitted as strings by the prompt codec.
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
  /// decoders walk maps with dynamic keys (per-backend spend slices in
  /// the galoisd wire protocol) without a parallel key list.
  std::vector<std::string> Keys() const;

  /// Convenience typed getters with defaults, for tolerant decoding.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  double GetNumber(const std::string& key, double fallback = 0.0) const;
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// Serialises to compact JSON text (no insignificant whitespace).
  /// Object keys are emitted in insertion order.
  std::string Dump() const;

  /// Parses `text`; trailing non-whitespace is an error, as is any syntax
  /// violation (kParseError) — the transport maps that to kLlmError with
  /// no partial completions.
  static Result<Json> Parse(const std::string& text);

 private:
  using Items = std::vector<Json>;
  // Insertion-ordered object representation: lookup is linear, which is
  // fine at wire-payload sizes (a handful of keys per object).
  using Members = std::vector<std::pair<std::string, Json>>;

  const Items* items() const { return std::get_if<Items>(&value_); }
  const Members* members() const { return std::get_if<Members>(&value_); }

  void DumpTo(std::string* out) const;

  std::variant<std::monostate, bool, double, std::string, Items, Members>
      value_;
};

static_assert(sizeof(Json) <= 48, "a Json node holds one kind, not six");

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included). Control characters become \u00XX.
std::string JsonEscape(const std::string& s);

}  // namespace galois

#endif  // GALOIS_COMMON_JSON_H_

#ifndef GALOIS_TYPES_VALUE_H_
#define GALOIS_TYPES_VALUE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <variant>

#include "common/result.h"

namespace galois {

/// The SQL data types supported by the engine. kDate is stored as a packed
/// int64 of the form yyyymmdd (e.g. 1962-08-04 -> 19620804), which keeps
/// Value a small variant while giving dates a total order.
enum class DataType { kNull, kBool, kInt64, kDouble, kString, kDate };

/// Stable name, e.g. "INT" / "VARCHAR" / "DATE".
const char* DataTypeName(DataType t);

/// True if t is kInt64, kDouble (numeric comparisons/aggregation allowed).
bool IsNumeric(DataType t);

/// Packs/unpacks the yyyymmdd date representation.
int64_t PackDate(int year, int month, int day);
void UnpackDate(int64_t packed, int* year, int* month, int* day);

/// A single typed cell value. Values are cheap to copy for scalar types and
/// use a std::string for text. NULL compares less than every non-NULL value
/// and is never equal to anything, including itself, under SqlEquals.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : type_(DataType::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v);
  static Value Int(int64_t v);
  static Value Double(double v);
  static Value String(std::string v);
  static Value Date(int year, int month, int day);
  static Value DatePacked(int64_t packed);

  DataType type() const { return type_; }
  bool is_null() const { return type_ == DataType::kNull; }

  /// Typed accessors; calling the wrong accessor asserts in debug builds.
  bool bool_value() const;
  int64_t int_value() const;
  double double_value() const;
  const std::string& string_value() const;
  int64_t date_packed() const;

  /// Numeric view: int/double/bool widen to double; errors otherwise.
  Result<double> AsDouble() const;

  /// SQL three-valued-logic equality collapsed to bool: NULL == anything is
  /// false. Numerics compare by value across int/double.
  bool SqlEquals(const Value& other) const;

  /// Total order used for ORDER BY and sorting: NULL first, then by type
  /// group (bool < numeric < date < string), then by value.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// Render for display/CSV: NULL -> "NULL", dates ISO-8601, doubles with
  /// minimal digits.
  std::string ToString() const;

  /// Structural equality (unlike SqlEquals, NULL == NULL here). Used by
  /// containers and tests.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash compatible with operator== and with Compare() == 0 for every
  /// value a relation can hold: ints hash as the double they compare as,
  /// so 5 and 5.0 hash equally, and 0.0 and -0.0 hash equally. NaN is the
  /// one exception — it compares equal to every number — and no relation
  /// holds it: clean::ParseNumber rejects non-finite answers. The engine's
  /// hash join relies on this agreement to match exactly the pairs a
  /// `=` filter keeps.
  size_t Hash() const;

 private:
  DataType type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace galois

#endif  // GALOIS_TYPES_VALUE_H_

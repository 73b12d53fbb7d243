#ifndef GALOIS_TYPES_SCHEMA_H_
#define GALOIS_TYPES_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace galois {

/// One column of a relation schema. `table` is the binding alias/relation
/// the column originated from ("" when anonymous, e.g. computed columns).
struct Column {
  std::string name;
  DataType type = DataType::kString;
  std::string table;

  Column() = default;
  Column(std::string n, DataType t, std::string tbl = "")
      : name(std::move(n)), type(t), table(std::move(tbl)) {}

  /// "table.name" when qualified, else "name".
  std::string QualifiedName() const;

  bool operator==(const Column& other) const {
    return name == other.name && type == other.type && table == other.table;
  }
};

/// Ordered list of columns with (case-insensitive) name resolution.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  size_t size() const { return columns_.size(); }
  bool empty() const { return columns_.empty(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  void AddColumn(Column c) { columns_.push_back(std::move(c)); }

  /// Resolves `name` (optionally qualified as "alias.col"). Returns the
  /// index, or an error when not found / ambiguous.
  Result<size_t> Resolve(const std::string& name) const;

  /// Like Resolve with an explicit table qualifier ("" = unqualified).
  Result<size_t> ResolveQualified(const std::string& table,
                                  const std::string& name) const;

  /// Concatenates two schemas (join output).
  static Schema Concat(const Schema& left, const Schema& right);

  /// "name TYPE, name TYPE, ..." rendering for diagnostics.
  std::string ToString() const;

  bool operator==(const Schema& other) const {
    return columns_ == other.columns_;
  }

 private:
  std::vector<Column> columns_;
};

/// A row: one Value per schema column.
using Tuple = std::vector<Value>;

}  // namespace galois

#endif  // GALOIS_TYPES_SCHEMA_H_

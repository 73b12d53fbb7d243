#ifndef GALOIS_TYPES_RELATION_H_
#define GALOIS_TYPES_RELATION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "types/schema.h"

namespace galois {

/// An in-memory row-store relation: a Schema plus a bag of tuples.
///
/// This is the exchange format of the whole system: the ground-truth engine,
/// the Galois LLM executor and the evaluation harness all produce and
/// consume Relations.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  size_t NumRows() const { return rows_.size(); }
  size_t NumColumns() const { return schema_.size(); }
  bool empty() const { return rows_.empty(); }

  const std::vector<Tuple>& rows() const { return rows_; }
  std::vector<Tuple>* mutable_rows() { return &rows_; }
  const Tuple& row(size_t i) const { return rows_[i]; }

  /// Appends a row; errors if arity mismatches the schema.
  Status AddRow(Tuple row);

  /// Appends a row without checking (hot paths that already validated).
  void AddRowUnchecked(Tuple row) { rows_.push_back(std::move(row)); }

  /// Value at (row, col).
  const Value& At(size_t row, size_t col) const { return rows_[row][col]; }

  /// Sorts rows lexicographically by all columns; gives relations a
  /// canonical order for comparison/printing.
  void SortRows();

  /// Removes exact duplicate rows (after canonical sort).
  void DedupRows();

  /// Pretty ASCII table with column headers, e.g. for examples.
  std::string ToPrettyString(size_t max_rows = 50) const;

  /// One line per row, pipe-separated; stable given SortRows.
  std::string ToCsv() const;

  /// Structural equality: same schema, same multiset of rows.
  bool SameContents(const Relation& other) const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace galois

#endif  // GALOIS_TYPES_RELATION_H_

#ifndef GALOIS_CATALOG_CATALOG_H_
#define GALOIS_CATALOG_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/relation.h"

namespace galois::catalog {

/// Which storage engine serves a table. The paper's hybrid queries mix
/// `LLM.` tables (materialised by prompting the language model) with `DB.`
/// tables (ordinary relations).
enum class SourceKind { kDb, kLlm };

const char* SourceKindName(SourceKind k);

/// Column metadata. `description` is a short natural-language gloss used by
/// the prompt generator when the raw label would be cryptic (Section 6,
/// "how to generate [prompts] automatically given only the attribute
/// labels").
struct ColumnDef {
  std::string name;
  DataType type = DataType::kString;
  bool is_key = false;
  std::string description;

  ColumnDef() = default;
  ColumnDef(std::string n, DataType t, bool key = false,
            std::string desc = "")
      : name(std::move(n)), type(t), is_key(key),
        description(std::move(desc)) {}
};

/// Table metadata. Per the paper's assumption (Section 3, "Tuples and
/// Keys") every relation has a single-attribute key, named by
/// `key_column`; `entity_type` is the natural-language type of the keyed
/// entity ("country", "city", "airport"), used to phrase prompts.
struct TableDef {
  std::string name;
  SourceKind default_source = SourceKind::kLlm;
  std::vector<ColumnDef> columns;
  std::string key_column;
  std::string entity_type;

  /// Optimiser statistic: expected number of entities behind the table
  /// (0 = unknown). Drives the auto pushdown policy and sizes a batched
  /// key scan (core::LlmKeyScan).
  size_t expected_rows = 0;

  /// Index of `key_column` in `columns` (or error).
  Result<size_t> KeyIndex() const;

  /// Column lookup by (case-insensitive) name.
  Result<const ColumnDef*> FindColumn(const std::string& name) const;

  /// Materialises the schema, qualifying columns with `alias` (or the table
  /// name when alias is empty).
  Schema ToSchema(const std::string& alias = "") const;
};

/// In-memory catalog: table definitions plus the ground-truth DB instances
/// (the Spider-like relations used both by the ground-truth executor and by
/// hybrid `DB.` scans).
class Catalog {
 public:
  Status AddTable(TableDef def);
  Result<const TableDef*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Registers/fetches the relational instance backing `table_name`.
  Status AddInstance(const std::string& table_name, Relation relation);
  Result<const Relation*> GetInstance(const std::string& table_name) const;

 private:
  // Keyed by lower-cased table name.
  std::map<std::string, TableDef> tables_;
  std::map<std::string, Relation> instances_;
};

}  // namespace galois::catalog

#endif  // GALOIS_CATALOG_CATALOG_H_

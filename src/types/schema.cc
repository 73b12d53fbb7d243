#include "types/schema.h"

#include <optional>

#include "common/strings.h"

namespace galois {

std::string Column::QualifiedName() const {
  if (table.empty()) return name;
  return table + "." + name;
}

Result<size_t> Schema::Resolve(const std::string& name) const {
  // Accept "alias.column" qualified names.
  auto dot = name.find('.');
  if (dot != std::string::npos) {
    return ResolveQualified(name.substr(0, dot), name.substr(dot + 1));
  }
  return ResolveQualified("", name);
}

Result<size_t> Schema::ResolveQualified(const std::string& table,
                                        const std::string& name) const {
  std::optional<size_t> found;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& c = columns_[i];
    if (!EqualsIgnoreCase(c.name, name)) continue;
    if (!table.empty() && !EqualsIgnoreCase(c.table, table)) continue;
    if (found.has_value()) {
      return Status::BindError("ambiguous column reference '" +
                               (table.empty() ? name : table + "." + name) +
                               "'");
    }
    found = i;
  }
  if (!found.has_value()) {
    return Status::BindError("column '" +
                             (table.empty() ? name : table + "." + name) +
                             "' not found in schema [" + ToString() + "]");
  }
  return *found;
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Column> cols = left.columns_;
  cols.insert(cols.end(), right.columns_.begin(), right.columns_.end());
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].QualifiedName();
    out += " ";
    out += DataTypeName(columns_[i].type);
  }
  return out;
}

}  // namespace galois

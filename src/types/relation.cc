#include "types/relation.h"

#include <algorithm>
#include <sstream>

namespace galois {

namespace {

bool TupleLess(const Tuple& a, const Tuple& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace

Status Relation::AddRow(Tuple row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " + std::to_string(schema_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

void Relation::SortRows() {
  std::sort(rows_.begin(), rows_.end(), TupleLess);
}

void Relation::DedupRows() {
  SortRows();
  rows_.erase(std::unique(rows_.begin(), rows_.end(),
                          [](const Tuple& a, const Tuple& b) {
                            if (a.size() != b.size()) return false;
                            for (size_t i = 0; i < a.size(); ++i) {
                              if (!(a[i] == b[i])) return false;
                            }
                            return true;
                          }),
              rows_.end());
}

std::string Relation::ToPrettyString(size_t max_rows) const {
  std::vector<size_t> widths(schema_.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t c = 0; c < schema_.size(); ++c) {
    widths[c] = schema_.column(c).QualifiedName().size();
  }
  size_t shown = std::min(max_rows, rows_.size());
  cells.reserve(shown);
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row;
    row.reserve(schema_.size());
    for (size_t c = 0; c < schema_.size(); ++c) {
      row.push_back(rows_[r][c].ToString());
      widths[c] = std::max(widths[c], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  std::ostringstream os;
  auto rule = [&]() {
    os << "+";
    for (size_t c = 0; c < schema_.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << "+";
    }
    os << "\n";
  };
  rule();
  os << "|";
  for (size_t c = 0; c < schema_.size(); ++c) {
    std::string h = schema_.column(c).QualifiedName();
    os << " " << h << std::string(widths[c] - h.size(), ' ') << " |";
  }
  os << "\n";
  rule();
  for (const auto& row : cells) {
    os << "|";
    for (size_t c = 0; c < schema_.size(); ++c) {
      os << " " << row[c] << std::string(widths[c] - row[c].size(), ' ')
         << " |";
    }
    os << "\n";
  }
  rule();
  if (shown < rows_.size()) {
    os << "(" << rows_.size() - shown << " more rows)\n";
  }
  os << rows_.size() << " row(s)\n";
  return os.str();
}

std::string Relation::ToCsv() const {
  std::ostringstream os;
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (c > 0) os << "|";
    os << schema_.column(c).QualifiedName();
  }
  os << "\n";
  for (const Tuple& t : rows_) {
    for (size_t c = 0; c < t.size(); ++c) {
      if (c > 0) os << "|";
      os << t[c].ToString();
    }
    os << "\n";
  }
  return os.str();
}

bool Relation::SameContents(const Relation& other) const {
  if (schema_.size() != other.schema_.size()) return false;
  if (rows_.size() != other.rows_.size()) return false;
  Relation a = *this;
  Relation b = other;
  a.SortRows();
  b.SortRows();
  for (size_t r = 0; r < a.rows_.size(); ++r) {
    const Tuple& ta = a.rows_[r];
    const Tuple& tb = b.rows_[r];
    for (size_t c = 0; c < ta.size(); ++c) {
      if (!(ta[c] == tb[c])) return false;
    }
  }
  return true;
}

}  // namespace galois

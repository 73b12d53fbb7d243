#include "clean/normalize.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace galois::clean {

namespace {

const char* kMonthNames[] = {"january",   "february", "march",    "april",
                             "may",       "june",     "july",     "august",
                             "september", "october",  "november", "december"};

int MonthFromName(const std::string& word) {
  std::string w = ToLower(word);
  for (int i = 0; i < 12; ++i) {
    if (w == kMonthNames[i]) return i + 1;
  }
  return 0;
}

std::string StripTrailingPunct(std::string s) {
  while (!s.empty() && (s.back() == '.' || s.back() == ',' ||
                        s.back() == ';' || s.back() == '!' ||
                        s.back() == '"' || s.back() == '\'')) {
    s.pop_back();
  }
  return s;
}

std::string StripLeadingNoise(std::string s) {
  // "about", "approximately", "~", "$", "around".
  std::string lower = ToLower(s);
  for (const char* prefix : {"about ", "approximately ", "around ",
                             "roughly ", "circa "}) {
    if (StartsWith(lower, prefix)) {
      return Trim(s.substr(std::string(prefix).size()));
    }
  }
  while (!s.empty() && (s.front() == '~' || s.front() == '$' ||
                        s.front() == '"' || s.front() == '\'')) {
    s.erase(s.begin());
  }
  return Trim(s);
}

}  // namespace

bool IsUnknown(const std::string& text) {
  std::string t = ToLower(Trim(StripTrailingPunct(Trim(text))));
  return t == "unknown" || t == "i don't know" || t == "n/a" || t.empty();
}

bool IsNoMoreResults(const std::string& text) {
  std::string t = ToLower(Trim(text));
  return StartsWith(t, "no more results") || StartsWith(t, "no more") ||
         StartsWith(t, "that is all") || StartsWith(t, "none");
}

std::string StripVerbosity(const std::string& text) {
  // "The <attr> of <key> is <value>." -> "<value>".
  std::string t = Trim(text);
  std::string lower = ToLower(t);
  if (StartsWith(lower, "the ") || StartsWith(lower, "its ")) {
    size_t pos = lower.rfind(" is ");
    if (pos != std::string::npos && pos + 4 < t.size()) {
      return Trim(StripTrailingPunct(Trim(t.substr(pos + 4))));
    }
  }
  // "<key> has <value> <attr>."? Not emitted by our models; keep as-is.
  return t;
}

std::vector<std::string> SplitList(const std::string& completion) {
  std::vector<std::string> items;
  // First split lines, then commas within lines; strip "-"/"*" bullets.
  for (std::string& line : Split(completion, '\n', /*trim=*/true,
                                 /*skip_empty=*/true)) {
    if (IsNoMoreResults(line)) continue;
    std::string body = line;
    if (StartsWith(body, "- ") || StartsWith(body, "* ")) {
      body = body.substr(2);
    }
    for (std::string& piece : Split(body, ',', /*trim=*/true,
                                    /*skip_empty=*/true)) {
      std::string item = Trim(StripTrailingPunct(piece));
      if (item.empty() || IsUnknown(item)) continue;
      items.push_back(std::move(item));
    }
  }
  return items;
}

Result<double> ParseNumber(const std::string& text) {
  std::string t =
      StripLeadingNoise(Trim(StripTrailingPunct(Trim(text))));
  if (t.empty()) return Status::TypeError("empty numeric answer");
  // Remove thousands separators.
  std::string cleaned = ReplaceAll(t, ",", "");
  std::string lower = ToLower(cleaned);

  // Word multipliers: "2 million", "450 thousand", "1.1 billion".
  double multiplier = 1.0;
  for (const auto& [word, mult] :
       std::vector<std::pair<std::string, double>>{
           {" billion", 1e9}, {" million", 1e6}, {" thousand", 1e3}}) {
    if (EndsWith(lower, word)) {
      multiplier = mult;
      cleaned = Trim(cleaned.substr(0, cleaned.size() - word.size()));
      lower = ToLower(cleaned);
      break;
    }
  }
  // Suffix multipliers: 1.2k / 3M / 0.5B.
  if (multiplier == 1.0 && !cleaned.empty()) {
    char suffix = lower.back();
    if (suffix == 'k' || suffix == 'm' || suffix == 'b') {
      // Only when the rest parses as a number (avoid eating words).
      std::string head = cleaned.substr(0, cleaned.size() - 1);
      char* end = nullptr;
      std::strtod(head.c_str(), &end);
      if (end != nullptr && *end == '\0' && !head.empty()) {
        multiplier = suffix == 'k' ? 1e3 : (suffix == 'm' ? 1e6 : 1e9);
        cleaned = head;
      }
    }
  }
  char* end = nullptr;
  double v = std::strtod(cleaned.c_str(), &end);
  if (end == nullptr || end == cleaned.c_str() || *end != '\0') {
    return Status::TypeError("cannot parse number from '" + text + "'");
  }
  // strtod also reads "nan", "inf" and overflowing exponents. A
  // non-finite cell would pass the domain check, compare equal to every
  // number and break the JSON wire format, so it is no number at all.
  v *= multiplier;
  if (!std::isfinite(v)) {
    return Status::TypeError("non-finite number from '" + text + "'");
  }
  return v;
}

Result<Value> ParseDate(const std::string& text) {
  std::string t = Trim(StripTrailingPunct(Trim(text)));
  if (t.empty()) return Status::TypeError("empty date answer");
  // ISO yyyy-mm-dd.
  {
    int y = 0, m = 0, d = 0;
    if (std::sscanf(t.c_str(), "%d-%d-%d", &y, &m, &d) == 3 && y > 999 &&
        m >= 1 && m <= 12 && d >= 1 && d <= 31) {
      return Value::Date(y, m, d);
    }
  }
  // dd/mm/yyyy.
  {
    int d = 0, m = 0, y = 0;
    if (std::sscanf(t.c_str(), "%d/%d/%d", &d, &m, &y) == 3 && y > 999 &&
        m >= 1 && m <= 12 && d >= 1 && d <= 31) {
      return Value::Date(y, m, d);
    }
  }
  // "August 4, 1962" or "4 August 1962".
  {
    std::vector<std::string> words =
        Split(ReplaceAll(t, ",", " "), ' ', /*trim=*/true,
              /*skip_empty=*/true);
    if (words.size() == 3) {
      int m = MonthFromName(words[0]);
      if (m > 0) {
        int d = std::atoi(words[1].c_str());
        int y = std::atoi(words[2].c_str());
        if (d >= 1 && d <= 31 && y > 999) return Value::Date(y, m, d);
      }
      m = MonthFromName(words[1]);
      if (m > 0) {
        int d = std::atoi(words[0].c_str());
        int y = std::atoi(words[2].c_str());
        if (d >= 1 && d <= 31 && y > 999) return Value::Date(y, m, d);
      }
    }
  }
  return Status::TypeError("cannot parse date from '" + text + "'");
}

Result<bool> ParseBool(const std::string& text) {
  std::string t = ToLower(Trim(StripTrailingPunct(Trim(text))));
  if (t == "yes" || t == "true" || t == "y") return true;
  if (t == "no" || t == "false" || t == "n") return false;
  return Status::TypeError("cannot parse boolean from '" + text + "'");
}

Result<Value> NormalizeCell(const std::string& raw, DataType expected,
                            const DomainConstraint* domain) {
  std::string t = StripVerbosity(raw);
  if (IsUnknown(t)) return Value::Null();
  switch (expected) {
    case DataType::kInt64: {
      auto n = ParseNumber(t);
      if (!n.ok()) return Value::Null();  // unparseable -> reject cell
      double v = n.value();
      if (domain != nullptr && !domain->Admits(v)) return Value::Null();
      // llround is undefined past the int64 range (it yields INT64_MIN).
      const double limit = std::ldexp(1.0, 63);
      if (!(v >= -limit && v < limit)) return Value::Null();
      return Value::Int(static_cast<int64_t>(std::llround(v)));
    }
    case DataType::kDouble: {
      auto n = ParseNumber(t);
      if (!n.ok()) return Value::Null();
      double v = n.value();
      if (domain != nullptr && !domain->Admits(v)) return Value::Null();
      return Value::Double(v);
    }
    case DataType::kDate: {
      auto d = ParseDate(t);
      if (!d.ok()) return Value::Null();
      return d.value();
    }
    case DataType::kBool: {
      auto b = ParseBool(t);
      if (!b.ok()) return Value::Null();
      return Value::Bool(b.value());
    }
    case DataType::kString:
      return Value::String(Trim(StripTrailingPunct(t)));
    case DataType::kNull:
      return Value::Null();
  }
  return Status::Internal("unhandled expected type");
}

DomainConstraint DefaultDomainForColumn(const std::string& column_name) {
  std::string n = ToLower(column_name);
  DomainConstraint d;
  if (ContainsIgnoreCase(n, "year")) {
    d.min = 1000.0;
    d.max = 2100.0;
    return d;
  }
  if (ContainsIgnoreCase(n, "age")) {
    d.min = 0.0;
    d.max = 130.0;
    return d;
  }
  // Elevation can legitimately be negative (e.g. below sea level).
  if (ContainsIgnoreCase(n, "elevation")) return d;
  for (const char* kw :
       {"population", "capacity", "attendance", "speakers", "passengers",
        "count", "runways", "fleet", "area", "salary", "gdp", "networth",
        "destinations"}) {
    if (ContainsIgnoreCase(n, kw)) {
      d.min = 0.0;  // non-negative magnitude
      break;
    }
  }
  return d;
}

}  // namespace galois::clean

#include "llm/simulated_llm.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/strings.h"
#include "engine/executor.h"
#include "engine/expr_eval.h"
#include "sql/parser.h"

namespace galois::llm {

namespace {

using knowledge::Entity;
using knowledge::EntitySet;
using knowledge::WorldKb;

/// Renders an int with thousands separators: 1234567 -> "1,234,567".
std::string WithSeparators(int64_t v) {
  std::string digits = std::to_string(std::llabs(v));
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.insert(out.begin(), ',');
    out.insert(out.begin(), *it);
    ++count;
  }
  if (v < 0) out.insert(out.begin(), '-');
  return out;
}

/// Compact "k / M" rendering: 1200 -> "1.2k", 3000000 -> "3M".
std::string Compact(double v) {
  auto fmt = [](double x, const char* suffix) {
    double rounded = std::round(x * 10.0) / 10.0;
    std::ostringstream os;
    if (rounded == std::floor(rounded)) {
      os << static_cast<int64_t>(rounded) << suffix;
    } else {
      os << rounded << suffix;
    }
    return os.str();
  };
  double a = std::fabs(v);
  if (a >= 1e9) return fmt(v / 1e9, "B");
  if (a >= 1e6) return fmt(v / 1e6, "M");
  if (a >= 1e3) return fmt(v / 1e3, "k");
  std::ostringstream os;
  os << v;
  return os.str();
}

/// "3 million" style for round numbers; falls back to compact.
std::string Worded(double v) {
  double a = std::fabs(v);
  if (a >= 1e6 && std::fmod(a, 1e5) == 0.0) {
    double m = v / 1e6;
    std::ostringstream os;
    if (m == std::floor(m)) {
      os << static_cast<int64_t>(m) << " million";
    } else {
      os << m << " million";
    }
    return os.str();
  }
  if (a >= 1e3 && std::fmod(a, 1e3) == 0.0 && a < 1e6) {
    std::ostringstream os;
    os << static_cast<int64_t>(v / 1e3) << " thousand";
    return os.str();
  }
  return Compact(v);
}

const char* kMonthNames[] = {"January",   "February", "March",    "April",
                             "May",       "June",     "July",     "August",
                             "September", "October",  "November", "December"};

}  // namespace

SimulatedLlm::SimulatedLlm(const WorldKb* kb, ModelProfile profile,
                           const catalog::Catalog* ground_catalog,
                           uint64_t seed)
    : kb_(kb),
      profile_(std::move(profile)),
      ground_catalog_(ground_catalog),
      seed_(seed ^ Rng::HashString(profile_.name)) {}

double SimulatedLlm::Draw(const std::string& purpose, const std::string& a,
                          const std::string& b, const std::string& c) const {
  uint64_t h = seed_;
  h ^= Rng::HashString(purpose) * 0x9E3779B97F4A7C15ULL;
  h ^= Rng::HashString(a) * 0xC2B2AE3D27D4EB4FULL;
  h ^= Rng::HashString(b) * 0x165667B19E3779F9ULL;
  h ^= Rng::HashString(c) * 0x27D4EB2F165667C5ULL;
  Rng rng(h);
  return rng.NextDouble();
}

bool SimulatedLlm::KnowsEntity(const std::string& concept_name,
                               const std::string& key) const {
  const EntitySet* set = kb_->FindConcept(concept_name);
  if (set == nullptr) return false;
  const Entity* e = set->FindEntity(key);
  if (e == nullptr) return false;
  double p_known = std::clamp(
      profile_.coverage_floor + profile_.coverage_gain * e->popularity, 0.0,
      1.0);
  return Draw("know", concept_name, e->key) < p_known;
}

std::vector<const Entity*> SimulatedLlm::KnownEntities(
    const std::string& concept_name) const {
  std::vector<const Entity*> out;
  const EntitySet* set = kb_->FindConcept(concept_name);
  if (set == nullptr) return out;
  for (const Entity& e : set->entities) {
    if (KnowsEntity(concept_name, e.key)) out.push_back(&e);
  }
  // Most popular first: "the default semantics for the LLM is to pick the
  // most popular interpretation" — scans surface popular entities first.
  std::stable_sort(out.begin(), out.end(),
                   [](const Entity* a, const Entity* b) {
                     if (a->popularity != b->popularity) {
                       return a->popularity > b->popularity;
                     }
                     return a->key < b->key;
                   });
  return out;
}

Result<Value> SimulatedLlm::NoisyAttribute(const std::string& concept_name,
                                           const std::string& key,
                                           const std::string& attribute)
    const {
  if (!KnowsEntity(concept_name, key)) {
    // "LLMs do not know what they know" (Section 3): with some
    // probability the model answers confidently about an entity it has no
    // reliable knowledge of, fabricating a value borrowed from a similar
    // entity. Otherwise it answers "Unknown".
    if (Draw("fake-conf", concept_name, key, attribute) >=
        profile_.fake_entity_confidence) {
      return Value::Null();
    }
    const EntitySet* pool = kb_->FindConcept(concept_name);
    if (pool == nullptr || pool->entities.empty()) return Value::Null();
    size_t idx = static_cast<size_t>(
        Draw("fake-src", concept_name, key, attribute) *
        static_cast<double>(pool->entities.size()));
    idx = std::min(idx, pool->entities.size() - 1);
    const Value* v =
        pool->entities[idx].FindAttribute(ToLower(attribute));
    if (v == nullptr) return Value::Null();
    return *v;
  }
  if (Draw("unknown", concept_name, key, attribute) < profile_.unknown_rate) {
    return Value::Null();
  }
  GALOIS_ASSIGN_OR_RETURN(
      Value truth, kb_->GetAttribute(concept_name, key, ToLower(attribute)));
  // Numeric magnitudes are recalled less reliably than names/years.
  double recall_accuracy = profile_.fact_accuracy;
  if (IsNumeric(truth.type()) && !ContainsIgnoreCase(attribute, "year")) {
    recall_accuracy = profile_.numeric_fact_accuracy;
  }
  if (Draw("fact", concept_name, key, attribute) < recall_accuracy) {
    return truth;
  }
  // Stable hallucination: the same wrong value on every prompt.
  double u = Draw("perturb", concept_name, key, attribute);
  switch (truth.type()) {
    case DataType::kInt64:
    case DataType::kDouble: {
      GALOIS_ASSIGN_OR_RETURN(double d, truth.AsDouble());
      double sign = Draw("perturb-sign", concept_name, key, attribute) < 0.5
                        ? -1.0
                        : 1.0;
      // Calendar years drift by a few years; magnitudes scale
      // multiplicatively. A 20%-scaled year would be nonsense no model
      // produces.
      if (ContainsIgnoreCase(attribute, "year")) {
        int shift = 1 + static_cast<int>(u * 4.0);
        return Value::Int(static_cast<int64_t>(d) +
                          static_cast<int64_t>(sign * shift));
      }
      double mag = 0.1 + u * (profile_.numeric_error_scale - 0.1);
      double wrong = d * (1.0 + sign * mag);
      if (truth.type() == DataType::kInt64) {
        return Value::Int(static_cast<int64_t>(std::llround(wrong)));
      }
      return Value::Double(wrong);
    }
    case DataType::kDate: {
      int y, m, d;
      UnpackDate(truth.date_packed(), &y, &m, &d);
      int shift = 1 + static_cast<int>(u * 3.0);
      if (Draw("perturb-sign", concept_name, key, attribute) < 0.5) {
        shift = -shift;
      }
      return Value::Date(y + shift, m, d);
    }
    case DataType::kBool:
      return Value::Bool(!truth.bool_value());
    case DataType::kString: {
      // Entity confusion: answer with another entity's value for the same
      // attribute (classic LLM mixup).
      std::string ref = WorldKb::ReferencedConcept(concept_name, attribute);
      const EntitySet* pool = kb_->FindConcept(ref.empty() ? concept_name : ref);
      if (pool != nullptr && pool->entities.size() > 1) {
        size_t idx = static_cast<size_t>(u * pool->entities.size());
        idx = std::min(idx, pool->entities.size() - 1);
        const Entity& other = pool->entities[idx];
        if (!ref.empty()) {
          if (other.key != truth.string_value()) {
            return Value::String(other.key);
          }
          const Entity& next =
              pool->entities[(idx + 1) % pool->entities.size()];
          return Value::String(next.key);
        }
        const Value* alt = other.FindAttribute(ToLower(attribute));
        if (alt != nullptr && !alt->is_null() &&
            alt->type() == DataType::kString &&
            alt->string_value() != truth.string_value()) {
          return *alt;
        }
      }
      return truth;  // nothing plausible to confuse with
    }
    default:
      return truth;
  }
}

bool SimulatedLlm::UsesNonCanonicalStyle(const std::string& concept_name,
                                         const std::string& attribute) const {
  if (WorldKb::ReferencedConcept(concept_name, attribute).empty()) return false;
  return Draw("style", concept_name, attribute) < profile_.reference_style_noise;
}

std::string SimulatedLlm::RenderValue(const std::string& concept_name,
                                      const std::string& attribute,
                                      const Value& v,
                                      const std::string& key) const {
  if (v.is_null()) return "Unknown";
  switch (v.type()) {
    case DataType::kString: {
      if (!concept_name.empty() && UsesNonCanonicalStyle(concept_name, attribute)) {
        std::string ref = WorldKb::ReferencedConcept(concept_name, attribute);
        std::vector<std::string> forms =
            kb_->SurfaceForms(ref, v.string_value());
        if (forms.size() > 1) {
          // The style index is fixed per (model, concept_name, attribute), so a
          // whole retrieved column uses the same non-canonical form.
          size_t idx = 1 + static_cast<size_t>(
                               Draw("style-idx", concept_name, attribute) *
                               static_cast<double>(forms.size() - 1));
          idx = std::min(idx, forms.size() - 1);
          return forms[idx];
        }
      }
      return v.string_value();
    }
    case DataType::kInt64:
    case DataType::kDouble: {
      double fmt_draw = Draw("format", concept_name, attribute, key);
      if (fmt_draw >= profile_.value_format_noise) return v.ToString();
      double variant = Draw("format-variant", concept_name, attribute, key);
      double d = v.AsDouble().value_or(0.0);
      if (variant < 0.3 && v.type() == DataType::kInt64) {
        return WithSeparators(v.int_value());
      }
      if (variant < 0.6) return Compact(d);
      if (variant < 0.85) return Worded(d);
      return "about " + v.ToString();
    }
    case DataType::kDate: {
      int y, m, d;
      UnpackDate(v.date_packed(), &y, &m, &d);
      m = std::clamp(m, 1, 12);
      double fmt_draw = Draw("format", concept_name, attribute, key);
      if (fmt_draw >= profile_.value_format_noise) return v.ToString();
      double variant = Draw("format-variant", concept_name, attribute, key);
      std::ostringstream os;
      if (variant < 0.45) {
        os << kMonthNames[m - 1] << " " << d << ", " << y;
      } else if (variant < 0.8) {
        os << d << " " << kMonthNames[m - 1] << " " << y;
      } else {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%02d/%02d/%04d", d, m, y);
        os << buf;
      }
      return os.str();
    }
    default:
      return v.ToString();
  }
}

int SimulatedLlm::ScanStopPage(const std::string& concept_name) const {
  for (int page = 1; page < 1000; ++page) {
    if (Draw("fatigue", concept_name, std::to_string(page)) <
        profile_.paging_fatigue) {
      return page;
    }
  }
  return 1000;
}

Result<int> SimulatedLlm::NoisyFilterHolds(const std::string& concept_name,
                                           const std::string& key,
                                           const PromptFilter& filter,
                                           double extra_error,
                                           const std::string& purpose) const {
  GALOIS_ASSIGN_OR_RETURN(Value noisy,
                          NoisyAttribute(concept_name, key, filter.attribute));
  if (noisy.is_null()) return -1;
  bool holds = false;
  const std::string& op = filter.op;
  if (op == "LIKE") {
    if (noisy.type() != DataType::kString ||
        filter.value.type() != DataType::kString) {
      return -1;
    }
    holds = engine::LikeMatch(noisy.string_value(),
                              filter.value.string_value());
  } else {
    int cmp = noisy.Compare(filter.value);
    if (op == "=") {
      holds = cmp == 0;
      // String equality: the model compares meanings, not bytes; be
      // case-insensitive like a human reader.
      if (!holds && noisy.type() == DataType::kString &&
          filter.value.type() == DataType::kString) {
        holds = EqualsIgnoreCase(noisy.string_value(),
                                 filter.value.string_value());
      }
    } else if (op == "!=") {
      holds = cmp != 0;
    } else if (op == "<") {
      holds = cmp < 0;
    } else if (op == "<=") {
      holds = cmp <= 0;
    } else if (op == ">") {
      holds = cmp > 0;
    } else if (op == ">=") {
      holds = cmp >= 0;
    } else {
      return Status::LlmError("unsupported filter operator '" + op + "'");
    }
  }
  if (Draw(purpose, concept_name, key,
           filter.attribute + filter.op + filter.value.ToString()) <
      extra_error) {
    holds = !holds;
  }
  return holds ? 1 : 0;
}

double SimulatedLlm::PromptLatencyMs(
    const Prompt& prompt, const std::string& completion_text) const {
  // Deterministic jitter in [0.9, 1.1), seeded by the prompt text alone so
  // the meter is independent of round-trip ordering (and hence identical
  // for sequential and concurrent dispatch).
  double jitter = 0.9 + 0.2 * Draw("latency", prompt.text.substr(0, 64));
  int64_t ct = CountTokens(completion_text);
  return (profile_.latency_ms_base +
          profile_.latency_ms_per_token * static_cast<double>(ct)) *
         jitter;
}

void SimulatedLlm::SimulateRoundTripWait() const {
  if (wall_latency_ms_ <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(wall_latency_ms_));
}

Result<Completion> SimulatedLlm::Answer(const Prompt& prompt) const {
  if (const auto* scan = std::get_if<KeyScanIntent>(&prompt.intent)) {
    return CompleteKeyScan(*scan);
  }
  if (const auto* get = std::get_if<AttributeGetIntent>(&prompt.intent)) {
    return CompleteAttributeGet(*get);
  }
  if (const auto* check = std::get_if<FilterCheckIntent>(&prompt.intent)) {
    return CompleteFilterCheck(*check);
  }
  if (const auto* freeform = std::get_if<FreeformIntent>(&prompt.intent)) {
    return CompleteFreeform(*freeform);
  }
  if (const auto* verify = std::get_if<VerifyIntent>(&prompt.intent)) {
    return CompleteVerify(*verify);
  }
  return Status::LlmError("unhandled prompt intent");
}

Result<Completion> SimulatedLlm::CompleteMetered(const Prompt& prompt,
                                                 CostMeter* usage) {
  GALOIS_ASSIGN_OR_RETURN(Completion c, Answer(prompt));
  CostMeter delta;
  delta.num_prompts = 1;
  delta.prompt_tokens = CountTokens(prompt.text);
  delta.completion_tokens = CountTokens(c.text);
  delta.simulated_latency_ms = PromptLatencyMs(prompt, c.text);
  Bill(delta, usage);
  SimulateRoundTripWait();
  return c;
}

Result<std::vector<Completion>> SimulatedLlm::CompleteBatchMetered(
    const std::vector<Prompt>& prompts, CostMeter* usage) {
  if (prompts.empty()) return std::vector<Completion>{};
  // Answer the prompts individually (same completions, full token
  // billing), but charge the overlapped latency of one round trip: a
  // batch pays one base overhead plus the *maximum* decode time instead
  // of the sum. All meter fields are applied in one locked update so
  // concurrent batches never observe a half-billed round trip.
  std::vector<Completion> out;
  out.reserve(prompts.size());
  CostMeter delta;
  double max_single = 0.0;
  for (const Prompt& p : prompts) {
    GALOIS_ASSIGN_OR_RETURN(Completion c, Answer(p));
    delta.prompt_tokens += CountTokens(p.text);
    delta.completion_tokens += CountTokens(c.text);
    max_single = std::max(max_single, PromptLatencyMs(p, c.text));
    out.push_back(std::move(c));
  }
  delta.num_prompts = static_cast<int64_t>(prompts.size());
  delta.simulated_latency_ms = profile_.latency_ms_base + max_single;
  delta.num_batches = 1;
  Bill(delta, usage);
  SimulateRoundTripWait();
  return out;
}

void SimulatedLlm::Bill(const CostMeter& delta, CostMeter* usage) {
  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    cost_ += delta;
  }
  if (usage != nullptr) {
    // The caller's meter gets the per-backend slice too, so routed and
    // direct paths attribute identically (mirrors cost()).
    CostMeter reported = delta;
    reported.FillSelfSlice(profile_.name);
    *usage += reported;
  }
}

CostMeter SimulatedLlm::cost() const {
  std::lock_guard<std::mutex> lock(cost_mu_);
  CostMeter out = cost_;
  // Every concrete model reports its own by_model slice so per-backend
  // attribution works uniformly: a direct SimulatedLlm and a ModelRouter
  // routing every phase to it produce byte-identical meters.
  out.FillSelfSlice(profile_.name);
  return out;
}

void SimulatedLlm::ResetCost() {
  std::lock_guard<std::mutex> lock(cost_mu_);
  cost_.Reset();
}

Result<Completion> SimulatedLlm::CompleteKeyScan(
    const KeyScanIntent& intent) const {
  GALOIS_ASSIGN_OR_RETURN(const EntitySet* set,
                          kb_->GetConcept(intent.concept_name));
  (void)set;
  std::vector<const Entity*> known = KnownEntities(intent.concept_name);
  // Pushed-down filter: the model filters with its own noisy values plus
  // the extra pushdown error.
  std::vector<const Entity*> surfaced;
  if (intent.filter.has_value()) {
    for (const Entity* e : known) {
      GALOIS_ASSIGN_OR_RETURN(
          int holds, NoisyFilterHolds(intent.concept_name, e->key,
                                      *intent.filter,
                                      profile_.pushdown_error,
                                      "pushdown"));
      if (holds == 1) surfaced.push_back(e);
    }
  } else {
    surfaced = std::move(known);
  }
  int stop_page = ScanStopPage(intent.concept_name);
  if (intent.page >= stop_page) {
    return Completion{"No more results."};
  }
  size_t begin = static_cast<size_t>(intent.page) *
                 static_cast<size_t>(profile_.page_size);
  if (begin >= surfaced.size()) {
    return Completion{"No more results."};
  }
  size_t end = std::min(surfaced.size(),
                        begin + static_cast<size_t>(profile_.page_size));
  std::vector<std::string> keys;
  keys.reserve(end - begin + 1);
  for (size_t i = begin; i < end; ++i) keys.push_back(surfaced[i]->key);
  // Hallucinated extra key, deterministically per (concept_name, page).
  std::string page_label = std::to_string(intent.page);
  if (Draw("hallucinate", intent.concept_name, page_label) <
      profile_.hallucinated_key_rate && !surfaced.empty()) {
    size_t src = static_cast<size_t>(
        Draw("hallucinate-src", intent.concept_name, page_label) *
        static_cast<double>(surfaced.size()));
    src = std::min(src, surfaced.size() - 1);
    std::string fake = "New " + surfaced[src]->key;
    if (!StartsWith(surfaced[src]->key, "New ")) keys.push_back(fake);
  }
  return Completion{Join(keys, ", ")};
}

Result<Completion> SimulatedLlm::CompleteAttributeGet(
    const AttributeGetIntent& intent) const {
  GALOIS_ASSIGN_OR_RETURN(
      Value noisy, NoisyAttribute(intent.concept_name, intent.key,
                                  intent.attribute));
  if (noisy.is_null()) return Completion{"Unknown"};
  std::string rendered =
      RenderValue(intent.concept_name, intent.attribute, noisy, intent.key);
  if (Draw("verbose", intent.concept_name, intent.key, intent.attribute) <
      profile_.verbosity) {
    std::string attr = intent.attribute_description.empty()
                           ? HumanizeIdentifier(intent.attribute)
                           : intent.attribute_description;
    return Completion{"The " + attr + " of " + intent.key + " is " +
                      rendered + "."};
  }
  return Completion{rendered};
}

Result<Completion> SimulatedLlm::CompleteFilterCheck(
    const FilterCheckIntent& intent) const {
  GALOIS_ASSIGN_OR_RETURN(
      int holds,
      NoisyFilterHolds(intent.concept_name, intent.key, intent.filter,
                       profile_.filter_check_error, "filter-check"));
  if (holds < 0) return Completion{"Unknown"};
  return Completion{holds == 1 ? "Yes." : "No."};
}

Result<Completion> SimulatedLlm::CompleteVerify(
    const VerifyIntent& intent) const {
  // An entity that does not exist in the world at all (a hallucinated
  // scan key like "New Italy") is recognised as bogus by a competent
  // critic; an entity that exists but that this model has no reliable
  // knowledge of draws an honest "Unknown".
  const EntitySet* set = kb_->FindConcept(intent.concept_name);
  const Entity* entity =
      set == nullptr ? nullptr : set->FindEntity(intent.key);
  if (entity == nullptr) {
    bool correct = Draw("verify-exists", intent.concept_name, intent.key,
                        intent.attribute) < profile_.verifier_accuracy;
    return Completion{correct ? "No." : "Yes."};
  }
  if (!KnowsEntity(intent.concept_name, intent.key)) {
    return Completion{"Unknown"};
  }
  auto truth = kb_->GetAttribute(intent.concept_name, intent.key,
                                 ToLower(intent.attribute));
  if (!truth.ok()) return Completion{"Unknown"};
  // Does the claim actually hold? Numerics within the 5% tolerance a
  // reader would apply; strings case-insensitively.
  bool claim_true = false;
  if (intent.claimed.is_null()) {
    claim_true = truth.value().is_null();
  } else if (IsNumeric(truth.value().type()) &&
             IsNumeric(intent.claimed.type())) {
    double t = truth.value().AsDouble().value_or(0.0);
    double c = intent.claimed.AsDouble().value_or(0.0);
    claim_true = t == 0.0 ? c == 0.0 : std::fabs(c - t) / std::fabs(t) < 0.05;
  } else if (truth.value().type() == DataType::kString &&
             intent.claimed.type() == DataType::kString) {
    // A reader judging "is the capital of Australia Canberra, Australia?"
    // says yes: compare up to case and a disambiguating ", ..." suffix,
    // and accept any surface form of the referenced entity ("ITA" for
    // "Italy").
    auto canonical = [](const std::string& s) {
      std::string t = ToLower(Trim(s));
      size_t comma = t.find(", ");
      if (comma != std::string::npos) t = t.substr(0, comma);
      if (StartsWith(t, "the ")) t = t.substr(4);
      return t;
    };
    claim_true = canonical(truth.value().string_value()) ==
                 canonical(intent.claimed.string_value());
    if (!claim_true) {
      std::string ref = WorldKb::ReferencedConcept(intent.concept_name,
                                                   intent.attribute);
      if (!ref.empty()) {
        for (const std::string& form :
             kb_->SurfaceForms(ref, truth.value().string_value())) {
          if (canonical(form) ==
              canonical(intent.claimed.string_value())) {
            claim_true = true;
            break;
          }
        }
      }
    }
  } else {
    claim_true = truth.value() == intent.claimed;
  }
  // The critic errs asymmetrically — and independently of the generation
  // pass, which is what makes verification useful: catching a false claim
  // succeeds with verifier_accuracy, while a true claim is only rarely
  // rejected (verifier_false_reject).
  double u = Draw("verify", intent.concept_name, intent.key,
                  intent.attribute + "|" + intent.claimed.ToString());
  bool answer_yes =
      claim_true ? u >= profile_.verifier_false_reject
                 : u >= profile_.verifier_accuracy;
  return Completion{answer_yes ? "Yes." : "No."};
}

Result<Completion> SimulatedLlm::CompleteFreeform(
    const FreeformIntent& intent) const {
  if (ground_catalog_ == nullptr) {
    return Status::LlmError(
        "free-form QA requires a ground catalog for answer grounding");
  }
  GALOIS_ASSIGN_OR_RETURN(sql::SelectStatement stmt,
                          sql::ParseSelect(intent.sql));
  GALOIS_ASSIGN_OR_RETURN(Relation truth,
                          engine::ExecuteSelect(stmt, *ground_catalog_));
  bool has_aggregate = false;
  for (const auto& item : stmt.select_list) {
    if (sql::ContainsAggregate(*item.expr)) has_aggregate = true;
  }
  if (!stmt.group_by.empty()) has_aggregate = true;
  bool has_join = stmt.from.size() + stmt.joins.size() > 1;

  double recall = intent.chain_of_thought ? profile_.cot_list_recall
                                          : profile_.qa_list_recall;
  double agg_acc = intent.chain_of_thought
                       ? profile_.cot_aggregate_accuracy
                       : profile_.qa_aggregate_accuracy;
  double join_acc = intent.chain_of_thought ? profile_.cot_join_accuracy
                                            : profile_.qa_join_accuracy;

  // Per-row keep probability by query class.
  double keep_p = recall;
  if (has_join) keep_p = join_acc;

  std::ostringstream body;
  bool first_line = true;
  int emitted = 0;
  for (size_t r = 0; r < truth.NumRows(); ++r) {
    const Tuple& row = truth.row(r);
    std::string row_label = intent.sql + "#" + std::to_string(r);
    if (Draw("qa-keep", row_label, intent.chain_of_thought ? "cot" : "qa") >=
        keep_p) {
      continue;
    }
    std::vector<std::string> cells;
    for (size_t c = 0; c < row.size(); ++c) {
      const Value& v = row[c];
      bool numeric_cell = IsNumeric(v.type());
      bool agg_cell =
          has_aggregate && numeric_cell &&
          c >= (stmt.group_by.empty() ? 0 : stmt.group_by.size());
      if (agg_cell) {
        // One-shot aggregates: LLMs "fail short with complex operations to
        // combine intermediate values, such as aggregates".
        if (Draw("qa-agg", row_label, std::to_string(c)) < agg_acc) {
          cells.push_back(v.ToString());
        } else {
          double d = v.AsDouble().value_or(0.0);
          double mag = 0.1 + 0.5 * Draw("qa-agg-mag", row_label,
                                        std::to_string(c));
          double sign =
              Draw("qa-agg-sign", row_label, std::to_string(c)) < 0.5
                  ? -1.0
                  : 1.0;
          double wrong = d * (1.0 + sign * mag);
          if (v.type() == DataType::kInt64) {
            cells.push_back(
                std::to_string(static_cast<int64_t>(std::llround(wrong))));
          } else {
            cells.push_back(Value::Double(wrong).ToString());
          }
        }
      } else if (numeric_cell || v.type() == DataType::kDate) {
        // Plain value with the model's usual fact noise and formatting.
        if (Draw("qa-fact", row_label, std::to_string(c)) <
            profile_.fact_accuracy) {
          cells.push_back(RenderValue("", "", v, row_label));
        } else {
          double d = v.AsDouble().value_or(
              static_cast<double>(v.type() == DataType::kDate
                                      ? v.date_packed()
                                      : 0));
          double wrong = d * (1.0 + 0.2);
          cells.push_back(Value::Double(wrong).ToString());
        }
      } else {
        cells.push_back(v.ToString());
      }
    }
    if (!first_line) body << "\n";
    first_line = false;
    body << "- " << Join(cells, ": ");
    ++emitted;
  }
  std::string answer = emitted == 0 ? "Unknown" : body.str();
  if (intent.chain_of_thought) {
    return Completion{
        "Step 1: identify the relevant entities. Step 2: retrieve the "
        "requested properties. Step 3: combine the results.\nFinal "
        "answer:\n" +
        answer};
  }
  return Completion{answer};
}

}  // namespace galois::llm

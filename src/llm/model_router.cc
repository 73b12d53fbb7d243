#include "llm/model_router.h"

#include <algorithm>
#include <set>

namespace galois::llm {

namespace {

const std::string kKeyScan = "key-scan";
const std::string kFilterCheck = "filter-check";
const std::string kAttribute = "attribute";
const std::string kVerify = "verify";
const std::string kFreeform = "freeform";

}  // namespace

const std::string& PhaseOfIntent(const PromptIntent& intent) {
  if (std::holds_alternative<KeyScanIntent>(intent)) return kKeyScan;
  if (std::holds_alternative<FilterCheckIntent>(intent)) return kFilterCheck;
  if (std::holds_alternative<AttributeGetIntent>(intent)) return kAttribute;
  if (std::holds_alternative<VerifyIntent>(intent)) return kVerify;
  return kFreeform;
}

const std::vector<std::string>& RoutablePhases() {
  static const std::vector<std::string>* kPhases = new std::vector<std::string>{
      kKeyScan, kFilterCheck, kAttribute, kVerify, kFreeform};
  return *kPhases;
}

ModelRouter::ModelRouter() : name_("router()") {}

Status ModelRouter::AddBackend(const std::string& backend,
                               LanguageModel* model) {
  if (backend.empty() || model == nullptr) {
    return Status::InvalidArgument("router: backend needs a name and a model");
  }
  const bool backend_thread_safe = model->thread_safe();
  std::lock_guard<std::mutex> lock(mu_);
  for (const Backend& b : backends_) {
    if (b.backend_name == backend) {
      return Status::AlreadyExists("router: backend '" + backend +
                                   "' already registered");
    }
  }
  backends_.push_back(Backend{backend, model});
  thread_safe_ = thread_safe_ && backend_thread_safe;
  if (backends_.size() == 1) default_index_ = 0;
  name_ = "router(" + backends_[default_index_].backend_name + ")";
  return Status::OK();
}

Status ModelRouter::SetDefaultBackend(const std::string& backend) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i].backend_name == backend) {
      default_index_ = i;
      name_ = "router(" + backend + ")";
      return Status::OK();
    }
  }
  return Status::NotFound("router: no backend named '" + backend + "'");
}

Status ModelRouter::SetRoute(const std::string& phase,
                             const std::string& backend) {
  // "critic" reads naturally for the verification phase; accept it as an
  // alias of the scheduler's "verify" label.
  const std::string canonical = phase == "critic" ? kVerify : phase;
  const std::vector<std::string>& phases = RoutablePhases();
  if (std::find(phases.begin(), phases.end(), canonical) == phases.end()) {
    return Status::InvalidArgument(
        "router: unknown phase '" + phase +
        "' (expected key-scan, filter-check, attribute, verify/critic or "
        "freeform)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i].backend_name == backend) {
      routes_[canonical] = i;
      return Status::OK();
    }
  }
  return Status::NotFound("router: no backend named '" + backend + "'");
}

Status ModelRouter::ConfigureRoutes(
    const std::map<std::string, std::string>& routes) {
  std::map<std::string, size_t> saved;
  {
    std::lock_guard<std::mutex> lock(mu_);
    saved = routes_;
    routes_.clear();
  }
  for (const auto& [phase, backend] : routes) {
    Status s = SetRoute(phase, backend);
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      routes_ = std::move(saved);
      return s;
    }
  }
  return Status::OK();
}

std::map<std::string, std::string> ModelRouter::routes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::string> out;
  for (const auto& [phase, index] : routes_) {
    out[phase] = backends_[index].backend_name;
  }
  return out;
}

LanguageModel* ModelRouter::BackendForLocked(
    const PromptIntent& intent) const {
  if (backends_.empty()) return nullptr;
  auto it = routes_.find(PhaseOfIntent(intent));
  if (it != routes_.end()) return backends_[it->second].model;
  return backends_[default_index_].model;
}

LanguageModel* ModelRouter::BackendFor(const PromptIntent& intent) const {
  std::lock_guard<std::mutex> lock(mu_);
  return BackendForLocked(intent);
}

const std::string& ModelRouter::name() const {
  // No lock: the returned reference would outlive it anyway. name()
  // follows the same contract as the routing table — configure the
  // router (AddBackend/SetDefaultBackend) before issuing traffic, not
  // concurrently with it; only then is the reference stable.
  return name_;
}

bool ModelRouter::thread_safe() const {
  std::lock_guard<std::mutex> lock(mu_);
  return thread_safe_;
}

Result<Completion> ModelRouter::CompleteMetered(const Prompt& prompt,
                                                CostMeter* usage) {
  LanguageModel* backend = BackendFor(prompt.intent);
  if (backend == nullptr) {
    return Status::LlmError("router: no backends registered");
  }
  return backend->CompleteMetered(prompt, usage);
}

Result<std::vector<Completion>> ModelRouter::CompleteBatchMetered(
    const std::vector<Prompt>& prompts, CostMeter* usage) {
  if (prompts.empty()) return std::vector<Completion>{};
  // Partition by target backend, preserving input positions. Executor
  // phases are intent-homogeneous, so the common case is one group and
  // the partition cost is a single pass.
  std::vector<LanguageModel*> target(prompts.size(), nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < prompts.size(); ++i) {
      target[i] = BackendForLocked(prompts[i].intent);
      if (target[i] == nullptr) {
        return Status::LlmError("router: no backends registered");
      }
    }
  }
  // Fast path: a homogeneous batch (the executor's phases always are)
  // forwards without copying a single prompt.
  bool homogeneous = true;
  for (size_t i = 1; i < prompts.size(); ++i) {
    if (target[i] != target[0]) {
      homogeneous = false;
      break;
    }
  }
  if (homogeneous) return target[0]->CompleteBatchMetered(prompts, usage);

  std::vector<Completion> out(prompts.size());
  std::vector<LanguageModel*> done;  // backends already dispatched
  CostMeter billed;  // reported only once every backend has answered
  for (size_t i = 0; i < prompts.size(); ++i) {
    LanguageModel* backend = target[i];
    if (std::find(done.begin(), done.end(), backend) != done.end()) continue;
    done.push_back(backend);
    std::vector<size_t> positions;
    std::vector<Prompt> group;
    for (size_t j = i; j < prompts.size(); ++j) {
      if (target[j] == backend) {
        positions.push_back(j);
        group.push_back(prompts[j]);
      }
    }
    // One inner round trip per backend involved. On failure the whole
    // batch fails — completions filled for an earlier backend are
    // discarded with `out`, never returned partially, and the usage an
    // earlier backend reported is discarded with `billed`.
    GALOIS_ASSIGN_OR_RETURN(std::vector<Completion> group_out,
                            backend->CompleteBatchMetered(group, &billed));
    for (size_t k = 0; k < positions.size(); ++k) {
      out[positions[k]] = std::move(group_out[k]);
    }
  }
  if (usage != nullptr) *usage += billed;
  return out;
}

CostMeter ModelRouter::cost() const {
  std::vector<Backend> backends;
  {
    std::lock_guard<std::mutex> lock(mu_);
    backends = backends_;
  }
  CostMeter total;
  std::set<const LanguageModel*> seen;  // aliases share one meter
  for (const Backend& b : backends) {
    if (!seen.insert(b.model).second) continue;
    CostMeter c = b.model->cost();
    // A custom backend that does not fill its own slice still gets
    // attributed, under its display name.
    if (c.by_model.empty()) c.FillSelfSlice(b.model->name());
    total += c;
  }
  return total;
}

void ModelRouter::ResetCost() {
  std::vector<Backend> backends;
  {
    std::lock_guard<std::mutex> lock(mu_);
    backends = backends_;
  }
  std::set<LanguageModel*> seen;
  for (const Backend& b : backends) {
    if (seen.insert(b.model).second) b.model->ResetCost();
  }
}

}  // namespace galois::llm

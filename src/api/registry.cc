#include "api/registry.h"

#include <cctype>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace operb::api {

namespace {

/// Folding for name lookup: lowercase, '-' and '_' identified.
std::string FoldName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += c == '_' ? '-'
                    : static_cast<char>(
                          std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

AlgorithmRegistry& AlgorithmRegistry::Global() {
  static AlgorithmRegistry* const registry = [] {
    auto* r = new AlgorithmRegistry();
    RegisterBuiltinAlgorithms(*r);
    return r;
  }();
  return *registry;
}

Status AlgorithmRegistry::Register(Entry entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("algorithm name must not be empty");
  }
  if (!entry.streaming) {
    return Status::InvalidArgument("algorithm '" + entry.name +
                                   "' must provide a streaming factory");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string folded = FoldName(entry.name);
  for (const auto& existing : entries_) {
    if (FoldName(existing->name) == folded) {
      return Status::InvalidArgument("algorithm '" + entry.name +
                                     "' is already registered (as '" +
                                     existing->name + "')");
    }
  }
  entries_.push_back(std::make_unique<Entry>(std::move(entry)));
  return Status::OK();
}

const AlgorithmRegistry::Entry* AlgorithmRegistry::Find(
    std::string_view name) const {
  const std::string folded = FoldName(name);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    if (FoldName(entry->name) == folded) return entry.get();
  }
  return nullptr;
}

std::vector<std::string> AlgorithmRegistry::Names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& entry : entries_) names.push_back(entry->name);
  return names;
}

Status AlgorithmRegistry::Validate(const SimplifierSpec& spec) const {
  const Entry* entry = Find(spec.algorithm);
  if (entry == nullptr) {
    std::string known;
    for (const std::string& name : Names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return Status::NotFound("unknown algorithm '" + spec.algorithm +
                            "' (registered: " + known + ")");
  }
  if (!(spec.zeta > 0.0) || !std::isfinite(spec.zeta)) {
    return Status::InvalidArgument(
        "zeta must be positive and finite, got " + std::to_string(spec.zeta));
  }
  for (const auto& [key, value] : spec.options) {
    bool known_key = false;
    for (const std::string& accepted : entry->option_keys) {
      if (key == accepted) {
        known_key = true;
        break;
      }
    }
    if (!known_key) {
      std::string accepted_list;
      for (const std::string& accepted : entry->option_keys) {
        if (!accepted_list.empty()) accepted_list += ", ";
        accepted_list += accepted;
      }
      return Status::InvalidArgument(
          "algorithm '" + entry->name + "' does not accept option '" + key +
          "'" +
          (accepted_list.empty() ? " (it has no algorithm-specific options)"
                                 : " (accepted: " + accepted_list + ")"));
    }
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("option '" + key + "' must be finite");
    }
  }
  if (entry->validate_options) {
    OPERB_RETURN_IF_ERROR(entry->validate_options(spec));
  }
  return Status::OK();
}

Result<std::unique_ptr<baselines::StreamingSimplifier>>
AlgorithmRegistry::MakeStreaming(const SimplifierSpec& spec) const {
  OPERB_RETURN_IF_ERROR(Validate(spec));
  const Entry* entry = Find(spec.algorithm);
  std::unique_ptr<baselines::StreamingSimplifier> made =
      entry->streaming(spec);
  // A registered factory returning null on a validated spec is a broken
  // registration, not bad input.
  OPERB_CHECK_MSG(made != nullptr, "streaming factory returned null");
  return made;
}

Result<std::unique_ptr<baselines::StreamingSimplifier>>
AlgorithmRegistry::MakeStreaming(std::string_view spec_string) const {
  OPERB_ASSIGN_OR_RETURN(const SimplifierSpec spec,
                         SimplifierSpec::Parse(spec_string));
  return MakeStreaming(spec);
}

}  // namespace operb::api

#ifndef OPERB_API_REGISTRY_H_
#define OPERB_API_REGISTRY_H_

/// \file
/// String-keyed catalog of every simplification algorithm the library
/// can construct — the only way to build a simplifier.

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/spec.h"
#include "baselines/streaming.h"
#include "common/result.h"
#include "common/status.h"

namespace operb::api {

/// String-keyed catalog of every simplification algorithm the library can
/// construct — the single construction surface behind the Pipeline
/// facade, engine::StreamEngine, operb_cli, operb_server, the benches and
/// the tests.
///
/// Each entry owns one factory, which builds a resettable
/// baselines::StreamingSimplifier from a SimplifierSpec. A
/// whole-trajectory run is that product fed one span
/// (baselines::SimplifyAll); the golden suite pins its output.
///
/// Lookup is case-insensitive and treats '-' and '_' as the same
/// character, so "operb-a", "OPERB_A" and the canonical "OPERB-A" all
/// resolve to one entry.
///
/// Error-handling contract (the library-wide boundary rule, DESIGN.md §7):
/// every method taking a spec returns Status/Result — unknown names,
/// out-of-range zeta and unknown option keys are InvalidArgument /
/// NotFound, never a CHECK abort. CHECKs remain for internal invariants
/// only (e.g. a factory invoked with a spec that was already validated).
///
/// The 10 built-in algorithms are registered on first use of Global()
/// (explicit registration, not static initializers: these modules are
/// static libraries, and a registration object in an otherwise
/// unreferenced translation unit is dropped by the linker — the classic
/// self-registration trap). Additional algorithms can be registered at
/// runtime via Register(); registration is append-only and thread-safe.
class AlgorithmRegistry {
 public:
  using StreamingFactory =
      std::function<std::unique_ptr<baselines::StreamingSimplifier>(
          const SimplifierSpec&)>;
  /// Semantic check of the algorithm-specific options (ranges, cross-field
  /// rules). Runs after the generic checks (known keys, finite numbers).
  using OptionValidator = std::function<Status(const SimplifierSpec&)>;

  struct Entry {
    /// Canonical name, unique under the case/'-'/'_' folding ("OPERB-A").
    std::string name;
    /// One-line description for --help / docs.
    std::string summary;
    /// Algorithm-specific option keys accepted in a spec (beyond the
    /// universal zeta/fidelity). Anything else is InvalidArgument.
    std::vector<std::string> option_keys;
    StreamingFactory streaming;
    /// Optional extra validation; may be empty.
    OptionValidator validate_options;
  };

  /// An empty registry. Most callers want Global(); a private instance is
  /// useful for tests and for embedding with a restricted algorithm set.
  AlgorithmRegistry() = default;
  AlgorithmRegistry(const AlgorithmRegistry&) = delete;
  AlgorithmRegistry& operator=(const AlgorithmRegistry&) = delete;

  /// The process-wide registry, with the built-in algorithms registered.
  static AlgorithmRegistry& Global();

  /// Adds an algorithm. InvalidArgument on an empty name or a missing
  /// factory; AlreadyExists-like Corruption is not used — a duplicate
  /// (after folding) is InvalidArgument.
  Status Register(Entry entry);

  /// Folded lookup; nullptr when unknown. The pointer stays valid for the
  /// registry's lifetime (append-only storage).
  const Entry* Find(std::string_view name) const;

  /// Canonical names in registration order (the paper's figure order for
  /// the built-ins).
  std::vector<std::string> Names() const;

  /// Full semantic validation of `spec` against its entry: known
  /// algorithm, positive finite zeta, accepted option keys, option
  /// ranges.
  Status Validate(const SimplifierSpec& spec) const;

  /// Constructs the simplifier described by `spec`. Validates first.
  Result<std::unique_ptr<baselines::StreamingSimplifier>> MakeStreaming(
      const SimplifierSpec& spec) const;

  /// Convenience: Parse + MakeStreaming in one step, for callers holding
  /// a spec string ("operb:zeta=5,fidelity=paper").
  Result<std::unique_ptr<baselines::StreamingSimplifier>> MakeStreaming(
      std::string_view spec_string) const;

 private:
  mutable std::mutex mu_;
  /// unique_ptr elements so Find()'s pointers survive vector growth.
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Registers the library's 10 built-in algorithms (implemented in
/// src/api/register_algorithms.cc, one registration block per algorithm
/// family). Called by Global(); exposed so tests can populate a private
/// registry.
void RegisterBuiltinAlgorithms(AlgorithmRegistry& registry);

}  // namespace operb::api

#endif  // OPERB_API_REGISTRY_H_

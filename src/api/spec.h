#ifndef OPERB_API_SPEC_H_
#define OPERB_API_SPEC_H_

/// \file
/// Declarative simplifier configuration: the SimplifierSpec value type
/// and its ALGORITHM[:key=value,...] string grammar.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/streaming.h"
#include "common/result.h"
#include "common/status.h"

namespace operb::api {

/// Declarative description of one configured simplifier — the value type
/// every construction path in this library accepts (the registry, the
/// Pipeline facade, engine::StreamEngineOptions, operb_cli --spec).
///
/// A spec is cheap to copy, comparable, and serializes to a one-line
/// string:
///
///   ALGORITHM[:key=value[,key=value...]]
///
/// where ALGORITHM is any registered algorithm name, matched
/// case-insensitively with '-' and '_' interchangeable ("operb-a",
/// "OPERB_A" and "OPERB-A" are the same algorithm). Two keys are
/// universal:
///
///   zeta=METERS        error bound, > 0 and finite   (default 40)
///   fidelity=MODE      guarded | paper               (default guarded;
///                      ignored by the non-OPERB algorithms)
///
/// every other key is algorithm-specific and validated against the
/// registry entry's published option list (see AlgorithmRegistry). The
/// values are plain decimal numbers with '.' as the separator — a ','
/// inside a number is a spec-list separator, so "zeta=2,5" is rejected
/// with a hint rather than silently truncated (the failure mode of
/// locale-dependent parsers this library's ingest already guards
/// against).
///
/// Error handling contract: Parse() and Validate() return Status — a
/// malformed or out-of-range spec from an untrusted caller (CLI flag,
/// config file, RPC) is an InvalidArgument, never a CHECK abort.
struct SimplifierSpec {
  /// Algorithm name as written (canonicalized by ToString()/the registry).
  std::string algorithm = "OPERB";

  /// Error bound zeta in meters; must be positive and finite.
  double zeta = 40.0;

  /// How the OPERB family treats the heuristic optimizations' bound (see
  /// baselines::OperbFidelity); ignored by the other algorithms.
  baselines::OperbFidelity fidelity = baselines::OperbFidelity::kGuarded;

  /// Algorithm-specific numeric options in parse order, e.g.
  /// {"step_length", 0.4}. Keys are validated by the registry.
  std::vector<std::pair<std::string, double>> options;

  /// Parses the grammar above. Purely syntactic: the algorithm name and
  /// option keys are checked by Validate() against the registry, so a
  /// spec for a not-yet-registered algorithm still parses.
  static Result<SimplifierSpec> Parse(std::string_view text);

  /// Full semantic validation: known algorithm, positive finite zeta,
  /// option keys accepted by that algorithm, option values in range.
  /// Delegates to AlgorithmRegistry::Global().
  Status Validate() const;

  /// Canonical one-line form, parseable by Parse(). Uses the registry's
  /// canonical capitalization when the algorithm is known; zeta is always
  /// spelled out, fidelity only when non-default, options in stored
  /// order. Numbers use shortest round-trip formatting.
  std::string ToString() const;

  /// Value of an algorithm-specific option, or `fallback` when unset.
  double Option(std::string_view key, double fallback) const;
  bool HasOption(std::string_view key) const;

  bool operator==(const SimplifierSpec&) const = default;
};

}  // namespace operb::api

#endif  // OPERB_API_SPEC_H_

#ifndef OPERB_OBS_SNAPSHOT_H_
#define OPERB_OBS_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"

/// Snapshot exporter: renders the registry as human text or a versioned
/// JSON document, and writes the JSON with the manifest's
/// temp-file+rename discipline so a reader never observes a torn
/// snapshot.
///
/// Consistency caveat (DESIGN.md §10): a snapshot reads each instrument
/// atomically but does not stop the writers, so two instruments in one
/// snapshot may disagree by in-flight work (e.g. `points_routed` can be
/// momentarily ahead of `segments_appended`). Monotone counters never
/// go backwards across snapshots.

namespace operb::obs {

/// Bumped whenever the JSON layout changes shape (v2 dropped v1's
/// "trace" block).
inline constexpr int kSnapshotSchemaVersion = 2;
inline constexpr std::string_view kSnapshotSchemaName =
    "operb-metrics-snapshot";

/// What to render. A null registry defaults to the process-wide one.
struct SnapshotOptions {
  const MetricsRegistry* registry = nullptr;
};

/// Human-readable dump, one instrument per line, sorted by name.
std::string RenderSnapshotText(const SnapshotOptions& options = {});

/// Versioned JSON document (sorted names, stable layout):
///   {"schema": "operb-metrics-snapshot", "schema_version": 2,
///    "counters": {...}, "gauges": {...}, "max_gauges": {...},
///    "histograms": {name: {"count": N, "sum": N, "buckets": [...]}}}
std::string RenderSnapshotJson(const SnapshotOptions& options = {});

/// Writes `content` to `path` atomically: `path.tmp` then rename. Used
/// as the default writer below; layers that own a store::Env route
/// through it instead via the `write` parameter (that is how the fault
/// matrix injects snapshot failures without obs depending on store).
using AtomicWriteFn =
    std::function<Status(const std::string& path, std::string_view content)>;

/// The stdio implementation of AtomicWriteFn.
Status AtomicWriteFile(const std::string& path, std::string_view content);

/// Renders the JSON snapshot and writes it via `write` (stdio temp-file
/// +rename when empty). Never throws; failures come back as Status.
Status WriteSnapshotJson(const std::string& path,
                         const SnapshotOptions& options = {},
                         const AtomicWriteFn& write = {});

/// A snapshot JSON document parsed back into values — the round-trip
/// counterpart of RenderSnapshotJson, used by tests and by tooling that
/// wants the numbers without a JSON library.
struct ParsedSnapshot {
  struct Histogram {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buckets;
  };

  std::string schema;
  int schema_version = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, std::int64_t> max_gauges;
  std::map<std::string, Histogram> histograms;
};

/// Parses a RenderSnapshotJson document. Tolerates arbitrary
/// whitespace; rejects unknown top-level keys, wrong schema names and
/// malformed JSON with kCorruption.
Result<ParsedSnapshot> ParseSnapshotJson(std::string_view json);

}  // namespace operb::obs

#endif  // OPERB_OBS_SNAPSHOT_H_

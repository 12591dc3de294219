// operb_cli: end-to-end command-line driver for the library, built on the
// public api:: facade (SimplifierSpec + AlgorithmRegistry + Pipeline).
//
// A run is one of five modes. The default simplifies one trajectory (plain
// x,y,t CSV, GeoLife .plt or a synthetic dataset profile) with any
// registered algorithm, verifies the error bound independently and prints
// compression / timing / error statistics. --group-by-id does the same for
// an interleaved multi-object stream through the sharded StreamEngine;
// --store-out persists either result as a sharded store, which --query
// serves and --compact rewrites; --connect talks to a running operb_server.
//
// Every flag is one row of the table in CliFlags(), which also prints
// --help and names the modes each flag is legal in. The simplifier is a
// one-line spec string (README.md "Public API"); --algorithm, --zeta and
// --fidelity edit it in place. Bad input is a one-line usage error, never
// an abort.
//
// Examples:
//   operb_cli --input drive.csv --spec OPERB-A:zeta=30 --output out.csv
//   operb_cli --group-by-id --input fleet.csv --threads 4 --store-out f.store
//   operb_cli --query f.store --window 1000,2000,4000,5000
//
// Exit codes: 0 success (bound verified or --no-verify), 1 bound violation
// (or: --at time not covered by the store), 2 usage error, 3 I/O error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "api/pipeline.h"
#include "api/registry.h"
#include "api/spec.h"
#include "api/store_query.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "engine/stream_engine.h"
#include "eval/metrics.h"
#include "flag_table.h"
#include "obs/snapshot.h"
#include "server/client.h"
#include "store/compactor.h"
#include "store/writer.h"
#include "traj/cleaner.h"
#include "traj/io.h"
#include "traj/multi_object.h"
#include "traj/trajectory.h"

namespace {

using namespace operb;  // NOLINT: single-file tool

constexpr int kExitOk = 0;
constexpr int kExitBoundViolation = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

/// The five mutually exclusive modes; a run selects at most one with its
/// mode flag, single-trajectory being the default.
enum Mode : unsigned { kSingle, kGroup, kQuery, kCompact, kConnect };

// Flag::modes masks shared by several rows.
constexpr unsigned kSimplifyModes =
    tools::ModeBit(kSingle) | tools::ModeBit(kGroup);
constexpr unsigned kIngestModes = kSimplifyModes | tools::ModeBit(kConnect);
constexpr unsigned kQueryShapeModes =
    tools::ModeBit(kQuery) | tools::ModeBit(kConnect);
constexpr unsigned kAnswerModes = kSimplifyModes | kQueryShapeModes;

struct CliOptions {
  Mode mode = kSingle;

  // Input: at most one of csv_path / plt_path / generate_spec.
  std::string csv_path;
  std::string plt_path;
  std::string generate_spec;  ///< KIND[:POINTS[:SEED]]

  api::SimplifierSpec spec;  ///< edited by --spec/--algorithm/--zeta/--fidelity

  // Engine knobs (--group-by-id; --objects also feeds --connect).
  std::uint64_t threads = 1;
  std::uint64_t shards = 0;   ///< 0 = auto (4 * threads)
  std::uint64_t objects = 8;  ///< synthetic object count for --generate

  std::string output_path;      ///< representation CSV (optional)
  std::string save_input_path;  ///< write the input trajectory as CSV
  std::string store_out_path;   ///< write a queryable segment store
  std::uint64_t store_shards = 1;  ///< shard count for --store-out

  // Engine checkpoint/restore.
  std::string checkpoint_out_path;   ///< snapshot engine state here
  std::uint64_t checkpoint_every = 0;  ///< 0 = once, after the last update
  std::string resume_path;           ///< restore engine state from here

  std::string metrics_out_path;     ///< write a registry snapshot here
  std::uint64_t metrics_every = 0;  ///< 0 = once, after the run
  bool clean = false;           ///< repair raw streams before simplifying
  bool verify = true;

  /// --query PATH and the query-shape flags (also used by --connect);
  /// validated by api::StoreQuery.
  api::StoreQuery query;
  std::string compact_path;  ///< --compact PATH

  // --connect HOST:PORT and its companions.
  std::string connect_spec;
  bool finish_objects = false;      ///< FINISH every ingested object
  bool server_stats = false;        ///< print the daemon's STATS reply
  bool server_shutdown = false;     ///< ask the daemon to stop
  bool server_seal = false;         ///< force a seal now
  std::string server_checkpoint_path;  ///< server-side engine checkpoint
  std::string server_metrics_path;     ///< server-side metrics snapshot
};

/// Every operb_cli flag, one row each, in --help order. The handlers
/// write straight into `o`, which must outlive the table.
tools::FlagTable CliFlags(CliOptions* o) {
  using namespace tools;  // NOLINT: the row vocabulary

  std::string kinds;
  for (datagen::DatasetKind kind : datagen::AllDatasetKinds()) {
    kinds += kinds.empty() ? "" : " | ";
    kinds += datagen::DatasetName(kind);
  }
  std::string algorithms;
  for (const std::string& name : api::AlgorithmRegistry::Global().Names()) {
    algorithms += algorithms.empty() ? "" : " | ";
    algorithms += name;
  }
  const auto fidelity = [o](const char* value) -> std::string {
    const std::string_view mode = value;
    if (mode == "guarded") {
      o->spec.fidelity = baselines::OperbFidelity::kGuarded;
    } else if (mode == "paper") {
      o->spec.fidelity = baselines::OperbFidelity::kPaperFaithful;
    } else {
      return "must be 'guarded' or 'paper', got '" + std::string(mode) + "'";
    }
    return {};
  };
  constexpr std::string_view kIn =
      "Input (choose one; default --generate SerCar:2000:1):";
  constexpr std::string_view kSimp =
      "Simplification (see README.md \"Public API\" for the spec grammar):";
  constexpr std::string_view kEng = "Multi-object engine:";
  constexpr std::string_view kStore = "Store:";
  constexpr std::string_view kQry = "Store queries:";
  constexpr std::string_view kOut = "Output:";
  constexpr std::string_view kObs =
      "Observability (see DESIGN.md \"Metrics and snapshots\"):";
  constexpr std::string_view kCli =
      "Server client (speaks to a running operb_server):";

  // The integer ceilings catch typos: a wrapped or absurd count fails as a
  // usage error, not as a massive allocation or thread spawn (every shard
  // owns a pre-sized ring; every thread is a real std::thread).
  // --store-shards matches StoreWriterOptions::Validate().
  std::vector<Flag> rows = {
      {kIn, "--input", "PATH", kIngestModes, StringValue(&o->csv_path),
       "plain CSV trajectory: x,y,t rows in projected meters (id,t,x,y rows "
       "with --group-by-id or --connect)"},
      {kIn, "--plt", "PATH", ModeBit(kSingle), StringValue(&o->plt_path),
       "GeoLife .plt trajectory (lat/lon, projected to local meters)"},
      {kIn, "--generate", "SPEC", kIngestModes, StringValue(&o->generate_spec),
       "synthetic profile KIND[:POINTS[:SEED]], KIND one of " + kinds},
      {kSimp, "--spec", "SPEC", kSimplifyModes, SpecValue(&o->spec),
       "ALGORITHM[:key=value,...], e.g. 'operb-a:zeta=30' or "
       "'OPERB:zeta=5,fidelity=paper' (default OPERB:zeta=40)"},
      {kSimp, "--algorithm", "NAME", kSimplifyModes,
       StringValue(&o->spec.algorithm),
       "shorthand: sets the spec's algorithm. Registered: " + algorithms},
      {kSimp, "--zeta", "METERS", kSimplifyModes, FiniteValue(&o->spec.zeta),
       "shorthand: sets the spec's error bound (> 0)"},
      {kSimp, "--fidelity", "MODE", kSimplifyModes, fidelity,
       "shorthand: guarded | paper — how the OPERB family treats the "
       "heuristic optimizations' bound (see DESIGN.md)"},
      {kEng, "--group-by-id", "", ModeBit(kGroup), nullptr,
       "treat the input as an interleaved id,t,x,y stream and simplify "
       "every object concurrently (StreamEngine)",
       kGroup},
      {kEng, "--threads", "N", ModeBit(kGroup),
       UnsignedValue(&o->threads, 1, 1024),
       "engine worker threads (default 1)"},
      {kEng, "--shards", "N", ModeBit(kGroup),
       UnsignedValue(&o->shards, 0, 65536),
       "engine state-table shards (default 0 = 4 * threads)"},
      {kEng, "--objects", "K", ModeBit(kGroup) | ModeBit(kConnect),
       UnsignedValue(&o->objects, 1, 10'000'000),
       "with --generate: synthesize K objects, round-robin interleaved "
       "(default 8)"},
      {kEng, "--checkpoint-out", "PATH", ModeBit(kGroup),
       StringValue(&o->checkpoint_out_path),
       "snapshot the engine's complete streaming state to PATH (atomic "
       "temp-file + rename) after the last update"},
      {kEng, "--checkpoint-every", "N", ModeBit(kGroup),
       UnsignedValue(&o->checkpoint_every, 1, 1'000'000'000),
       "rewrite the checkpoint after every N ingested updates (requires "
       "--checkpoint-out)"},
      {kEng, "--resume", "PATH", ModeBit(kGroup), StringValue(&o->resume_path),
       "restore the engine from a checkpoint (same spec and shards) and "
       "feed it the stream's remainder; emits bit-identically the "
       "uninterrupted run's tail. Implies --no-verify; excludes --clean and "
       "--store-out"},
      {kStore, "--store-out", "PATH", kSimplifyModes,
       StringValue(&o->store_out_path),
       "additionally persist the simplified segments into a sharded "
       "queryable store directory (single-trajectory input is object 0)"},
      {kStore, "--store-shards", "N", kSimplifyModes,
       UnsignedValue(&o->store_shards, 1, 65536),
       "partition the store into N shards by object-id hash (default 1; "
       "requires --store-out)"},
      {kStore, "--compact", "PATH", ModeBit(kCompact),
       StringValue(&o->compact_path),
       "merge each shard's segment files into dense id-ordered blocks (one "
       "manifest generation per shard); takes no other flag",
       kCompact},
      {kQry, "--query", "PATH", ModeBit(kQuery),
       StringValue(&o->query.store_path),
       "serve an existing store instead of simplifying", kQuery},
      {kQry, "--object", "ID", kQueryShapeModes,
       Marking(&o->query.has_object,
               UnsignedValue(&o->query.object_id, 0, ~0ull)),
       "reconstruct one object's segments"},
      {kQry, "--from", "T", kQueryShapeModes, FiniteValue(&o->query.t_min),
       "restrict to times >= T (seconds)"},
      {kQry, "--to", "T", kQueryShapeModes, FiniteValue(&o->query.t_max),
       "restrict to times <= T (seconds)"},
      {kQry, "--at", "T", kQueryShapeModes,
       Marking(&o->query.has_at, FiniteValue(&o->query.at_time)),
       "with --object: interpolated position at time T"},
      {kQry, "--window", "X0,Y0,X1,Y1", kQueryShapeModes,
       Marking(&o->query.has_window, BoxValue(&o->query.window)),
       "spatio-temporal window query (meters; the window is inflated by the "
       "store's zeta so no original sample inside it can be missed)"},
      {kQry, "--flat-scan", "", kQueryShapeModes,
       SwitchValue(&o->query.use_flat_scan),
       "answer --window with the linear footer scan instead of the R-tree "
       "index (the verify oracle; results are identical)"},
      {kOut, "--output", "PATH", kAnswerModes, StringValue(&o->output_path),
       "write the piecewise representation as CSV (id-tagged segment rows "
       "outside single-trajectory mode)"},
      {kOut, "--save-input", "PATH", kSimplifyModes,
       StringValue(&o->save_input_path),
       "write the (parsed or generated) input trajectory as CSV"},
      {kOut, "--clean", "", kSimplifyModes, SwitchValue(&o->clean),
       "repair raw streams before simplifying (drop duplicate and "
       "out-of-order samples; per object with --group-by-id)"},
      {kOut, "--no-verify", "", kSimplifyModes, SwitchValue(&o->verify, false),
       "skip the independent error-bound check"},
      {kObs, "--metrics-out", "PATH", kAnswerModes,
       StringValue(&o->metrics_out_path),
       "export a metrics snapshot (every registry instrument, versioned "
       "JSON, atomic temp-file + rename) to PATH after the run"},
      {kObs, "--metrics-every", "N", ModeBit(kGroup),
       UnsignedValue(&o->metrics_every, 1, 1'000'000'000),
       "also rewrite the snapshot after every N ingested updates (requires "
       "--metrics-out; a failed periodic write is logged, never fatal)"},
      {kCli, "--connect", "HOST:PORT", ModeBit(kConnect),
       StringValue(&o->connect_spec),
       "talk to a daemon: --input/--generate ingest over the connection, the "
       "query flags ask it (sealed store merged with in-flight tails)",
       kConnect},
      {kCli, "--finish-objects", "", ModeBit(kConnect),
       SwitchValue(&o->finish_objects),
       "declare end-of-stream for every ingested object"},
      {kCli, "--server-seal", "", ModeBit(kConnect),
       SwitchValue(&o->server_seal),
       "force the daemon to seal the overlay to its store"},
      {kCli, "--server-checkpoint", "PATH", ModeBit(kConnect),
       StringValue(&o->server_checkpoint_path),
       "daemon writes an engine checkpoint to PATH"},
      {kCli, "--server-metrics", "PATH", ModeBit(kConnect),
       StringValue(&o->server_metrics_path),
       "daemon writes a metrics snapshot to PATH"},
      {kCli, "--stats", "", ModeBit(kConnect), SwitchValue(&o->server_stats),
       "print the daemon's counters"},
      {kCli, "--shutdown", "", ModeBit(kConnect),
       SwitchValue(&o->server_shutdown), "ask the daemon to stop gracefully"},
  };
  return FlagTable("operb_cli",
                   {"single-trajectory", "--group-by-id", "--query",
                    "--compact", "--connect"},
                   std::move(rows));
}

/// The rules that span several flags; the table already enforced each
/// flag's value and mode. Fills in the defaults the mode implies.
bool CheckFlagRules(const tools::FlagTable& flags, CliOptions* o) {
  o->mode = static_cast<Mode>(flags.mode());
  if (flags.Seen("--store-shards") && o->store_out_path.empty()) {
    return flags.Reject("--store-shards requires --store-out PATH");
  }
  if (flags.Seen("--checkpoint-every") && o->checkpoint_out_path.empty()) {
    return flags.Reject("--checkpoint-every requires --checkpoint-out PATH");
  }
  if (flags.Seen("--metrics-every") && o->metrics_out_path.empty()) {
    return flags.Reject("--metrics-every requires --metrics-out PATH");
  }
  if (!o->resume_path.empty()) {
    if (o->clean || !o->store_out_path.empty()) {
      return flags.Reject(
          "--resume feeds the engine a stream tail and cannot be combined "
          "with --clean or --store-out (both need the full original "
          "stream)");
    }
    // Verification needs the full original stream too; a resumed run
    // only has the tail, so the check is skipped rather than mis-run.
    o->verify = false;
  }
  const int inputs = (o->csv_path.empty() ? 0 : 1) +
                     (o->plt_path.empty() ? 0 : 1) +
                     (o->generate_spec.empty() ? 0 : 1);
  if (inputs > 1) {
    return flags.Reject(
        "--input, --plt and --generate are mutually exclusive");
  }
  if (o->mode == kConnect) {
    // Same shape rules api::StoreQuery::Validate enforces offline, so
    // the two paths share one usage contract (and exit code).
    if (o->query.has_at && !o->query.has_object) {
      return flags.Reject("--at needs --object (position-at-time)");
    }
    if (o->query.has_object && o->query.has_window) {
      return flags.Reject(
          "--object and --window are separate queries; issue two");
    }
    if (o->query.t_min > o->query.t_max) {
      return flags.Reject("--from is later than --to");
    }
    if (o->finish_objects && inputs == 0) {
      return flags.Reject(
          "--finish-objects finishes the objects this invocation ingests; "
          "give --input or --generate");
    }
    return true;
  }
  if (o->mode != kSingle && o->mode != kGroup) return true;
  if (inputs == 0) o->generate_spec = "SerCar:2000:1";
  // The boundary validation: unknown algorithms, non-positive zeta and
  // out-of-range algorithm options all surface here as one Status line.
  if (const Status s = o->spec.Validate(); !s.ok()) {
    return flags.Reject(s.ToString());
  }
  return true;
}

/// Synthesizes `count` objects from a --generate KIND[:POINTS[:SEED]]
/// spec, object k seeded with SEED + k. Prints to stderr and returns
/// nullopt on malformed specs.
std::optional<std::vector<traj::ObjectTrajectory>> Generate(
    const std::string& spec, std::uint64_t count) {
  // Generous ceiling so a typo'd point count fails as a usage error
  // instead of a multi-gigabyte allocation; it also caps the total over
  // all objects.
  constexpr std::uint64_t kMaxPoints = 100'000'000;
  std::uint64_t points = 2000;
  std::uint64_t seed = 1;
  const std::size_t colon1 = spec.find(':');
  const std::size_t colon2 = spec.find(':', colon1 + 1);
  if (colon1 != std::string::npos) {
    if (!tools::ParseU64(spec.substr(colon1 + 1, colon2 - colon1 - 1),
                         &points) ||
        points < 2 || points > kMaxPoints) {
      std::fprintf(stderr,
                   "operb_cli: bad point count in --generate '%s' (need "
                   "2..%llu)\n",
                   spec.c_str(), static_cast<unsigned long long>(kMaxPoints));
      return std::nullopt;
    }
    if (colon2 != std::string::npos &&
        !tools::ParseU64(spec.substr(colon2 + 1), &seed)) {
      std::fprintf(stderr, "operb_cli: bad seed in --generate '%s'\n",
                   spec.c_str());
      return std::nullopt;
    }
  }
  const std::string kind_name = spec.substr(0, colon1);
  std::optional<datagen::DatasetKind> kind;
  for (datagen::DatasetKind k : datagen::AllDatasetKinds()) {
    if (kind_name == datagen::DatasetName(k)) kind = k;
  }
  if (!kind) {
    std::fprintf(stderr,
                 "operb_cli: unknown dataset kind '%s' (expected Taxi, "
                 "Truck, SerCar or GeoLife)\n",
                 kind_name.c_str());
    return std::nullopt;
  }
  if (count > kMaxPoints / points) {
    std::fprintf(stderr,
                 "operb_cli: --objects %llu x %llu points exceeds the "
                 "%llu-point generation ceiling\n",
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(points),
                 static_cast<unsigned long long>(kMaxPoints));
    return std::nullopt;
  }
  std::vector<traj::ObjectTrajectory> objects;
  objects.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    datagen::Rng rng(seed + k);
    objects.push_back({k, datagen::GenerateTrajectory(
                              datagen::DatasetProfile::For(*kind), points,
                              &rng)});
  }
  return objects;
}

/// Prints `s` as the one-line diagnostic and returns `exit_code`.
int Fail(const Status& s, int exit_code) {
  std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
  return exit_code;
}

/// The value of `r`, or nullopt after printing its Status.
template <typename T>
std::optional<T> ValueOrPrint(Result<T> r) {
  if (!r.ok()) {
    Fail(r.status(), kExitIo);
    return std::nullopt;
  }
  return std::move(r).value();
}

/// The exit code of a failed LoadInput/LoadUpdates: a file that could not
/// be read is I/O, a bad --generate spec is usage.
int LoadFailureExit(const CliOptions& options) {
  return options.csv_path.empty() && options.plt_path.empty() ? kExitUsage
                                                              : kExitIo;
}

/// Loads or synthesizes the interleaved multi-object update stream.
std::optional<std::vector<traj::ObjectUpdate>> LoadUpdates(
    const CliOptions& options, std::string* source_label) {
  if (!options.csv_path.empty()) {
    *source_label = "multi-object csv " + options.csv_path;
    return ValueOrPrint(traj::ReadMultiObjectCsv(options.csv_path));
  }
  const std::optional<std::vector<traj::ObjectTrajectory>> objects =
      Generate(options.generate_spec, options.objects);
  if (!objects) return std::nullopt;
  *source_label = "generated " + options.generate_spec + " x" +
                  std::to_string(options.objects) + " objects";
  return traj::InterleaveRoundRobin(*objects);
}

/// Loads the input trajectory, or returns nullopt after printing the error.
std::optional<traj::Trajectory> LoadInput(const CliOptions& options,
                                          std::string* source_label) {
  if (!options.csv_path.empty()) {
    *source_label = "csv " + options.csv_path;
    if (!options.clean) return ValueOrPrint(traj::ReadCsv(options.csv_path));
    // Raw parse: the validating reader would reject the duplicate /
    // out-of-order rows the --clean stage exists to repair.
    const std::optional<std::vector<geo::Point>> points =
        ValueOrPrint(traj::ReadCsvPoints(options.csv_path));
    if (!points) return std::nullopt;
    traj::Trajectory raw;
    raw.reserve(points->size());
    for (const geo::Point& p : *points) raw.AppendUnchecked(p);
    return raw;
  }
  if (!options.plt_path.empty()) {
    *source_label = "plt " + options.plt_path;
    return ValueOrPrint(traj::ReadGeoLifePlt(options.plt_path));
  }
  *source_label = "generated " + options.generate_spec;
  std::optional<std::vector<traj::ObjectTrajectory>> generated =
      Generate(options.generate_spec, 1);
  if (!generated) return std::nullopt;
  return std::move(generated->front().trajectory);
}

/// Writes id-tagged segment rows to `path` (if set) and prints the
/// "wrote:" line.
int WriteTaggedCsv(std::span<const traj::TaggedSegment> segments,
                   const std::string& path) {
  if (path.empty()) return kExitOk;
  if (const Status s = traj::WriteTaggedSegmentsCsv(segments, path);
      !s.ok()) {
    return Fail(s, kExitIo);
  }
  std::printf("wrote:     %s\n", path.c_str());
  return kExitOk;
}

/// Writes a query answer; the offline --query and the --connect flows
/// share this one CSV path, which makes their files byte-comparable.
int WriteQueryAnswer(std::span<const traj::TimedSegment> answer,
                     const std::string& path) {
  std::vector<traj::TaggedSegment> tagged;
  tagged.reserve(answer.size());
  for (const traj::TimedSegment& s : answer) {
    tagged.push_back({s.object_id, s.segment});
  }
  return WriteTaggedCsv(tagged, path);
}

/// Prints the Clean-stage summary line of a pipeline report.
void PrintCleanedLine(const api::PipelineReport& report) {
  std::printf("cleaned:   kept %zu of %zu (%zu duplicate, %zu out-of-order)\n",
              report.points_kept, report.points_in,
              report.cleaner.duplicates_dropped,
              report.cleaner.out_of_order_dropped);
}

/// Prints the simplification time of a pipeline report over `points`.
void PrintTimeLine(const api::PipelineReport& report, std::size_t points) {
  const double elapsed_ms = report.simplify_seconds * 1e3;
  const double ns_per_point = elapsed_ms * 1e6 / points;
  std::printf("time:      %.3f ms  (%.0f ns/point, %.2f M points/s)\n",
              elapsed_ms, ns_per_point,
              ns_per_point > 0.0 ? 1e3 / ns_per_point : 0.0);
}

/// Prints the WriteStore-stage summary line of a pipeline report.
void PrintStoreLine(const api::PipelineReport& report,
                    std::uint64_t store_shards) {
  if (!report.store_ran) return;
  std::printf("store:     %s  (%llu blocks, %llu bytes, %llu shard(s), "
              "write amp %.3f)\n",
              report.store_path.c_str(),
              static_cast<unsigned long long>(report.store_stats.blocks),
              static_cast<unsigned long long>(report.store_stats.file_bytes),
              static_cast<unsigned long long>(store_shards),
              report.store_stats.write_amplification);
}

/// Prints the MetricsSnapshots-stage summary line of a pipeline report.
void PrintMetricsLine(const api::PipelineReport& report) {
  if (!report.metrics_ran) return;
  std::printf("metrics:   %s  (%zu snapshot(s) written, %zu failure(s))\n",
              report.metrics_path.c_str(), report.snapshots_written,
              report.snapshot_failures);
}

/// Writes the final --metrics-out snapshot of the query and connect
/// modes, which bypass the Pipeline; returns the exit code to use.
int WriteFinalMetricsSnapshot(const CliOptions& options, int exit_code) {
  if (options.metrics_out_path.empty() || exit_code == kExitUsage) {
    return exit_code;
  }
  if (const Status s = obs::WriteSnapshotJson(options.metrics_out_path);
      !s.ok()) {
    return Fail(s, kExitIo);
  }
  std::printf("metrics:   %s  (1 snapshot(s) written, 0 failure(s))\n",
              options.metrics_out_path.c_str());
  return exit_code;
}

/// Maps a failed store or server operation onto the exit-code contract.
int StatusExit(const Status& s) {
  switch (s.code()) {
    case StatusCode::kIOError:
    case StatusCode::kCorruption:
      return Fail(s, kExitIo);
    case StatusCode::kNotFound:
      // --at outside the object's stored time span: a data answer
      // ("not there"), not a usage mistake.
      return Fail(s, kExitBoundViolation);
    default:
      return Fail(s, kExitUsage);
  }
}

/// The --query flow: open the store, run one query, print the matched
/// segments and the skip-scan evidence.
int RunQuery(const CliOptions& options) {
  Result<api::StoreQueryReport> run = api::RunStoreQuery(options.query);
  if (!run.ok()) return StatusExit(run.status());
  const api::StoreQueryReport& report = *run;
  std::printf("store:     %s  (%zu blocks, %llu segments, zeta %g m, "
              "%zu shard(s), %zu file(s), generation %llu%s)\n",
              options.query.store_path.c_str(), report.store_blocks,
              static_cast<unsigned long long>(report.store_segments),
              report.zeta, report.store_shards, report.store_files,
              static_cast<unsigned long long>(report.store_generation),
              report.tail_dropped ? ", torn tail dropped" : "");
  const store::StoreQueryStats& stats = report.stats;
  std::printf("scan:      skipped %llu of %llu blocks on footer metadata, "
              "decoded %llu segments  (%.3f ms)\n",
              static_cast<unsigned long long>(stats.blocks_skipped),
              static_cast<unsigned long long>(stats.blocks_total),
              static_cast<unsigned long long>(stats.segments_scanned),
              report.seconds * 1e3);
  if (options.query.has_window) {
    if (options.query.use_flat_scan) {
      std::printf("index:     flat footer scan (oracle mode), %zu R-tree "
                  "nodes unused\n",
                  report.index_nodes);
    } else {
      std::printf("index:     R-tree visited %llu of %zu nodes\n",
                  static_cast<unsigned long long>(stats.index_nodes_visited),
                  report.index_nodes);
    }
  }
  if (report.has_position) {
    std::printf("position:  %.3f, %.3f at t=%g  (on the stored segment; "
                "covered samples stay within zeta %g m of its line)\n",
                report.position.x, report.position.y,
                options.query.at_time, report.zeta);
    return kExitOk;
  }
  std::printf("matched:   %llu segment(s)\n",
              static_cast<unsigned long long>(stats.segments_matched));
  return WriteQueryAnswer(report.segments, options.output_path);
}

/// The --connect client flow: ingest, admin verbs, one query, stats,
/// shutdown — in that order, over one connection.
int RunConnect(const CliOptions& options) {
  const std::size_t colon = options.connect_spec.rfind(':');
  std::uint64_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !tools::ParseU64(options.connect_spec.substr(colon + 1), &port) ||
      port == 0 || port > 65535) {
    std::fprintf(stderr,
                 "operb_cli: --connect expects HOST:PORT, got '%s'\n",
                 options.connect_spec.c_str());
    return kExitUsage;
  }
  const std::string host = options.connect_spec.substr(0, colon);
  Result<server::Client> client =
      server::Client::Connect(host, static_cast<std::uint16_t>(port));
  if (!client.ok()) return Fail(client.status(), kExitIo);
  std::printf("connected: %s\n", options.connect_spec.c_str());

  if (!options.csv_path.empty() || !options.generate_spec.empty()) {
    std::string source_label;
    std::optional<std::vector<traj::ObjectUpdate>> updates =
        LoadUpdates(options, &source_label);
    if (!updates) return LoadFailureExit(options);
    // Batched so the daemon's per-request flow control (BUSY + retry,
    // handled inside Client::Ingest) sees bounded requests.
    constexpr std::size_t kIngestBatch = 512;
    const std::span<const traj::ObjectUpdate> all(*updates);
    for (std::size_t i = 0; i < all.size(); i += kIngestBatch) {
      const std::size_t n = std::min(kIngestBatch, all.size() - i);
      if (const Status s = client->Ingest(all.subspan(i, n)); !s.ok()) {
        return Fail(s, kExitIo);
      }
    }
    std::printf("ingested:  %zu point(s) from %s\n", updates->size(),
                source_label.c_str());
    if (options.finish_objects) {
      std::vector<traj::ObjectId> ids;
      ids.reserve(options.objects);
      for (const traj::ObjectUpdate& u : *updates) ids.push_back(u.object_id);
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      for (const traj::ObjectId id : ids) {
        if (const Status s = client->FinishObject(id); !s.ok()) {
          return Fail(s, kExitIo);
        }
      }
      std::printf("finished:  %zu object(s)\n", ids.size());
    }
  }

  if (options.server_seal) {
    Result<std::uint64_t> sealed = client->Seal();
    if (!sealed.ok()) return StatusExit(sealed.status());
    std::printf("sealed:    %llu segment(s) now in the daemon's store\n",
                static_cast<unsigned long long>(*sealed));
  }
  if (!options.server_checkpoint_path.empty()) {
    if (const Status s = client->Checkpoint(options.server_checkpoint_path);
        !s.ok()) {
      return StatusExit(s);
    }
    std::printf("checkpoint: %s  (written server-side)\n",
                options.server_checkpoint_path.c_str());
  }
  if (!options.server_metrics_path.empty()) {
    if (const Status s =
            client->MetricsSnapshot(options.server_metrics_path);
        !s.ok()) {
      return StatusExit(s);
    }
    std::printf("metrics:   %s  (written server-side)\n",
                options.server_metrics_path.c_str());
  }

  if (options.query.has_at) {
    Result<geo::Point> p =
        client->PositionAt(options.query.object_id, options.query.at_time);
    if (!p.ok()) return StatusExit(p.status());
    std::printf("position:  %.3f, %.3f at t=%g  (server merge of the "
                "sealed store and the in-flight tail)\n",
                p->x, p->y, options.query.at_time);
  } else if (options.query.has_object || options.query.has_window) {
    Result<std::vector<traj::TimedSegment>> r =
        options.query.has_object
            ? client->QueryObject(options.query.object_id,
                                  options.query.t_min, options.query.t_max)
            : client->QueryWindow(options.query.window, options.query.t_min,
                                  options.query.t_max,
                                  options.query.use_flat_scan);
    if (!r.ok()) return StatusExit(r.status());
    std::printf("matched:   %zu segment(s)\n", r->size());
    if (const int exit = WriteQueryAnswer(*r, options.output_path);
        exit != kExitOk) {
      return exit;
    }
  }

  if (options.server_stats) {
    Result<server::StatsBody> stats = client->Stats();
    if (!stats.ok()) return Fail(stats.status(), kExitIo);
    std::printf("stats:     %llu live object(s), %llu point(s) ingested, "
                "%llu segment(s) emitted, %llu sealed, %llu busy "
                "reject(s), %llu seal(s), %llu connection(s)\n",
                static_cast<unsigned long long>(stats->live_objects),
                static_cast<unsigned long long>(stats->ingest_points),
                static_cast<unsigned long long>(stats->segments_emitted),
                static_cast<unsigned long long>(stats->sealed_segments),
                static_cast<unsigned long long>(stats->backpressure_rejects),
                static_cast<unsigned long long>(stats->seals),
                static_cast<unsigned long long>(stats->connections));
  }
  if (options.server_shutdown) {
    if (const Status s = client->Shutdown(); !s.ok()) return Fail(s, kExitIo);
    std::printf("shutdown:  requested\n");
  }
  return kExitOk;
}

/// The --compact admin flow: one full compaction pass over an existing
/// store (GC orphans, merge every shard that needs it), printing what
/// changed.
int RunCompact(const CliOptions& options) {
  store::Compactor compactor(options.compact_path);
  Result<store::CompactionStats> run = compactor.Run();
  if (!run.ok()) return StatusExit(run.status());
  const store::CompactionStats& stats = *run;
  std::printf("compacted: %s  (%llu of %llu shard(s), %llu generation(s) "
              "committed)\n",
              options.compact_path.c_str(),
              static_cast<unsigned long long>(stats.shards_compacted),
              static_cast<unsigned long long>(stats.shards_examined),
              static_cast<unsigned long long>(stats.generations_committed));
  std::printf("merged:    %llu -> %llu file(s), %llu -> %llu block(s), "
              "%llu segment(s) rewritten\n",
              static_cast<unsigned long long>(stats.files_before),
              static_cast<unsigned long long>(stats.files_after),
              static_cast<unsigned long long>(stats.blocks_before),
              static_cast<unsigned long long>(stats.blocks_after),
              static_cast<unsigned long long>(stats.segments_rewritten));
  std::printf("io:        read %llu bytes, wrote %llu bytes (write amp "
              "%.3f), %llu orphan(s) removed\n",
              static_cast<unsigned long long>(stats.bytes_read),
              static_cast<unsigned long long>(stats.bytes_written),
              stats.write_amplification,
              static_cast<unsigned long long>(stats.orphans_removed));
  return kExitOk;
}

/// Prints the --group-by-id report: per-engine counters, then the
/// id-tagged output and the per-object bound verdict.
int ReportGroup(const CliOptions& options, const api::PipelineReport& report,
                const engine::StreamEngineOptions& eopts,
                std::size_t total_points, const std::string& source_label) {
  const engine::StreamEngineStats& stats = report.engine_stats;
  std::printf("input:     %zu updates from %zu objects  (%s)\n", total_points,
              report.objects, source_label.c_str());
  if (options.clean) PrintCleanedLine(report);
  std::printf("engine:    %s, %zu shards, %zu threads\n",
              report.spec.c_str(), eopts.num_shards, eopts.num_threads);
  std::printf("output:    %llu segments, peak %llu live objects, "
              "%llu pooled states, %llu stalls\n",
              static_cast<unsigned long long>(stats.segments),
              static_cast<unsigned long long>(stats.peak_live_objects),
              static_cast<unsigned long long>(stats.states_allocated),
              static_cast<unsigned long long>(stats.ring_full_stalls));
  PrintTimeLine(report, total_points);
  PrintStoreLine(report, options.store_shards);
  if (report.resumed) {
    std::printf("resumed:   %s\n", options.resume_path.c_str());
  }
  if (report.checkpointed) {
    std::printf("checkpoint: %s  (%zu snapshot(s) written)\n",
                report.checkpoint_path.c_str(), report.checkpoints_written);
  }
  PrintMetricsLine(report);

  if (const int exit = WriteTaggedCsv(report.segments_out, options.output_path);
      exit != kExitOk) {
    return exit;
  }

  if (options.verify) {
    if (!report.verified) {
      std::printf("bound:     VIOLATED on %zu object(s) — worst %.2f m > "
                  "zeta %g m\n",
                  report.bound_violations, report.worst_distance,
                  options.spec.zeta);
      return kExitBoundViolation;
    }
    std::printf("bound:     verified per object (%zu objects <= zeta %g m)\n",
                report.objects, options.spec.zeta);
  }
  return kExitOk;
}

/// Prints the single-trajectory report: ratio, timing and error against
/// the original, then the representation CSV and the bound verdict.
int ReportSingle(const CliOptions& options, const api::PipelineReport& report,
                 const traj::Trajectory& original,
                 const std::string& source_label) {
  traj::PiecewiseRepresentation representation;
  for (const traj::TaggedSegment& s : report.segments_out) {
    representation.Append(s.segment);
  }

  // With --clean the segments index the cleaned stream, so ratio and
  // error are measured against it: the same default cleaner the
  // pipeline's Clean stage ran.
  traj::Trajectory cleaned;
  if (options.clean) {
    cleaned = traj::StreamCleaner().CleanAll(original.points());
  }
  const traj::Trajectory& simplified = options.clean ? cleaned : original;
  const double ratio = eval::CompressionRatio(simplified, representation);
  const eval::ErrorStats error =
      eval::MeasureError(simplified, representation);
  std::printf("input:     %zu points, %.2f km, %.0f s  (%s)\n",
              original.size(), original.PathLength() / 1000.0,
              original.Duration(), source_label.c_str());
  if (options.clean) PrintCleanedLine(report);
  std::printf("algorithm: %s%s\n", report.spec.c_str(),
              options.spec.fidelity == baselines::OperbFidelity::kPaperFaithful
                  ? " (paper-faithful heuristics, no strict guard)"
                  : "");
  std::printf("output:    %zu segments, %zu stored points\n",
              representation.size(), representation.StoredPointCount());
  std::printf("ratio:     %.2f%% of input kept (%.1fx compression)\n",
              100.0 * ratio, ratio > 0.0 ? 1.0 / ratio : 0.0);
  PrintTimeLine(report, original.size());
  std::printf("error:     avg %.2f m, max %.2f m\n", error.average, error.max);
  PrintStoreLine(report, options.store_shards);
  PrintMetricsLine(report);

  if (!options.output_path.empty()) {
    if (const Status s =
            traj::WriteRepresentationCsv(representation, options.output_path);
        !s.ok()) {
      return Fail(s, kExitIo);
    }
    std::printf("wrote:     %s\n", options.output_path.c_str());
  }

  if (options.verify) {
    if (!report.verified) {
      std::printf("bound:     VIOLATED — worst %.2f m > zeta %g m\n",
                  report.worst_distance, options.spec.zeta);
      return kExitBoundViolation;
    }
    std::printf("bound:     verified (worst %.2f m <= zeta %g m)\n",
                report.worst_distance, options.spec.zeta);
  }
  return kExitOk;
}

/// The single-trajectory and --group-by-id flows on one Pipeline: they
/// differ only in the source, the engine stage and the report printed.
int RunPipeline(const CliOptions& options) {
  const bool group = options.mode == kGroup;
  api::Pipeline::Builder builder;
  std::string source_label;
  engine::StreamEngineOptions eopts;
  std::size_t total_points = 0;
  traj::Trajectory original;  // single mode: the report measures against it
  Status saved;               // --save-input, before the pipeline takes it
  if (group) {
    std::optional<std::vector<traj::ObjectUpdate>> updates =
        LoadUpdates(options, &source_label);
    if (!updates) return LoadFailureExit(options);
    if (updates->empty()) {
      std::fprintf(stderr, "operb_cli: input stream has no updates\n");
      return kExitUsage;
    }
    total_points = updates->size();
    if (!options.save_input_path.empty()) {
      saved = traj::WriteMultiObjectCsv(*updates, options.save_input_path);
    }
    eopts.num_threads = static_cast<std::size_t>(options.threads);
    eopts.num_shards = static_cast<std::size_t>(
        options.shards != 0 ? options.shards : 4 * options.threads);
    builder.FromUpdates(std::move(*updates)).Engine(eopts);
  } else {
    std::optional<traj::Trajectory> input = LoadInput(options, &source_label);
    if (!input) return LoadFailureExit(options);
    if (input->size() < 2) {
      std::fprintf(stderr,
                   "operb_cli: input has %zu point(s); need at least 2\n",
                   input->size());
      return kExitUsage;
    }
    if (!options.save_input_path.empty()) {
      saved = traj::WriteCsv(*input, options.save_input_path);
    }
    original = *input;  // the pipeline consumes its input
    builder.FromTrajectory(std::move(*input));
  }
  if (!saved.ok()) return Fail(saved, kExitIo);

  builder.Simplify(options.spec);
  if (options.clean) builder.Clean();
  if (options.verify) builder.Verify();
  if (!options.store_out_path.empty()) {
    store::StoreWriterOptions store_options;
    store_options.num_shards = static_cast<std::size_t>(options.store_shards);
    builder.WriteStore(options.store_out_path, store_options);
  }
  if (!options.checkpoint_out_path.empty()) {
    builder.Checkpoint(options.checkpoint_out_path,
                       static_cast<std::size_t>(options.checkpoint_every));
  }
  if (!options.metrics_out_path.empty()) {
    builder.MetricsSnapshots(options.metrics_out_path,
                             static_cast<std::size_t>(options.metrics_every));
  }
  if (!options.resume_path.empty()) builder.ResumeFrom(options.resume_path);
  Result<api::Pipeline> pipeline = builder.Build();
  if (!pipeline.ok()) return Fail(pipeline.status(), kExitUsage);
  Result<api::PipelineReport> run = pipeline->Run();
  if (!run.ok()) {
    // Data errors (non-monotone timestamps, corrupt rows, unwritable
    // store, a damaged or mismatched checkpoint); the flags were valid.
    const bool io_error = run.status().code() == StatusCode::kIOError;
    std::fprintf(stderr, "operb_cli: %s%s\n",
                 run.status().ToString().c_str(),
                 options.clean || io_error ? "" : " (try --clean)");
    return io_error ? kExitIo : kExitUsage;
  }
  return group ? ReportGroup(options, *run, eopts, total_points, source_label)
               : ReportSingle(options, *run, original, source_label);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  tools::FlagTable flags = CliFlags(&options);
  const tools::FlagTable::Outcome outcome = flags.Parse(argc, argv);
  if (outcome == tools::FlagTable::Outcome::kHelp) {
    flags.PrintHelp(stdout,
                    "operb_cli — one-pass error-bounded trajectory "
                    "simplification (OPERB, PVLDB 2017)\n"
                    "\n"
                    "Modes: single-trajectory (default), --group-by-id, "
                    "--query, --compact or\n--connect, at most one per run. "
                    "A flag ending in [modes] is valid only in\nthose "
                    "modes.");
    return kExitOk;
  }
  if (outcome == tools::FlagTable::Outcome::kUsageError ||
      !CheckFlagRules(flags, &options)) {
    std::fprintf(stderr, "Run 'operb_cli --help' for usage.\n");
    return kExitUsage;
  }
  if (!options.metrics_out_path.empty()) {
    // Pre-flight: snapshots are written late in the run (and periodic
    // failures are deliberately non-fatal), so an unusable path must
    // fail up front as a usage error, not as a silent no-op run. A file
    // the probe creates is removed again, so a run that writes no
    // snapshot leaves nothing behind for a consumer to misparse.
    const char* path = options.metrics_out_path.c_str();
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    std::FILE* probe = std::fopen(path, "ab");
    if (probe == nullptr) {
      std::fprintf(stderr,
                   "operb_cli: --metrics-out path '%s' is not writable\n",
                   path);
      return kExitUsage;
    }
    std::fclose(probe);
    if (!existed) std::remove(path);
  }
  if (options.mode == kConnect) {
    return WriteFinalMetricsSnapshot(options, RunConnect(options));
  }
  if (options.mode == kQuery) {
    return WriteFinalMetricsSnapshot(options, RunQuery(options));
  }
  return options.mode == kCompact ? RunCompact(options) : RunPipeline(options);
}

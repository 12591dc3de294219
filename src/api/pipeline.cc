#include "api/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "api/registry.h"
#include "baselines/streaming.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "traj/io.h"
#include "traj/piecewise.h"

namespace operb::api {

namespace {

/// Raw storage cost a trajectory point is charged against (three doubles),
/// the same constant codec::DeltaCompressionRatio uses.
constexpr double kRawBytesPerPoint = 24.0;

/// Pipeline-layer registry instruments — the cumulative counterpart of
/// PipelineReport (which stays the per-run API). Acquired once per
/// process, then lock-free.
struct PipelineMetrics {
  obs::Counter* runs;
  obs::Counter* points_in;
  obs::Counter* points_kept;
  obs::Counter* segments_out;
  obs::Counter* snapshots_written;
  obs::Counter* snapshot_failures;
  obs::LatencyHistogram* ingest_ns;
  obs::LatencyHistogram* clean_ns;
  obs::LatencyHistogram* simplify_ns;
  obs::LatencyHistogram* verify_ns;
  obs::LatencyHistogram* delta_ns;
  obs::LatencyHistogram* store_close_ns;
};

PipelineMetrics& GetPipelineMetrics() {
  static PipelineMetrics* const m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return new PipelineMetrics{
        r.GetCounter("pipeline.runs"),
        r.GetCounter("pipeline.points_in"),
        r.GetCounter("pipeline.points_kept"),
        r.GetCounter("pipeline.segments_out"),
        r.GetCounter("pipeline.snapshots_written"),
        r.GetCounter("pipeline.snapshot_failures"),
        r.GetHistogram("pipeline.stage.ingest_ns"),
        r.GetHistogram("pipeline.stage.clean_ns"),
        r.GetHistogram("pipeline.stage.simplify_ns"),
        r.GetHistogram("pipeline.stage.verify_ns"),
        r.GetHistogram("pipeline.stage.delta_ns"),
        r.GetHistogram("pipeline.stage.store_close_ns"),
    };
  }();
  return *m;
}

/// MetricsSnapshots-stage write. Never fatal: a failure is logged to
/// stderr, counted (report + `pipeline.snapshot_failures`) and the run
/// continues — losing a telemetry file must not lose the ingest.
void WriteMetricsSnapshot(const std::string& path, store::Env* env,
                          PipelineReport* report) {
  obs::AtomicWriteFn write;  // default: obs::AtomicWriteFile
  if (env != nullptr) {
    // Through the store's Env seam, so FaultInjectingEnv can fail the
    // snapshot like any other durable write.
    write = [env](const std::string& p, std::string_view content) {
      return store::WriteFileAtomically(
          env, p,
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(content.data()),
              content.size()));
    };
  }
  const Status s = obs::WriteSnapshotJson(path, {}, std::move(write));
  if (s.ok()) {
    ++report->snapshots_written;
    if constexpr (obs::kMetricsEnabled) {
      GetPipelineMetrics().snapshots_written->Increment();
    }
    return;
  }
  ++report->snapshot_failures;
  if constexpr (obs::kMetricsEnabled) {
    GetPipelineMetrics().snapshot_failures->Increment();
  }
  std::fprintf(stderr, "operb: metrics snapshot to %s failed: %s\n",
               path.c_str(), s.ToString().c_str());
}

/// Folds the run's headline counters into the registry once the report
/// is final.
void FoldRunCounters(const PipelineReport& report) {
  if constexpr (obs::kMetricsEnabled) {
    PipelineMetrics& m = GetPipelineMetrics();
    m.runs->Increment();
    m.points_in->Add(report.points_in);
    m.points_kept->Add(report.points_kept);
    m.segments_out->Add(report.segments);
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

Status Pipeline::Builder::SetSource(Source source) {
  if (source_ != Source::kNone && source_error_.ok()) {
    source_error_ = Status::InvalidArgument(
        "pipeline has more than one ingest source; call exactly one "
        "From*() method");
  }
  source_ = source;
  return Status::OK();
}

Pipeline::Builder& Pipeline::Builder::FromTrajectory(
    traj::Trajectory trajectory) {
  SetSource(Source::kTrajectory);
  trajectory_ = std::move(trajectory);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::FromCsvFile(std::string path) {
  SetSource(Source::kCsvFile);
  path_or_content_ = std::move(path);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::FromCsv(std::string content) {
  SetSource(Source::kCsvContent);
  path_or_content_ = std::move(content);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::FromPltFile(std::string path) {
  SetSource(Source::kPltFile);
  path_or_content_ = std::move(path);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::FromUpdates(
    std::vector<traj::ObjectUpdate> updates) {
  SetSource(Source::kUpdates);
  updates_ = std::move(updates);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::FromMultiObjectCsvFile(
    std::string path) {
  SetSource(Source::kMultiCsvFile);
  path_or_content_ = std::move(path);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Clean(traj::CleanerOptions options) {
  clean_ = true;
  cleaner_options_ = options;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Simplify(SimplifierSpec spec) {
  have_spec_ = true;
  have_spec_string_ = false;
  spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Simplify(std::string_view spec_string) {
  have_spec_ = true;
  have_spec_string_ = true;  // parsed at Build(); "" must fail there, not
                             // silently fall back to an earlier spec
  spec_string_ = std::string(spec_string);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Verify(double slack) {
  verify_ = true;
  verify_slack_ = slack;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::DeltaEncode(
    codec::DeltaCodecOptions options) {
  delta_ = true;
  delta_options_ = options;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::WriteStore(
    std::string path, store::StoreWriterOptions options) {
  write_store_ = true;
  store_path_ = std::move(path);
  store_options_ = options;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Engine(
    engine::StreamEngineOptions options) {
  use_engine_ = true;
  engine_options_ = std::move(options);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::ToSink(engine::TaggedSegmentSink sink) {
  sink_ = std::move(sink);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Checkpoint(std::string path,
                                                 std::size_t every_n_points,
                                                 store::Env* env) {
  checkpoint_path_ = std::move(path);
  checkpoint_every_ = every_n_points;
  checkpoint_env_ = env;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::MetricsSnapshots(std::string path,
                                                       std::size_t every_n_points,
                                                       store::Env* env) {
  metrics_ = true;
  metrics_path_ = std::move(path);
  metrics_every_ = every_n_points;
  metrics_env_ = env;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::ResumeFrom(std::string path) {
  resume_path_ = std::move(path);
  return *this;
}

Result<Pipeline> Pipeline::Builder::Build() {
  if (!source_error_.ok()) return source_error_;
  if (source_ == Source::kNone) {
    return Status::InvalidArgument(
        "pipeline has no ingest source; call one of the From*() methods");
  }
  if (!have_spec_) {
    return Status::InvalidArgument(
        "pipeline has no simplifier; call Simplify(spec)");
  }
  if (have_spec_string_) {
    OPERB_ASSIGN_OR_RETURN(spec_, SimplifierSpec::Parse(spec_string_));
    have_spec_string_ = false;
    spec_string_.clear();
  }
  OPERB_RETURN_IF_ERROR(AlgorithmRegistry::Global().Validate(spec_));
  if (metrics_ && metrics_path_.empty()) {
    return Status::InvalidArgument(
        "MetricsSnapshots needs a non-empty path");
  }
  const bool multi_source =
      source_ == Source::kUpdates || source_ == Source::kMultiCsvFile;
  // Checkpoint/resume are engine features: the snapshot is of engine
  // shard state, so either stage routes the run through the engine.
  // Periodic (every_n > 0) metrics snapshots need the chunked ingest
  // loop, which also lives on the engine path.
  if (use_engine_ || multi_source || !checkpoint_path_.empty() ||
      !resume_path_.empty() || (metrics_ && metrics_every_ > 0)) {
    use_engine_ = true;
    engine_options_.spec = spec_;
    OPERB_RETURN_IF_ERROR(engine_options_.Validate());
  }
  if (!resume_path_.empty()) {
    // A resumed run only sees the stream's remainder; stages that need
    // the full original stream would silently mis-report on the tail.
    if (clean_) {
      return Status::InvalidArgument(
          "ResumeFrom cannot be combined with Clean: cleaner state is not "
          "part of an engine checkpoint, so the tail would be cleaned "
          "against a fresh history");
    }
    if (verify_) {
      return Status::InvalidArgument(
          "ResumeFrom cannot be combined with Verify: verification needs "
          "the full original stream, a resumed run only has its tail");
    }
    if (write_store_) {
      return Status::InvalidArgument(
          "ResumeFrom cannot be combined with WriteStore: stored time "
          "annotations index into the full original stream, a resumed run "
          "only has its tail");
    }
  }
  if (verify_ && !(verify_slack_ >= 0.0)) {
    return Status::InvalidArgument("verify slack must be >= 0");
  }
  if (write_store_) {
    if (store_path_.empty()) {
      return Status::InvalidArgument("WriteStore needs a non-empty path");
    }
    // The stored zeta is the bound the segments are simplified under —
    // anything else would certify an error margin the data doesn't have.
    store_options_.zeta = spec_.zeta;
    OPERB_RETURN_IF_ERROR(store_options_.Validate());
  }
  return Pipeline(std::move(*this));
}

// ---------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------

Result<PipelineReport> Pipeline::Run() {
  if (ran_) {
    return Status::InvalidArgument(
        "Pipeline::Run() may only be called once (the input was consumed)");
  }
  ran_ = true;
  Builder& cfg = config_;
  PipelineReport report;
  report.spec = cfg.spec_.ToString();
  report.used_engine = cfg.use_engine_;

  // Ingest. A single-trajectory source is one object (id 0) whose samples
  // land in `points`; multi-object sources fill `updates`. With a Clean()
  // stage, CSV is parsed as *raw* points — the validating parser would
  // reject the very rows the cleaner exists to repair. (PLT parsing
  // derives timestamps while projecting and stays validating; a corrupt
  // .plt is a Corruption, not a cleanable stream.)
  const bool single = cfg.source_ != Builder::Source::kUpdates &&
                      cfg.source_ != Builder::Source::kMultiCsvFile;
  std::vector<geo::Point> points;
  std::vector<traj::ObjectUpdate> updates;
  {
    obs::ScopedTimer ingest_timer(
        obs::kMetricsEnabled ? GetPipelineMetrics().ingest_ns : nullptr);
    const auto points_of = [](Result<traj::Trajectory> parsed)
        -> Result<std::vector<geo::Point>> {
      if (!parsed.ok()) return parsed.status();
      return std::move(parsed->mutable_points());
    };
    const std::string& path = cfg.path_or_content_;
    switch (cfg.source_) {
      case Builder::Source::kTrajectory:
        points = std::move(cfg.trajectory_.mutable_points());
        break;
      case Builder::Source::kCsvFile: {
        OPERB_ASSIGN_OR_RETURN(points, cfg.clean_
                                           ? traj::ReadCsvPoints(path)
                                           : points_of(traj::ReadCsv(path)));
        break;
      }
      case Builder::Source::kCsvContent: {
        OPERB_ASSIGN_OR_RETURN(points,
                               cfg.clean_ ? traj::ParseCsvPoints(path)
                                          : points_of(traj::ParseCsv(path)));
        break;
      }
      case Builder::Source::kPltFile: {
        OPERB_ASSIGN_OR_RETURN(points,
                               points_of(traj::ReadGeoLifePlt(path)));
        break;
      }
      case Builder::Source::kUpdates:
        updates = std::move(cfg.updates_);
        break;
      case Builder::Source::kMultiCsvFile: {
        OPERB_ASSIGN_OR_RETURN(updates, traj::ReadMultiObjectCsv(path));
        break;
      }
      case Builder::Source::kNone:
        return Status::Internal("pipeline Run without a source");
    }
  }
  report.points_in = single ? points.size() : updates.size();

  // Clean: a per-stream repair, one cleaner per object id.
  if (cfg.clean_) {
    obs::ScopedTimer clean_timer(
        obs::kMetricsEnabled ? GetPipelineMetrics().clean_ns : nullptr);
    std::unordered_map<traj::ObjectId, traj::StreamCleaner> cleaners;
    if (single) {
      traj::StreamCleaner& cleaner =
          cleaners.try_emplace(0, cfg.cleaner_options_).first->second;
      points = std::move(cleaner.CleanAll(points).mutable_points());
    } else {
      std::vector<traj::ObjectUpdate> kept;
      kept.reserve(updates.size());
      for (const traj::ObjectUpdate& u : updates) {
        auto it =
            cleaners.try_emplace(u.object_id, cfg.cleaner_options_).first;
        if (it->second.Push(u.point).has_value()) kept.push_back(u);
      }
      updates = std::move(kept);
    }
    for (const auto& [id, cleaner] : cleaners) {
      const traj::CleanerStats& s = cleaner.stats();
      report.cleaner.accepted += s.accepted;
      report.cleaner.duplicates_dropped += s.duplicates_dropped;
      report.cleaner.out_of_order_dropped += s.out_of_order_dropped;
      report.cleaner.outliers_dropped += s.outliers_dropped;
    }
  }
  report.points_kept = single ? points.size() : updates.size();

  // Group and validate: the per-object originals that the store's time
  // annotations, verification and delta encoding read. Strict timestamp
  // monotonicity is checked here, before any simplifier trusts it. An
  // empty source has no objects.
  std::vector<traj::ObjectTrajectory> objects;
  if (single) {
    traj::Trajectory trajectory(std::move(points));
    if (const Status s = trajectory.Validate(); !s.ok()) {
      return Status::InvalidArgument(
          s.message() +
          " (timestamps must be strictly increasing; add a Clean() stage "
          "to repair raw sensor streams)");
    }
    if (!trajectory.empty()) {
      objects.push_back({traj::ObjectId{0}, std::move(trajectory)});
    }
  } else {
    OPERB_ASSIGN_OR_RETURN(
        objects, traj::GroupUpdatesByObject(
                     std::span<const traj::ObjectUpdate>(updates)));
  }
  report.objects = objects.size();

  // Store stage: segments stream into the writer the moment they are
  // determined, annotated with the timestamps of the covered original
  // points (Append is thread-safe; the engine's sink reads the originals
  // concurrently but never mutates them).
  std::unique_ptr<store::StoreWriter> store_writer;
  std::unordered_map<traj::ObjectId, const traj::Trajectory*> originals;
  if (cfg.write_store_) {
    OPERB_ASSIGN_OR_RETURN(
        store_writer,
        store::StoreWriter::Create(cfg.store_path_, cfg.store_options_));
    originals.reserve(objects.size());
    for (const traj::ObjectTrajectory& obj : objects) {
      originals.emplace(obj.object_id, &obj.trajectory);
    }
  }

  // The per-segment chain both routes share: store, user sink, and
  // collection when the report keeps the segments or verification needs
  // them. Only the engine calls it from worker threads, so only the
  // engine route takes the collection lock.
  const bool collect = !cfg.sink_ || cfg.verify_;
  std::vector<traj::TaggedSegment> collected;
  std::mutex collect_mu;
  const auto emit = [&](traj::ObjectId id, const traj::RepresentedSegment& s) {
    if (store_writer != nullptr) {
      const traj::Trajectory& original = *originals.at(id);
      store_writer->Append(
          {id, s, original[s.first_index].t, original[s.last_index].t});
    }
    if (cfg.sink_) cfg.sink_(id, s);
    if (collect) {
      std::unique_lock<std::mutex> lock(collect_mu, std::defer_lock);
      if (cfg.use_engine_) lock.lock();
      collected.push_back({id, s});
    }
  };

  // Simplify — the only fork. Inline, the calling thread drives one
  // streaming simplifier per object (what the engine's per-object state
  // is); the engine shards the interleaved stream over worker threads.
  Stopwatch watch;
  if (!cfg.use_engine_) {
    obs::ScopedTimer simplify_timer(
        obs::kMetricsEnabled ? GetPipelineMetrics().simplify_ns : nullptr);
    for (const traj::ObjectTrajectory& obj : objects) {
      // The one-pass algorithms emit nothing with <2 points pushed;
      // skipping the push mirrors Simplifier::Simplify's contract for the
      // buffering baselines too.
      if (obj.trajectory.size() < 2) continue;
      OPERB_ASSIGN_OR_RETURN(
          const std::unique_ptr<baselines::StreamingSimplifier> simplifier,
          AlgorithmRegistry::Global().MakeStreaming(cfg.spec_));
      simplifier->SetSink(
          [&, id = obj.object_id](const traj::RepresentedSegment& s) {
            ++report.segments;
            emit(id, s);
          });
      simplifier->Push(std::span<const geo::Point>(obj.trajectory.points()));
      simplifier->Finish();
    }
  } else {
    if (single && !objects.empty()) {
      updates.reserve(objects.front().trajectory.size());
      for (const geo::Point& p : objects.front().trajectory) {
        updates.push_back({traj::ObjectId{0}, p});
      }
    }
    std::unique_ptr<engine::StreamEngine> eng;
    if (!cfg.resume_path_.empty()) {
      OPERB_ASSIGN_OR_RETURN(eng, engine::StreamEngine::CreateFromCheckpoint(
                                      cfg.resume_path_, cfg.engine_options_,
                                      emit));
      report.resumed = true;
    } else {
      OPERB_ASSIGN_OR_RETURN(
          eng, engine::StreamEngine::Create(cfg.engine_options_, emit));
    }
    watch.Restart();
    obs::ScopedTimer simplify_timer(
        obs::kMetricsEnabled ? GetPipelineMetrics().simplify_ns : nullptr);
    const bool do_checkpoint = !cfg.checkpoint_path_.empty();
    const std::size_t snap_every = cfg.metrics_ ? cfg.metrics_every_ : 0;
    // Chunked ingest with a durable write at every cadence boundary; with
    // neither stage on, one chunk covers everything. Checkpoints keep
    // their historical contract (every_n == 0: one chunk covering
    // everything, one snapshot after it; a trailing partial chunk still
    // checkpoints — each Checkpoint() is a drain barrier, so the written
    // state is exactly "after this prefix"). Metrics snapshots fire after
    // each chunk of metrics_every_ updates. With both stages on, each
    // Push covers the distance to the nearer boundary, so neither
    // cadence disturbs the other.
    const std::size_t cp_chunk = cfg.checkpoint_every_ == 0
                                     ? updates.size()
                                     : cfg.checkpoint_every_;
    std::span<const traj::ObjectUpdate> rest(updates);
    std::size_t cp_due = cp_chunk;
    std::size_t snap_due = snap_every;
    do {
      std::size_t take = rest.size();
      if (do_checkpoint) take = std::min(take, cp_due);
      if (snap_every > 0) take = std::min(take, snap_due);
      if (take > 0) eng->Push(rest.first(take));
      rest = rest.subspan(take);
      if (do_checkpoint) {
        cp_due -= take;
        if (cp_due == 0 || rest.empty()) {
          OPERB_RETURN_IF_ERROR(
              eng->Checkpoint(cfg.checkpoint_path_, cfg.checkpoint_env_));
          ++report.checkpoints_written;
          cp_due = cp_chunk;
        }
      }
      if (snap_every > 0) {
        snap_due -= take;
        if (snap_due == 0) {
          WriteMetricsSnapshot(cfg.metrics_path_, cfg.metrics_env_, &report);
          snap_due = snap_every;
        }
      }
    } while (!rest.empty());
    if (do_checkpoint) {
      report.checkpointed = true;
      report.checkpoint_path = cfg.checkpoint_path_;
    }
    eng->Close();
    report.engine_stats = eng->stats();
    report.segments = static_cast<std::size_t>(report.engine_stats.segments);
  }
  report.simplify_seconds = watch.ElapsedSeconds();

  if (store_writer != nullptr) {
    obs::ScopedTimer close_timer(
        obs::kMetricsEnabled ? GetPipelineMetrics().store_close_ns
                             : nullptr);
    OPERB_RETURN_IF_ERROR(store_writer->Close());
    report.store_ran = true;
    report.store_path = cfg.store_path_;
    report.store_stats = store_writer->stats();
  }

  // Per-object order is emission order already. The inline route emits
  // object by object; the engine interleaves objects across workers, so a
  // stable sort by id groups them into contiguous runs without disturbing
  // each object's order.
  if (cfg.use_engine_ && collect) {
    std::stable_sort(collected.begin(), collected.end(),
                     [](const traj::TaggedSegment& a,
                        const traj::TaggedSegment& b) {
                       return a.object_id < b.object_id;
                     });
  }

  if (cfg.verify_) {
    obs::ScopedTimer verify_timer(
        obs::kMetricsEnabled ? GetPipelineMetrics().verify_ns : nullptr);
    report.verify_ran = true;
    report.verified = true;
    for (const traj::ObjectTrajectory& obj : objects) {
      if (obj.trajectory.size() < 2) continue;  // empty output by contract
      traj::PiecewiseRepresentation rep;
      for (const traj::TaggedSegment& s :
           std::ranges::equal_range(collected, obj.object_id, {},
                                    &traj::TaggedSegment::object_id)) {
        rep.Append(s.segment);
      }
      const eval::VerificationResult verdict = eval::VerifyErrorBound(
          obj.trajectory, rep, cfg.spec_.zeta, cfg.verify_slack_);
      if (!verdict.bounded) {
        report.verified = false;
        ++report.bound_violations;
      }
      report.worst_distance =
          std::max(report.worst_distance, verdict.worst_distance);
    }
  }

  if (cfg.delta_) {
    obs::ScopedTimer delta_timer(
        obs::kMetricsEnabled ? GetPipelineMetrics().delta_ns : nullptr);
    for (const traj::ObjectTrajectory& obj : objects) {
      report.delta_bytes +=
          codec::DeltaEncode(obj.trajectory, cfg.delta_options_).size();
    }
    report.delta_ratio =
        report.points_kept == 0
            ? 0.0
            : static_cast<double>(report.delta_bytes) /
                  (kRawBytesPerPoint *
                   static_cast<double>(report.points_kept));
  }

  if (!cfg.sink_) report.segments_out = std::move(collected);

  FoldRunCounters(report);
  if (cfg.metrics_) {
    // Fold first so the final snapshot already carries this run; the
    // final snapshot is written on both cadences (with every_n > 0 it
    // supersedes the last periodic one at the same path).
    report.metrics_ran = true;
    report.metrics_path = cfg.metrics_path_;
    WriteMetricsSnapshot(cfg.metrics_path_, cfg.metrics_env_, &report);
  }
  return report;
}

}  // namespace operb::api

// file_batch: the paper's setting — one trajectory, one pass. A batch of
// per-device CSV logs (equal point counts from the Taxi, Truck, SerCar
// and GeoLife profiles, with a few duplicate and out-of-order rows for
// the cleaner to repair), each through its own api::Pipeline:
//
//   FromCsv -> Clean -> Simplify("operb-a:zeta=40") -> Verify
//
// single-threaded (the thread moves to the next CPU before each batch, see
// CpuRotation). Engine, store and server do no work here.
//
// Untraced: repeated batches; per batch the pipelines are built (set-up)
// and then run one log at a time. Traced: untraced batches alternate with
// a replay that calls the same layer entry points in the order
// Pipeline::RunSingle does (parse, clean, make simplifier, fit, verify)
// inside spans, and must reproduce the untraced output hash.

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/registry.h"
#include "api/spec.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "eval/verifier.h"
#include "harness.h"
#include "traj/cleaner.h"
#include "traj/io.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace perfbench {

namespace {

namespace api = operb::api;
namespace datagen = operb::datagen;
namespace traj = operb::traj;

constexpr const char* kSpec = "operb-a:zeta=40";

/// Moves the calling thread to the next CPU it may run on, one CPU per
/// batch. On a shared host each core drifts between speed regimes on its
/// own, so a thread the scheduler keeps on one core measures that core's
/// luck; rotating makes every run sample all cores alike. The original
/// affinity is restored on destruction.
class CpuRotation {
 public:
  CpuRotation() {
#ifdef __linux__
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
#endif
  }
  ~CpuRotation() {
#ifdef __linux__
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
#endif
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
#ifdef __linux__
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
#endif
  }

 private:
#ifdef __linux__
  cpu_set_t original_;
#endif
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Generates the batch: `logs_per_profile` logs of `points` samples for
/// each stock profile. Rows are written with the library's CSV writer,
/// then about 0.4% are duplicated and 0.2% swapped with their successor
/// (out of order) — the dirt the Clean stage exists to repair.
std::vector<std::string> MakeBatch(std::uint64_t seed,
                                   std::size_t logs_per_profile,
                                   std::size_t points) {
  std::vector<std::string> logs;
  std::uint64_t k = 0;
  for (const datagen::DatasetKind kind : datagen::AllDatasetKinds()) {
    const datagen::DatasetProfile profile = datagen::DatasetProfile::For(kind);
    for (std::size_t i = 0; i < logs_per_profile; ++i, ++k) {
      datagen::Rng rng(SubSeed(seed, k));
      const traj::Trajectory clean =
          datagen::GenerateTrajectory(profile, points, &rng);
      std::vector<operb::geo::Point> raw;
      raw.reserve(clean.size() + clean.size() / 64);
      for (std::size_t j = 0; j < clean.size(); ++j) {
        if (j + 1 < clean.size() && rng.Bernoulli(0.002)) {
          raw.push_back(clean[j + 1]);
          raw.push_back(clean[j]);
          ++j;
          continue;
        }
        raw.push_back(clean[j]);
        if (rng.Bernoulli(0.004)) raw.push_back(clean[j]);
      }
      logs.push_back(traj::WriteCsvString(traj::Trajectory(std::move(raw))));
    }
  }
  return logs;
}

struct BatchOutcome {
  double build_s = 0.0;  ///< building every pipeline (set-up)
  double run_s = 0.0;    ///< running them (the flow)
  std::vector<double> run_ms;    ///< per log: Run()
  std::vector<double> total_ms;  ///< per log: Build() + Run()
  std::uint64_t hash = 0;
  std::size_t points_in = 0;
  std::size_t points_kept = 0;
  std::size_t segments = 0;
};

/// One untraced batch through api::Pipeline.
BatchOutcome RunPipelines(const std::vector<std::string>& logs,
                          const std::vector<std::size_t>& order,
                          Checks& checks) {
  BatchOutcome out;
  // Harness work: each pipeline consumes its own copy of the log.
  std::vector<std::string> contents = logs;

  std::vector<api::Pipeline> pipelines;
  pipelines.reserve(logs.size());
  std::vector<double> build_ms(logs.size(), 0.0);
  const double b0 = NowSeconds();
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const double t0 = NowSeconds();
    auto built = api::Pipeline::Builder()
                     .FromCsv(std::move(contents[i]))
                     .Clean()
                     .Simplify(kSpec)
                     .Verify()
                     .Build();
    build_ms[i] = (NowSeconds() - t0) * 1e3;
    if (!checks.Expect(built.ok(), "file_batch.pipeline_built")) {
      std::fprintf(stderr, "perfbench: %s\n", built.status().ToString().c_str());
      return out;
    }
    pipelines.push_back(std::move(built).value());
  }
  out.build_s = NowSeconds() - b0;

  std::vector<std::uint64_t> log_hash(logs.size(), 0);
  const double r0 = NowSeconds();
  for (const std::size_t i : order) {
    const double t0 = NowSeconds();
    auto report = pipelines[i].Run();
    const double ms = (NowSeconds() - t0) * 1e3;
    out.run_ms.push_back(ms);
    out.total_ms.push_back(ms + build_ms[i]);
    if (!checks.Expect(report.ok() && report->verified,
                       "file_batch.report_verified")) {
      continue;
    }
    Hasher h;
    for (const traj::TaggedSegment& s : report->segments_out) {
      h.Segment(i, s.segment);
    }
    log_hash[i] = h.value();
    out.points_in += report->points_in;
    out.points_kept += report->points_kept;
    out.segments += report->segments;
  }
  out.run_s = NowSeconds() - r0;
  Hasher all;
  for (const std::uint64_t h : log_hash) all.Value(h);
  out.hash = all.value();
  return out;
}

struct ReplayOutcome {
  double wall_s = 0.0;
  std::uint64_t hash = 0;
  std::size_t dropped = 0;
  std::size_t segments = 0;
  std::size_t patch_ends = 0;
  double worst_over_zeta = 0.0;
  std::vector<traj::Trajectory> cleaned;  ///< kept for the SIMD fit passes
};

/// One traced batch: the layer calls of Pipeline::RunSingle, in order.
ReplayOutcome RunReplay(const std::vector<std::string>& logs,
                        const std::vector<std::size_t>& order,
                        const api::SimplifierSpec& spec, Tracer& tracer,
                        Checks& checks, bool keep_cleaned) {
  ReplayOutcome out;
  if (keep_cleaned) out.cleaned.resize(logs.size());
  std::vector<std::uint64_t> log_hash(logs.size(), 0);
  const double w0 = NowSeconds();
  for (const std::size_t i : order) {
    const auto req = static_cast<std::int64_t>(i);
    Tracer::Scope root(tracer, "file_batch.log", Tracer::kNoSpan, req);
    const auto raw = [&] {
      Tracer::Scope s(tracer, "traj.parse", root.id(), req);
      return traj::ParseCsvPoints(logs[i]);
    }();
    if (!checks.Expect(raw.ok(), "file_batch.replay_parsed")) continue;
    traj::Trajectory cleaned;
    {
      Tracer::Scope s(tracer, "traj.clean", root.id(), req);
      traj::StreamCleaner cleaner;
      cleaned = cleaner.CleanAll(*raw);
      const traj::CleanerStats& st = cleaner.stats();
      out.dropped += st.duplicates_dropped + st.out_of_order_dropped +
                     st.outliers_dropped;
    }
    auto made = [&] {
      Tracer::Scope s(tracer, "api.make_simplifier", root.id(), req);
      return api::AlgorithmRegistry::Global().MakeStreaming(spec);
    }();
    if (!checks.Expect(made.ok(), "file_batch.replay_simplifier")) continue;
    traj::PiecewiseRepresentation rep;
    Hasher h;
    (*made)->SetSink([&](const traj::RepresentedSegment& seg) {
      rep.Append(seg);
      h.Segment(i, seg);
    });
    {
      Tracer::Scope s(tracer, "core.fit", root.id(), req);
      if (cleaned.size() >= 2) {
        (*made)->Push(std::span<const operb::geo::Point>(cleaned.points()));
        (*made)->Finish();
      }
    }
    operb::eval::VerificationResult verdict;
    {
      Tracer::Scope s(tracer, "eval.verify", root.id(), req);
      verdict = operb::eval::VerifyErrorBound(cleaned, rep, spec.zeta, 1e-9);
    }
    checks.Expect(verdict.bounded, "file_batch.replay_verified");
    out.worst_over_zeta =
        std::max(out.worst_over_zeta, verdict.worst_distance / spec.zeta);
    out.segments += rep.size();
    for (const traj::RepresentedSegment& seg : rep) {
      if (seg.end_is_patch) ++out.patch_ends;
    }
    log_hash[i] = h.value();
    if (keep_cleaned) out.cleaned[i] = std::move(cleaned);
  }
  out.wall_s = NowSeconds() - w0;
  Hasher all;
  for (const std::uint64_t v : log_hash) all.Value(v);
  out.hash = all.value();
  return out;
}

}  // namespace

void RunFileBatch(const Args& args, Tracer& tracer, Checks& checks,
                  Metrics& metrics) {
  const std::size_t logs_per_profile = args.tiny ? 2 : 60;
  const std::size_t points = args.tiny ? 400 : 2000;
  const std::vector<std::string> logs =
      MakeBatch(args.seed, logs_per_profile, points);
  std::vector<std::size_t> order(logs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  {
    operb::datagen::Rng rng(args.seed2);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBelow(i)]);
    }
  }
  auto parsed = api::SimplifierSpec::Parse(kSpec);
  if (!checks.Expect(parsed.ok(), "file_batch.spec_parsed")) return;
  const api::SimplifierSpec spec = *parsed;

  if (!args.trace) {
    // Reference output: the layer calls of the replay, run once, untimed
    // (the tracer is off in this mode).
    const std::uint64_t reference =
        RunReplay(logs, order, spec, tracer, checks, false).hash;
    const double deadline = NowSeconds() + args.seconds;
    std::vector<double> build_s, run_s;
    std::vector<std::vector<double>> run_ms, total_ms;  // per batch
    BatchOutcome first;
    std::size_t reps = 0;
    std::size_t logs_done = 0;
    CpuRotation rotation;
    do {
      rotation.Next();
      BatchOutcome b = RunPipelines(logs, order, checks);
      if (reps == 0) first = b;
      checks.Expect(b.hash == reference, "file_batch.replay_hash_matches");
      build_s.push_back(b.build_s);
      run_s.push_back(b.run_s);
      logs_done += b.run_ms.size();
      run_ms.push_back(std::move(b.run_ms));
      total_ms.push_back(std::move(b.total_ms));
      ++reps;
    } while (NowSeconds() < deadline || reps < 3);
    double run_total = 0.0;
    for (const double s : run_s) run_total += s;
    const double points_in = static_cast<double>(first.points_in);
    metrics.Set("points_per_s",
                points_in * static_cast<double>(reps) / run_total);
    metrics.Set("compression_ratio",
                static_cast<double>(first.segments) /
                    static_cast<double>(first.points_kept));
    // Stored points of the paper's representation (segments + one
    // closing endpoint per log), at three 8-byte doubles each.
    metrics.Set("bytes_per_point",
                24.0 * static_cast<double>(first.segments + logs.size()) /
                    points_in);
    // Per-log quantiles are taken within each batch and reported as the
    // median over batches: the p99 of all logs pooled moved with the few
    // batches a noisy neighbour slowed (ten-run spread 0.21).
    metrics.Set("query_p50_ms", QuantileOfQuantiles(run_ms, 0.50, 0.5));
    metrics.Set("query_p99_ms", QuantileOfQuantiles(run_ms, 0.99, 0.5));
    metrics.Set("query_qps", static_cast<double>(logs_done) / run_total);
    // No window request exists here; the widest request is the whole
    // batch. Its mean is reported: on a host whose speed drifts between
    // regimes lasting seconds, the median batch time flips between them.
    metrics.Set("window_p50_ms", run_total / static_cast<double>(reps) * 1e3);
    metrics.Set("ingest_p99_ms", QuantileOfQuantiles(total_ms, 0.99, 0.5));
    // The fastest batch's build. Each batch runs on the next CPU, and the
    // build (a few hundred microseconds of allocation) costs up to 1.7x
    // more on a CPU whose neighbours are busy: the mean over batches moved
    // by 39% between two sets of ten runs, while the minimum of a run
    // stays within 4% across runs.
    metrics.Set("setup_s", *std::min_element(build_s.begin(), build_s.end()));
    metrics.Set("peak_rss_mb", PeakRssMiB());
    return;
  }

  // Traced run.
  const double deadline = NowSeconds() + args.seconds;
  std::vector<double> untraced_wall, traced_wall;
  ReplayOutcome last;
  std::uint64_t pipeline_hash = 0;
  std::size_t replays = 0;
  CpuRotation rotation;
  do {
    rotation.Next();  // each untraced/traced pair shares one CPU
    BatchOutcome b = RunPipelines(logs, order, checks);
    untraced_wall.push_back(b.run_s);
    pipeline_hash = b.hash;
    ReplayOutcome r = RunReplay(logs, order, spec, tracer, checks,
                                /*keep_cleaned=*/true);
    traced_wall.push_back(r.wall_s);
    checks.Expect(r.hash == pipeline_hash, "file_batch.replay_hash_matches");
    last = std::move(r);
    ++replays;
  } while (NowSeconds() < deadline);

  // SIMD: the same fits pinned to scalar and to the detected level.
  std::vector<const traj::Trajectory*> cleaned;
  for (const traj::Trajectory& t : last.cleaned) cleaned.push_back(&t);
  const FitTimes fit = FitLevels(spec, cleaned, 3, tracer, checks);

  const auto sum = tracer.Summarize();
  const auto per_batch = [&](const char* name) {
    const auto it = sum.find(name);
    return it == sum.end() ? 0.0
                           : it->second.total_s / static_cast<double>(replays);
  };
  metrics.Set("traj.parse_s", per_batch("traj.parse"));
  metrics.Set("traj.clean_s", per_batch("traj.clean"));
  metrics.Set("traj.clean_dropped", static_cast<double>(last.dropped));
  metrics.Set("core.fit_s", per_batch("core.fit"));
  metrics.Set("core.patch_share",
              static_cast<double>(last.patch_ends) /
                  static_cast<double>(std::max<std::size_t>(1, last.segments)));
  metrics.Set("geo.simd_fit_speedup", fit.scalar_s / fit.native_s);
  metrics.Set("eval.verify_s", per_batch("eval.verify"));
  metrics.Set("eval.max_error_over_zeta", last.worst_over_zeta);
  metrics.Set("bench.trace_overhead_share",
              (Median(traced_wall) - Median(untraced_wall)) /
                  Median(untraced_wall));
}

}  // namespace perfbench

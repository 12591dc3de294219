// fleet_archive: the fleet ingest -> seal -> query flow. 100k live
// SerCar objects of 20 points each, spread apart in space and
// interleaved round-robin (every object stays live, and the per-object
// state far exceeds cache), go through
//
//   api::Pipeline FromUpdates -> Simplify("operb:zeta=40")
//                 -> Engine(nproc - 1 workers) -> WriteStore
//
// then one store::Compactor pass, then a seeded single-client
// closed-loop query mix (window, position-at, reconstruct) on a reopened
// store::StoreReader. No parsing, no server.
//
// Untraced: repeated cycles of that flow. Traced: untraced ingests
// alternate with a replay that calls the layer entry points in the order
// Pipeline::RunEngine does (group, store create, engine create, push,
// close, store close, sort) inside spans, and must reproduce the
// untraced output hash; a one-worker replay gives the scaling baseline.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/pipeline.h"
#include "api/registry.h"
#include "api/spec.h"
#include "datagen/rng.h"
#include "engine/stream_engine.h"
#include "eval/verifier.h"
#include "geo/bbox.h"
#include "harness.h"
#include "store/compactor.h"
#include "store/query_filter.h"
#include "store/reader.h"
#include "store/writer.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"

namespace perfbench {

namespace {

namespace api = operb::api;
namespace engine = operb::engine;
namespace geo = operb::geo;
namespace store = operb::store;
namespace traj = operb::traj;

constexpr const char* kSpec = "operb:zeta=40";
constexpr double kZeta = 40.0;
constexpr std::size_t kShards = 8;
constexpr double kInf = std::numeric_limits<double>::infinity();

engine::StreamEngineOptions EngineOptions(std::size_t workers) {
  engine::StreamEngineOptions o;
  o.num_threads = workers;
  o.num_shards = kShards;
  return o;
}

store::StoreWriterOptions WriterOptions() {
  store::StoreWriterOptions o;
  o.num_shards = kShards;
  o.zeta = kZeta;
  return o;
}

struct Fleet {
  std::vector<traj::ObjectTrajectory> objects;  ///< objects[k].object_id == k + 1
  std::vector<traj::ObjectUpdate> updates;      ///< round-robin interleave
};

std::uint64_t HashTagged(const std::vector<traj::TaggedSegment>& segs) {
  Hasher h;
  for (const traj::TaggedSegment& s : segs) h.Segment(s.object_id, s.segment);
  return h.value();
}

std::uint64_t HashTimed(const std::vector<traj::TimedSegment>& segs) {
  Hasher h;
  for (const traj::TimedSegment& s : segs) h.Segment(s.object_id, s.segment);
  return h.value();
}

struct IngestOutcome {
  bool ok = false;
  double build_s = 0.0;  ///< Pipeline::Builder ... Build()
  double run_s = 0.0;    ///< the ingest itself (Run(), or the replay)
  double push_s = 0.0;   ///< replay only
  double close_s = 0.0;  ///< replay only
  double store_close_s = 0.0;
  std::uint64_t hash = 0;
  std::vector<traj::TaggedSegment> segments;  ///< sorted by id, emission order
  store::StoreWriterStats writer;
  engine::StreamEngineStats engine;
};

/// One untraced ingest through api::Pipeline (`dir` empty: no store).
IngestOutcome IngestPipeline(const Fleet& fleet, std::size_t workers,
                             const std::string& dir, Checks& checks) {
  IngestOutcome out;
  std::vector<traj::ObjectUpdate> updates = fleet.updates;  // consumed
  const double b0 = NowSeconds();
  api::Pipeline::Builder builder;
  builder.FromUpdates(std::move(updates))
      .Simplify(kSpec)
      .Engine(EngineOptions(workers));
  if (!dir.empty()) builder.WriteStore(dir, WriterOptions());
  auto built = builder.Build();
  out.build_s = NowSeconds() - b0;
  if (!checks.Expect(built.ok(), "fleet_archive.pipeline_built")) return out;
  const double r0 = NowSeconds();
  auto report = built->Run();
  out.run_s = NowSeconds() - r0;
  if (!checks.Expect(report.ok(), "fleet_archive.pipeline_ran")) {
    std::fprintf(stderr, "perfbench: %s\n", report.status().ToString().c_str());
    return out;
  }
  out.ok = true;
  out.segments = std::move(report->segments_out);
  out.hash = HashTagged(out.segments);
  out.writer = report->store_stats;
  out.engine = report->engine_stats;
  return out;
}

/// One traced ingest: the layer calls of Pipeline::RunEngine, in order.
IngestOutcome IngestReplay(const Fleet& fleet, std::size_t workers,
                           const std::string& dir,
                           const api::SimplifierSpec& spec, Tracer& tracer,
                           Checks& checks, const char* root_name) {
  IngestOutcome out;
  std::vector<traj::ObjectUpdate> updates = fleet.updates;
  const double w0 = NowSeconds();
  Tracer::Scope root(tracer, root_name);
  const auto grouped = [&] {
    Tracer::Scope s(tracer, "traj.group", root.id());
    return traj::GroupUpdatesByObject(
        std::span<const traj::ObjectUpdate>(updates));
  }();
  if (!checks.Expect(grouped.ok(), "fleet_archive.replay_grouped")) return out;
  std::unique_ptr<store::StoreWriter> writer;
  std::unordered_map<traj::ObjectId, const traj::Trajectory*> originals;
  if (!dir.empty()) {
    Tracer::Scope s(tracer, "store.create", root.id());
    store::StoreWriterOptions wo = WriterOptions();
    wo.zeta = spec.zeta;
    auto made = store::StoreWriter::Create(dir, wo);
    if (!checks.Expect(made.ok(), "fleet_archive.replay_store_created")) {
      return out;
    }
    writer = std::move(made).value();
    originals.reserve(grouped->size());
    for (const traj::ObjectTrajectory& o : *grouped) {
      originals.emplace(o.object_id, &o.trajectory);
    }
  }
  std::mutex mu;
  std::vector<traj::TaggedSegment> collected;
  const Tracer::SpanId root_id = root.id();
  engine::TaggedSegmentSink sink = [&](traj::ObjectId id,
                                       const traj::RepresentedSegment& s) {
    if (writer != nullptr) {
      const traj::Trajectory& original = *originals.at(id);
      Tracer::Scope a(tracer, "store.append", root_id,
                      static_cast<std::int64_t>(id));
      writer->Append({id, s, original[s.first_index].t,
                      original[s.last_index].t});
    }
    const std::lock_guard<std::mutex> lock(mu);
    collected.push_back({id, s});
  };
  engine::StreamEngineOptions eo = EngineOptions(workers);
  eo.spec = spec;
  auto eng = [&] {
    Tracer::Scope s(tracer, "engine.create", root.id());
    return engine::StreamEngine::Create(eo, std::move(sink));
  }();
  if (!checks.Expect(eng.ok(), "fleet_archive.replay_engine_created")) {
    return out;
  }
  {
    Tracer::Scope s(tracer, "engine.push", root.id());
    const double t0 = NowSeconds();
    (*eng)->Push(std::span<const traj::ObjectUpdate>(updates));
    out.push_s = NowSeconds() - t0;
  }
  {
    Tracer::Scope s(tracer, "engine.close", root.id());
    const double t0 = NowSeconds();
    (*eng)->Close();
    out.close_s = NowSeconds() - t0;
  }
  out.engine = (*eng)->stats();
  if (writer != nullptr) {
    Tracer::Scope s(tracer, "store.close", root.id());
    const double t0 = NowSeconds();
    const bool closed = writer->Close().ok();
    out.store_close_s = NowSeconds() - t0;
    if (!checks.Expect(closed, "fleet_archive.replay_store_closed")) return out;
    out.writer = writer->stats();
  }
  {
    Tracer::Scope s(tracer, "bench.sort", root.id());
    std::stable_sort(collected.begin(), collected.end(),
                     [](const traj::TaggedSegment& a,
                        const traj::TaggedSegment& b) {
                       return a.object_id < b.object_id;
                     });
  }
  out.run_s = NowSeconds() - w0;
  out.ok = true;
  out.segments = std::move(collected);
  out.hash = HashTagged(out.segments);
  return out;
}

/// The store at `dir` holds exactly the emitted segments, in the
/// canonical order (one all-covering window query).
void CheckStore(const std::string& dir, std::size_t segments,
                std::uint64_t hash, Checks& checks, const std::string& stage) {
  auto reader = store::StoreReader::Open(dir);
  if (!checks.Expect(reader.ok(), "fleet_archive.store_opened_" + stage)) {
    return;
  }
  checks.Expect((*reader)->segment_count() == segments,
                "fleet_archive.store_count_" + stage);
  auto all = (*reader)->QueryWindow(EverywhereBox(), -kInf, kInf);
  checks.Expect(all.ok() && HashTimed(*all) == hash,
                "fleet_archive.store_holds_output_" + stage);
}

/// Expected answers for the query mix, from the ingest output and the
/// original timestamps.
class Expected {
 public:
  Expected(const Fleet& fleet, const std::vector<traj::TaggedSegment>& segs)
      : fleet_(fleet), segs_(segs), begin_(fleet.objects.size() + 1, 0) {
    std::size_t j = 0;
    for (std::size_t k = 0; k <= fleet.objects.size(); ++k) {
      while (j < segs.size() && segs[j].object_id <= k) ++j;
      begin_[k] = j;  // first segment with id > k, i.e. of object k + 1
    }
  }
  /// Timed segments of object `id` overlapping [t_min, t_max].
  std::vector<traj::TimedSegment> Object(traj::ObjectId id, double t_min,
                                         double t_max) const {
    const traj::Trajectory& t = fleet_.objects[id - 1].trajectory;
    std::vector<traj::TimedSegment> out;
    for (std::size_t j = begin_[id - 1]; j < begin_[id]; ++j) {
      const traj::RepresentedSegment& s = segs_[j].segment;
      const traj::TimedSegment ts{id, s, t[s.first_index].t,
                                  t[s.last_index].t};
      if (store::IntervalsOverlap(ts.t_start, ts.t_end, t_min, t_max)) {
        out.push_back(ts);
      }
    }
    return out;
  }
  std::size_t Count(traj::ObjectId id) const {
    return begin_[id] - begin_[id - 1];
  }

 private:
  const Fleet& fleet_;
  const std::vector<traj::TaggedSegment>& segs_;
  std::vector<std::size_t> begin_;  ///< begin_[k]: first segment of id k+1
};

struct QueryStats {
  std::vector<double> all_ms, window_ms, flat_window_ms, position_ms,
      reconstruct_ms;
  store::StoreQueryStats window_io;
  std::uint64_t segments_scanned = 0;
  std::uint64_t segments_matched = 0;
  double seconds = 0.0;
};

/// `n` closed-loop queries: 20% window (one object's bounding box),
/// 50% position-at, 30% reconstruct over a random sub-range. The shares
/// are an assumption, not taken from a source (perfbench/README.md, "The
/// fleet query mix"); each kind is also timed apart. Every answer is
/// checked against the ingest output.
void RunQueries(const store::StoreReader& reader, const Fleet& fleet,
                const Expected& expected, std::size_t n, std::uint64_t seed,
                bool flat_too, Tracer& tracer, Checks& checks,
                QueryStats* qs) {
  operb::datagen::Rng rng(seed);
  std::uint64_t failed = 0;
  const double q0 = NowSeconds();
  for (std::size_t q = 0; q < n; ++q) {
    const auto req = static_cast<std::int64_t>(q);
    const traj::ObjectId id = 1 + rng.NextBelow(fleet.objects.size());
    const traj::Trajectory& t = fleet.objects[id - 1].trajectory;
    const double kind = rng.NextDouble();
    store::StoreQueryStats st;
    if (kind < 0.2) {
      geo::BoundingBox box;
      for (const geo::Point& p : t) box.Extend(p.pos());
      double t0 = NowSeconds();
      const auto r = [&] {
        Tracer::Scope s(tracer, "store.window", Tracer::kNoSpan, req);
        return reader.QueryWindow(box, -kInf, kInf, &st);
      }();
      const double ms = (NowSeconds() - t0) * 1e3;
      qs->all_ms.push_back(ms);
      qs->window_ms.push_back(ms);
      std::size_t own = 0;
      if (r.ok()) {
        for (const traj::TimedSegment& s : *r) own += s.object_id == id;
      }
      failed += !(r.ok() && own == expected.Count(id));
      qs->window_io.blocks_total += st.blocks_total;
      qs->window_io.blocks_skipped += st.blocks_skipped;
      if (flat_too) {
        store::StoreQueryStats fst;
        t0 = NowSeconds();
        const auto f = [&] {
          Tracer::Scope s(tracer, "store.flat_window", Tracer::kNoSpan, req);
          return reader.QueryWindow(box, -kInf, kInf, &fst,
                                    store::ScanMode::kFlatScan);
        }();
        qs->flat_window_ms.push_back((NowSeconds() - t0) * 1e3);
        failed += !(f.ok() && r.ok() && HashTimed(*f) == HashTimed(*r));
      }
    } else if (kind < 0.7) {
      const double at = rng.Uniform(t.front().t, t.back().t);
      const double t0 = NowSeconds();
      const auto r = [&] {
        Tracer::Scope s(tracer, "store.position", Tracer::kNoSpan, req);
        return reader.PositionAt(id, at, &st);
      }();
      const double ms = (NowSeconds() - t0) * 1e3;
      qs->all_ms.push_back(ms);
      qs->position_ms.push_back(ms);
      bool ok = false;
      if (r.ok()) {
        for (const traj::TimedSegment& s : expected.Object(id, at, at)) {
          if (s.t_start <= at && at <= s.t_end) {
            const geo::Point want = store::InterpolateOnSegment(s, at);
            ok = want.x == r->x && want.y == r->y && want.t == r->t;
            break;
          }
        }
      }
      failed += !ok;
    } else {
      double a = rng.Uniform(t.front().t, t.back().t);
      double b = rng.Uniform(t.front().t, t.back().t);
      if (b < a) std::swap(a, b);
      const double t0 = NowSeconds();
      const auto r = [&] {
        Tracer::Scope s(tracer, "store.reconstruct", Tracer::kNoSpan, req);
        return reader.ReconstructObject(id, a, b, &st);
      }();
      const double ms = (NowSeconds() - t0) * 1e3;
      qs->all_ms.push_back(ms);
      qs->reconstruct_ms.push_back(ms);
      failed += !(r.ok() && HashTimed(*r) == HashTimed(expected.Object(id, a, b)));
    }
    qs->segments_scanned += st.segments_scanned;
    qs->segments_matched += st.segments_matched;
  }
  qs->seconds += NowSeconds() - q0;
  checks.Count("fleet_archive.query_answer", n, failed);
}

/// The engine's determinism contract, checked directly: every object
/// through one single-stream simplifier on its own, in id order.
std::uint64_t SingleStreamHash(const Fleet& fleet,
                               const api::SimplifierSpec& spec,
                               Checks& checks) {
  auto made = api::AlgorithmRegistry::Global().MakeStreaming(spec);
  if (!checks.Expect(made.ok(), "fleet_archive.single_stream_made")) return 0;
  Hasher h;
  traj::ObjectId id = 0;
  (*made)->SetSink(
      [&](const traj::RepresentedSegment& s) { h.Segment(id, s); });
  for (const traj::ObjectTrajectory& o : fleet.objects) {
    id = o.object_id;
    (*made)->Push(std::span<const geo::Point>(o.trajectory.points()));
    (*made)->Finish();
    (*made)->Reset();
  }
  return h.value();
}

/// Every object's output (sorted by id) covers all of its points and is
/// within zeta of each; returns the worst distance over zeta.
double VerifyOutput(const Fleet& fleet,
                    const std::vector<traj::TaggedSegment>& segments,
                    double zeta, Checks& checks) {
  double worst = 0.0;
  std::uint64_t bad = 0;
  std::size_t j = 0;
  for (const traj::ObjectTrajectory& o : fleet.objects) {
    traj::PiecewiseRepresentation rep;
    while (j < segments.size() && segments[j].object_id == o.object_id) {
      rep.Append(segments[j++].segment);
    }
    const auto v = operb::eval::VerifyErrorBound(o.trajectory, rep, zeta);
    bad += v.bounded && rep.ValidateAgainst(o.trajectory).ok() ? 0 : 1;
    worst = std::max(worst, v.worst_distance / zeta);
  }
  checks.Count("fleet_archive.output_bounded", fleet.objects.size(), bad);
  return worst;
}

}  // namespace

void RunFleetArchive(const Args& args, Tracer& tracer, Checks& checks,
                     Metrics& metrics) {
  const std::size_t objects = args.tiny ? 8000 : 100000;
  const std::size_t queries = args.tiny ? 60 : 3000;
  const std::size_t workers = EngineWorkers();
  Fleet fleet;
  fleet.objects = MakeFleet(args.seed, objects, 20);
  fleet.updates = traj::InterleaveRoundRobin(fleet.objects);
  const double points = static_cast<double>(fleet.updates.size());
  const std::string dir = args.work_dir + "/fleet_store";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto parsed = api::SimplifierSpec::Parse(kSpec);
  if (!checks.Expect(parsed.ok(), "fleet_archive.spec_parsed")) return;
  const api::SimplifierSpec spec = *parsed;
  const std::uint64_t single_stream = SingleStreamHash(fleet, spec, checks);

  if (!args.trace) {
    // Determinism baseline: the same stream through a one-worker engine,
    // which must equal the single-stream output and be within zeta.
    const IngestOutcome base = IngestPipeline(fleet, 1, "", checks);
    if (!base.ok) return;
    checks.Expect(base.hash == single_stream,
                  "fleet_archive.matches_single_stream");
    VerifyOutput(fleet, base.segments, spec.zeta, checks);
    const double deadline = NowSeconds() + args.seconds;
    const Expected expected(fleet, base.segments);
    std::vector<double> flow_s, ingest_ms, setup_s;
    QueryStats qs;
    double store_bytes = 0.0;
    std::size_t cycle = 0;
    do {
      IngestOutcome in = IngestPipeline(fleet, workers, dir, checks);
      if (!in.ok) return;
      checks.Expect(in.hash == base.hash, "fleet_archive.engine_deterministic");
      in.segments.clear();
      in.segments.shrink_to_fit();
      // The store must hold the baseline's output.
      const std::size_t count = base.segments.size();
      CheckStore(dir, count, base.hash, checks, "before_compaction");
      const double c0 = NowSeconds();
      auto compacted = store::Compactor(dir).Run();
      const double compact_s = NowSeconds() - c0;
      if (!checks.Expect(compacted.ok(), "fleet_archive.compacted")) return;
      CheckStore(dir, count, base.hash, checks, "after_compaction");
      const double o0 = NowSeconds();
      auto reader = store::StoreReader::Open(dir);
      const double open_s = NowSeconds() - o0;
      if (!checks.Expect(reader.ok(), "fleet_archive.reopened")) return;
      store_bytes = static_cast<double>(DirectoryBytes(dir));
      RunQueries(**reader, fleet, expected, queries,
                 SubSeed(args.seed2, cycle), false, tracer, checks, &qs);
      flow_s.push_back(in.run_s + compact_s);
      ingest_ms.push_back(in.run_s * 1e3);
      setup_s.push_back(in.build_s + open_s);
      ++cycle;
    } while (NowSeconds() < deadline || cycle < 2);
    std::filesystem::remove_all(dir, ec);
    double flow_total = 0.0;
    for (const double s : flow_s) flow_total += s;
    metrics.Set("points_per_s",
                points * static_cast<double>(cycle) / flow_total);
    metrics.Set("compression_ratio",
                static_cast<double>(base.segments.size()) / points);
    metrics.Set("bytes_per_point", store_bytes / points);
    metrics.Set("query_p50_ms", Quantile(qs.all_ms, 0.50));
    metrics.Set("query_p99_ms", Quantile(qs.all_ms, 0.99));
    metrics.Set("query_qps",
                static_cast<double>(qs.all_ms.size()) / qs.seconds);
    metrics.Set("window_p50_ms", Quantile(qs.window_ms, 0.50));
    // One ingest request per cycle: too few for a tail percentile, so
    // the median is the highest percentile the sample supports.
    metrics.Set("ingest_p99_ms", Median(ingest_ms));
    metrics.Set("setup_s", Median(setup_s));
    metrics.Set("peak_rss_mb", PeakRssMiB());
    return;
  }

  // Traced run.
  const double deadline = NowSeconds() + args.seconds;
  std::vector<double> untraced_s, traced_s;
  IngestOutcome last;
  double append_total = 0.0;
  std::size_t replays = 0;
  do {
    const IngestOutcome u = IngestPipeline(fleet, workers, dir, checks);
    untraced_s.push_back(u.run_s);
    const double before = [&] {
      double s = 0.0;
      for (const double d : tracer.Durations("store.append")) s += d;
      return s;
    }();
    IngestOutcome r = IngestReplay(fleet, workers, dir, spec, tracer, checks,
                                   "fleet_archive.ingest");
    double after = 0.0;
    for (const double d : tracer.Durations("store.append")) after += d;
    append_total += after - before;
    traced_s.push_back(r.run_s);
    checks.Expect(r.ok && r.hash == u.hash, "fleet_archive.replay_hash_matches");
    last = std::move(r);
    ++replays;
    // Two replays bound the per-Append spans kept in memory.
  } while (NowSeconds() < deadline && replays < 2);
  // The scaling baseline writes its own store, so both sides do the
  // same work.
  const IngestOutcome one =
      IngestReplay(fleet, 1, dir + "_1_worker", spec, tracer, checks,
                   "fleet_archive.ingest_1_worker");
  std::filesystem::remove_all(dir + "_1_worker", ec);
  checks.Expect(one.ok && one.hash == last.hash,
                "fleet_archive.engine_deterministic");
  checks.Expect(last.hash == single_stream,
                "fleet_archive.matches_single_stream");
  CheckStore(dir, last.segments.size(), last.hash, checks,
             "before_compaction");
  {
    // Per-object reads before compaction, for the trace only: every
    // level-0 block spans the whole id range, so none can be skipped.
    auto reader = store::StoreReader::Open(dir);
    if (checks.Expect(reader.ok(), "fleet_archive.reopened_uncompacted")) {
      operb::datagen::Rng rng(SubSeed(args.seed2, 7));
      std::uint64_t failed = 0;
      const int n = args.tiny ? 4 : 20;
      for (int k = 0; k < n; ++k) {
        const traj::ObjectId id = 1 + rng.NextBelow(fleet.objects.size());
        Tracer::Scope s(tracer, "store.reconstruct_uncompacted",
                        Tracer::kNoSpan, k);
        failed += (*reader)->ReconstructObject(id).ok() ? 0 : 1;
      }
      checks.Count("fleet_archive.query_answer", n, failed);
    }
  }

  double compact_s = 0.0;
  {
    Tracer::Scope s(tracer, "store.compact");
    const double t0 = NowSeconds();
    const bool compacted = store::Compactor(dir).Run().ok();
    compact_s = NowSeconds() - t0;
    if (!checks.Expect(compacted, "fleet_archive.compacted")) return;
  }
  CheckStore(dir, last.segments.size(), last.hash, checks,
             "after_compaction");
  std::vector<double> open_s;
  std::unique_ptr<store::StoreReader> reader;
  for (int k = 0; k < 5; ++k) {
    Tracer::Scope s(tracer, "store.open");
    const double t0 = NowSeconds();
    auto r = store::StoreReader::Open(dir);
    open_s.push_back(NowSeconds() - t0);
    if (!checks.Expect(r.ok(), "fleet_archive.reopened")) return;
    reader = std::move(r).value();
  }
  const Expected expected(fleet, last.segments);
  QueryStats qs;
  RunQueries(*reader, fleet, expected, queries, args.seed2, true, tracer,
             checks, &qs);
  reader.reset();
  std::filesystem::remove_all(dir, ec);

  // Core alone: the same objects fed object by object to one
  // single-stream simplifier (the engine's per-object work, no engine).
  std::vector<const traj::Trajectory*> objects_in;
  for (const traj::ObjectTrajectory& o : fleet.objects) {
    objects_in.push_back(&o.trajectory);
  }
  const FitTimes fit = FitLevels(spec, objects_in, 3, tracer, checks);

  // Every object's output against its own points.
  double worst = 0.0;
  double verify_s = 0.0;
  {
    Tracer::Scope s(tracer, "eval.verify");
    const double t0 = NowSeconds();
    worst = VerifyOutput(fleet, last.segments, spec.zeta, checks);
    verify_s = NowSeconds() - t0;
  }

  std::size_t patch_ends = 0;
  for (const traj::TaggedSegment& s : last.segments) {
    patch_ends += s.segment.end_is_patch ? 1 : 0;
  }
  const double segments = static_cast<double>(last.segments.size());
  metrics.Set("core.fit_s", fit.native_s);
  metrics.Set("core.patch_share", static_cast<double>(patch_ends) / segments);
  metrics.Set("geo.simd_fit_speedup", fit.scalar_s / fit.native_s);
  metrics.Set("eval.verify_s", verify_s);
  metrics.Set("eval.max_error_over_zeta", worst);
  metrics.Set("engine.push_s", last.push_s);
  metrics.Set("engine.close_s", last.close_s);
  metrics.Set("engine.ring_full_stalls",
              static_cast<double>(last.engine.ring_full_stalls));
  metrics.Set("engine.peak_live_objects",
              static_cast<double>(last.engine.peak_live_objects));
  metrics.Set("engine.speedup_vs_1_worker",
              (one.push_s + one.close_s) / (last.push_s + last.close_s));
  metrics.Set("store.append_s", append_total / static_cast<double>(replays));
  metrics.Set("store.close_s", last.store_close_s);
  metrics.Set("store.write_amplification", last.writer.write_amplification);
  metrics.Set("store.compact_s", compact_s);
  metrics.Set("store.open_s", Median(open_s));
  metrics.Set("store.window_p50_ms", Quantile(qs.window_ms, 0.5));
  metrics.Set("store.flat_window_p50_ms", Quantile(qs.flat_window_ms, 0.5));
  metrics.Set("store.position_p50_ms", Quantile(qs.position_ms, 0.5));
  metrics.Set("store.reconstruct_p50_ms", Quantile(qs.reconstruct_ms, 0.5));
  metrics.Set("store.skip_ratio",
              static_cast<double>(qs.window_io.blocks_skipped) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, qs.window_io.blocks_total)));
  metrics.Set("store.segments_scanned_per_match",
              static_cast<double>(qs.segments_scanned) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, qs.segments_matched)));
  metrics.Set("codec.bytes_per_segment",
              static_cast<double>(last.writer.payload_bytes) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, last.writer.segments)));
  metrics.Set("bench.trace_overhead_share",
              (Median(traced_s) - Median(untraced_s)) / Median(untraced_s));
}

}  // namespace perfbench

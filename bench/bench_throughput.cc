// bench_throughput: the repo's recorded perf trajectory (points/sec).
//
// Measures three layers of the pipeline on the synthetic dataset profiles
// and emits machine-readable BENCH_throughput.json (schema documented in
// README.md "Performance"; validated by validate_throughput_json.py):
//
//   ingest             — ParseCsv / ParseGeoLifePlt on in-memory content
//   steady_state       — each algorithm's sink-path compression throughput
//                        (segments stream to a counting sink; no buffer)
//   batched_vs_pointwise — OPERB's staged Push(span) against per-point
//                        Push on each profile plus a dense GeoLife
//                        variant; output hashes must match, and in full
//                        mode the dense row must run >= 2x faster
//   end_to_end         — the CLI flow: parse CSV -> validate -> simplify
//                        (sink) -> independent bound verification
//   concurrent_streams — the sharded StreamEngine on a round-robin
//                        interleaved fleet feed: points/sec vs worker
//                        thread count at 10k and 100k live objects
//   facade_overhead    — the same steady-state sink loop with the
//                        simplifier constructed via the enum compat
//                        factory vs via an api::AlgorithmRegistry spec
//                        string; the run FAILS if the facade path is
//                        measurably slower (construction happens once,
//                        outside the loop — the products are identical
//                        objects, so any steady-state gap is a bug)
//   metrics_overhead   — the same steady-state sink loop plain vs
//                        instrumented the way the engine batches its
//                        obs updates (per ~64-point Counter::Add +
//                        MaxGauge::Observe, one histogram Record per
//                        pass); the run FAILS if live metrics cost the
//                        hot loop more than 3% over the plain loop
//                        (which is what an OPERB_NO_METRICS build
//                        compiles the instrumentation down to)
//   store              — the sharded trajectory store (src/store): write
//                        a spatially spread fleet's segments into a
//                        manifest-driven shard directory (write
//                        amplification, file bytes), measure open
//                        latency (footer scan + R-tree build), serve a
//                        window query through both the R-tree index and
//                        the flat footer scan (index-vs-scan skip
//                        evidence; the run FAILS if the index visits
//                        more than 25% of the nodes the flat scan
//                        would), a per-object reconstruction, then one
//                        compaction pass (its write amplification and
//                        block densification) and the same query after
//                        it (must match byte-for-byte counts)
//   checkpoint         — StreamEngine::Checkpoint on a live engine
//                        halfway through a fleet feed: snapshot write
//                        latency and file size (bytes per live state),
//                        CreateFromCheckpoint restore latency, and an
//                        output-match gate — the run FAILS unless
//                        prefix + resumed-tail output equals the
//                        uninterrupted run's (DESIGN.md §9)
//
// Every simplifier-bearing record carries the resolved canonical spec
// string of what ran (schema version 10).
//
// `--smoke` shrinks every dataset to a single fast pass (for CI), `--out
// PATH` overrides the default ./BENCH_throughput.json. Later PRs
// (sharding, parallel ingest, ...) are benchmarked against the committed
// JSON at the repo root.
//
// Exit codes: 0 success, 1 write failure, 2 usage error.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include <span>

#include <limits>
#include <algorithm>

#include "api/registry.h"
#include "api/spec.h"
#include "bench_util.h"
#include "common/serial.h"
#include "common/stopwatch.h"
#include "engine/stream_engine.h"
#include "core/operb.h"
#include "eval/verifier.h"
#include "geo/bbox.h"
#include <filesystem>

#include "obs/metrics.h"

#include <chrono>
#include <thread>

#include "server/client.h"
#include "server/server.h"
#include "store/compactor.h"
#include "store/reader.h"
#include "store/writer.h"
#include "traj/io.h"
#include "traj/multi_object.h"

namespace {

using namespace operb;  // NOLINT

constexpr double kZeta = 40.0;

struct Timing {
  double seconds_per_pass = 0.0;
  int passes = 0;
};

/// Repeats `fn` until enough wall time accumulated for a stable number
/// (single pass in smoke mode).
template <typename Fn>
Timing TimeLoop(Fn&& fn) {
  const double min_millis = bench::SmokeMode() ? 0.0 : 150.0;
  Timing t;
  Stopwatch watch;
  do {
    fn();
    ++t.passes;
  } while (watch.ElapsedMillis() < min_millis);
  t.seconds_per_pass = watch.ElapsedSeconds() / t.passes;
  return t;
}

/// One emitted JSON record (flat string->value object).
struct JsonRecord {
  std::string text;

  void Str(const char* key, const std::string& v) {
    Key(key);
    text += '"';
    text += v;
    text += '"';
  }
  void Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    Key(key);
    text += buf;
  }
  void Int(const char* key, long long v) {
    Key(key);
    text += std::to_string(v);
  }

 private:
  void Key(const char* key) {
    if (!text.empty()) text += ", ";
    text += '"';
    text += key;
    text += "\": ";
  }
};

std::string JoinRecords(const std::vector<JsonRecord>& records) {
  std::string out = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += (i == 0 ? "\n    {" : ",\n    {");
    out += records[i].text;
    out += '}';
  }
  out += "\n  ]";
  return out;
}


/// Synthesizes GeoLife-style PLT content: 6 header lines, then
/// lat,lon,0,alt,days,date,time rows walking away from a Beijing-ish
/// reference at ~5 s sampling.
std::string MakePltString(std::size_t rows) {
  std::string out =
      "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
      "0,2,255,My Track,0,0,2,255\n0\n";
  out.reserve(out.size() + rows * 64);
  char buf[160];
  for (std::size_t i = 0; i < rows; ++i) {
    const double lat = 39.9 + 1e-5 * static_cast<double>(i % 997);
    const double lon = 116.3 + 1e-5 * static_cast<double>(i % 1009);
    const double days =
        39744.0 + static_cast<double>(i) * (5.0 / 86400.0);
    const int n = std::snprintf(
        buf, sizeof(buf), "%.6f,%.6f,0,196,%.9f,2008-10-23,02:53:04\n", lat,
        lon, days);
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

/// The quadratic-ish batch algorithms get smaller full-mode inputs than
/// the streaming ones so the harness stays minutes-free. "Streaming" here
/// is by cost model (window-bounded work per point), broader than the
/// registry's strict O(1)-state one_pass flag.
bool StreamingCost(std::string_view name) {
  return name != "DP" && name != "DP-SED";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      bench::SmokeMode() = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (--smoke, --out PATH)\n",
                   argv[0], std::string(arg).c_str());
      return 2;
    }
  }
  const bool smoke = bench::SmokeMode();
  bench::Banner("Throughput baseline: ingest / steady state / end-to-end",
                "Theorem 5: one-pass O(n) time, O(1) state; constants are "
                "this harness's subject");

  // ------------------------------------------------------------------
  // Ingest: locale-proof from_chars parsers on in-memory content.
  // ------------------------------------------------------------------
  std::vector<JsonRecord> ingest;
  const std::size_t ingest_points = smoke ? 2000 : 200000;
  const auto measure_ingest = [&ingest](const char* format,
                                        const char* profile,
                                        const std::string& content,
                                        auto&& parse) {
    std::size_t parsed = 0;
    const Timing tm = TimeLoop([&] {
      auto r = parse(content);
      parsed = r.ok() ? r.value().size() : 0;
    });
    JsonRecord rec;
    rec.Str("format", format);
    rec.Str("profile", profile);
    rec.Int("points", static_cast<long long>(parsed));
    rec.Int("bytes", static_cast<long long>(content.size()));
    rec.Int("passes", tm.passes);
    rec.Num("seconds_per_pass", tm.seconds_per_pass);
    rec.Num("points_per_sec",
            static_cast<double>(parsed) / tm.seconds_per_pass);
    rec.Num("mb_per_sec",
            static_cast<double>(content.size()) / 1e6 / tm.seconds_per_pass);
    ingest.push_back(rec);
    std::printf("ingest %s: %zu points, %.2f M points/s\n", format, parsed,
                static_cast<double>(parsed) / tm.seconds_per_pass / 1e6);
  };
  {
    datagen::Rng rng(bench::kBenchSeed);
    const traj::Trajectory t = datagen::GenerateTrajectory(
        datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar),
        ingest_points, &rng);
    measure_ingest("csv", "SerCar", traj::WriteCsvString(t),
                   [](const std::string& c) { return traj::ParseCsv(c); });
  }
  measure_ingest("plt", "GeoLife", MakePltString(ingest_points),
                 [](const std::string& c) { return traj::ParseGeoLifePlt(c); });

  // ------------------------------------------------------------------
  // Steady state: sink-path compression, segments only counted.
  // ------------------------------------------------------------------
  std::vector<JsonRecord> steady;
  // Constructed through the registry from spec strings — the facade path
  // the Pipeline, engine and CLI all take. The paper-faithful fidelity
  // matches what the figure harnesses measure.
  const std::vector<std::string> algorithm_names =
      api::AlgorithmRegistry::Global().Names();
  for (datagen::DatasetKind kind : datagen::AllDatasetKinds()) {
    for (const std::string& name : algorithm_names) {
      const std::size_t per_traj =
          smoke ? 400 : (StreamingCost(name) ? 100000 : 10000);
      const auto dataset = bench::MakeDataset(kind, 2, per_traj);
      const std::size_t total = bench::TotalPoints(dataset);
      api::SimplifierSpec spec;
      spec.algorithm = name;
      spec.zeta = kZeta;
      spec.fidelity = baselines::OperbFidelity::kPaperFaithful;
      auto made = api::AlgorithmRegistry::Global().MakeBatch(spec);
      if (!made.ok()) {
        std::fprintf(stderr, "bench_throughput: %s\n",
                     made.status().ToString().c_str());
        return 1;
      }
      const auto simplifier = std::move(made).value();
      std::size_t segments = 0;
      const Timing tm = TimeLoop([&] {
        segments = 0;
        for (const traj::Trajectory& t : dataset) {
          simplifier->SimplifyToSink(
              t, [&segments](const traj::RepresentedSegment&) {
                ++segments;
              });
        }
      });
      JsonRecord rec;
      rec.Str("algorithm", name);
      rec.Str("spec", spec.ToString());
      rec.Str("profile", std::string(datagen::DatasetName(kind)));
      rec.Int("points", static_cast<long long>(total));
      rec.Int("segments", static_cast<long long>(segments));
      rec.Int("passes", tm.passes);
      rec.Num("seconds_per_pass", tm.seconds_per_pass);
      rec.Num("points_per_sec",
              static_cast<double>(total) / tm.seconds_per_pass);
      steady.push_back(rec);
      std::printf("steady %-11s %-7s %8zu pts  %7.2f M points/s\n",
                  name.c_str(),
                  std::string(datagen::DatasetName(kind)).c_str(), total,
                  static_cast<double>(total) / tm.seconds_per_pass / 1e6);
    }
  }

  // ------------------------------------------------------------------
  // Batched vs pointwise (schema v10): what OperbStream's staged
  // Push(span) buys over per-point Push — OPERB paper-faithful on each
  // stock profile plus a dense high-rate GeoLife variant (~0.3 s
  // sampling, ~300 points/segment) whose long extend runs are the
  // batched path's target workload. Interleaved min-of-N: on throttling
  // machines the interleaved ratio stays stable even when absolute
  // numbers wobble. The hash covers the emitted segment bytes; the two
  // paths must produce identical streams (bit-identity gate).
  // ------------------------------------------------------------------
  std::vector<JsonRecord> batched_rows;
  {
    const int rounds = smoke ? 3 : 25;
    const auto min_of = [&](auto&& pointwise_fn, auto&& batched_fn) {
      double best_pointwise = std::numeric_limits<double>::infinity();
      double best_batched = std::numeric_limits<double>::infinity();
      for (int r = 0; r < rounds; ++r) {
        {
          Stopwatch w;
          pointwise_fn();
          best_pointwise = std::min(best_pointwise, w.ElapsedSeconds());
        }
        {
          Stopwatch w;
          batched_fn();
          best_batched = std::min(best_batched, w.ElapsedSeconds());
        }
      }
      return std::pair<double, double>{best_pointwise, best_batched};
    };
    char hex[32];
    const auto hex_str = [&hex](std::uint64_t h) {
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(h));
      return std::string(hex);
    };

    struct SteadyCase {
      std::string name;
      datagen::DatasetProfile profile;
    };
    std::vector<SteadyCase> cases;
    for (datagen::DatasetKind kind : datagen::AllDatasetKinds()) {
      cases.push_back({std::string(datagen::DatasetName(kind)),
                       datagen::DatasetProfile::For(kind)});
    }
    {
      // High-rate variant: GeoLife road walk at ~0.3 s sampling, the
      // regime (hundreds of points per fitted segment) where the
      // batched extend loop has long windows to stage.
      datagen::DatasetProfile dense =
          datagen::DatasetProfile::For(datagen::DatasetKind::kGeoLife);
      dense.sampling_min_s = 0.2;
      dense.sampling_max_s = 0.4;
      cases.push_back({"GeoLife_dense", dense});
    }

    core::OperbOptions oopts = core::OperbOptions::Optimized(kZeta);
    oopts.strict_bound_guard = false;  // paper-faithful, as steady_state
    for (const SteadyCase& c : cases) {
      const std::size_t per_traj = smoke ? 400 : 100000;
      std::vector<traj::Trajectory> dataset;
      datagen::Rng rng(bench::kBenchSeed);
      dataset.push_back(datagen::GenerateTrajectory(c.profile, per_traj, &rng));
      dataset.push_back(datagen::GenerateTrajectory(c.profile, per_traj, &rng));
      const std::size_t total = bench::TotalPoints(dataset);

      core::OperbStream stream(oopts);
      std::uint64_t hash = serial::kFnv1a64OffsetBasis;
      std::size_t segments = 0;
      std::vector<std::uint8_t> seg_bytes;
      stream.SetSink([&](const traj::RepresentedSegment& s) {
        ++segments;
        seg_bytes.clear();
        traj::SerializeSegment(s, &seg_bytes);
        hash = serial::Fnv1a64(seg_bytes, hash);
      });
      const auto run_pointwise = [&] {
        for (const traj::Trajectory& t : dataset) {
          stream.Reset();
          for (const geo::Point& p : t) stream.Push(p);
          stream.Finish();
        }
      };
      const auto run_batched = [&] {
        for (const traj::Trajectory& t : dataset) {
          stream.Reset();
          stream.Push(std::span<const geo::Point>(t.points()));
          stream.Finish();
        }
      };

      hash = serial::kFnv1a64OffsetBasis;
      segments = 0;
      run_pointwise();
      const std::uint64_t hash_pointwise = hash;
      const std::size_t segments_pointwise = segments;
      hash = serial::kFnv1a64OffsetBasis;
      run_batched();
      const std::uint64_t hash_batched = hash;

      const auto [pointwise_s, batched_s] = min_of(run_pointwise, run_batched);

      JsonRecord rec;
      rec.Str("name", c.name);
      rec.Int("points", static_cast<long long>(total));
      rec.Int("rounds", rounds);
      rec.Num("pointwise_points_per_sec",
              static_cast<double>(total) / pointwise_s);
      rec.Num("batched_points_per_sec",
              static_cast<double>(total) / batched_s);
      rec.Num("speedup", pointwise_s / batched_s);
      rec.Str("hash_pointwise", hex_str(hash_pointwise));
      rec.Str("hash_batched", hex_str(hash_batched));
      rec.Int("hash_match", hash_pointwise == hash_batched ? 1 : 0);
      batched_rows.push_back(rec);
      std::printf(
          "batched %-13s pointwise %7.2fM -> batched %7.2fM pts/s  %4.2fx  "
          "%zu segs  hashes %s\n",
          c.name.c_str(), static_cast<double>(total) / pointwise_s / 1e6,
          static_cast<double>(total) / batched_s / 1e6,
          pointwise_s / batched_s, segments_pointwise,
          hash_pointwise == hash_batched ? "match" : "DIVERGE");
    }
  }

  // ------------------------------------------------------------------
  // End-to-end CLI flow: parse -> validate -> simplify -> verify bound.
  // ------------------------------------------------------------------
  std::vector<JsonRecord> end_to_end;
  for (datagen::DatasetKind kind : datagen::AllDatasetKinds()) {
    const std::size_t n = smoke ? 400 : 100000;
    datagen::Rng rng(bench::kBenchSeed);
    const traj::Trajectory t = datagen::GenerateTrajectory(
        datagen::DatasetProfile::For(kind), n, &rng);
    const std::string csv = traj::WriteCsvString(t);
    // Library-default guarded fidelity — what operb_cli runs and the only
    // mode whose bound verification is guaranteed to pass on every input
    // (the paper-faithful heuristics can exceed zeta; see DESIGN.md).
    api::SimplifierSpec e2e_spec;
    e2e_spec.zeta = kZeta;
    auto e2e_made = api::AlgorithmRegistry::Global().MakeBatch(e2e_spec);
    if (!e2e_made.ok()) {
      std::fprintf(stderr, "bench_throughput: %s\n",
                   e2e_made.status().ToString().c_str());
      return 1;
    }
    const auto simplifier = std::move(e2e_made).value();
    bool bounded = true;
    const Timing tm = TimeLoop([&] {
      auto parsed = traj::ParseCsv(csv);
      if (!parsed.ok() || !parsed.value().Validate().ok()) {
        bounded = false;
        return;
      }
      traj::PiecewiseRepresentation rep;
      simplifier->SimplifyToSink(
          parsed.value(),
          [&rep](const traj::RepresentedSegment& s) { rep.Append(s); });
      bounded = eval::VerifyErrorBound(parsed.value(), rep, kZeta, 1e-9)
                    .bounded;
    });
    if (!bounded) {
      std::fprintf(stderr, "end-to-end flow failed on %s\n",
                   std::string(datagen::DatasetName(kind)).c_str());
      return 1;
    }
    JsonRecord rec;
    rec.Str("pipeline", "parse+validate+simplify+verify");
    rec.Str("algorithm", "OPERB");
    rec.Str("spec", e2e_spec.ToString());
    rec.Str("profile", std::string(datagen::DatasetName(kind)));
    rec.Int("points", static_cast<long long>(n));
    rec.Int("passes", tm.passes);
    rec.Num("seconds_per_pass", tm.seconds_per_pass);
    rec.Num("points_per_sec", static_cast<double>(n) / tm.seconds_per_pass);
    end_to_end.push_back(rec);
    std::printf("end-to-end OPERB %-7s %8zu pts  %7.2f M points/s\n",
                std::string(datagen::DatasetName(kind)).c_str(), n,
                static_cast<double>(n) / tm.seconds_per_pass / 1e6);
  }

  // ------------------------------------------------------------------
  // Concurrent streams: the sharded StreamEngine on an interleaved
  // multi-object feed, swept over worker-thread counts and live-object
  // populations. The single-thread rows are directly comparable to the
  // steady-state OPERB rows above (same algorithm, same zeta).
  // ------------------------------------------------------------------
  std::vector<JsonRecord> concurrent;
  const std::vector<std::size_t> live_objects_sweep =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{10000, 100000};
  const std::vector<std::size_t> threads_sweep =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  // ~2M points full mode / ~1.3k smoke, split across the population.
  const std::size_t concurrent_total_points = smoke ? 1280 : 2000000;
  for (const std::size_t live : live_objects_sweep) {
    const std::size_t per_object =
        std::max<std::size_t>(4, concurrent_total_points / live);
    std::vector<traj::ObjectUpdate> updates;
    {
      std::vector<traj::ObjectTrajectory> objects;
      objects.reserve(live);
      for (std::size_t k = 0; k < live; ++k) {
        datagen::Rng rng(bench::kBenchSeed + k);
        objects.push_back(
            {k, datagen::GenerateTrajectory(
                    datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar),
                    per_object, &rng)});
      }
      updates = traj::InterleaveRoundRobin(objects);
    }
    for (const std::size_t threads : threads_sweep) {
      engine::StreamEngineOptions eopts;
      eopts.spec.zeta = kZeta;  // default algorithm: OPERB, guarded
      eopts.num_threads = threads;
      eopts.num_shards = 4 * threads;
      std::uint64_t segments = 0;
      const Timing tm = TimeLoop([&] {
        engine::StreamEngine eng(eopts, engine::TaggedSegmentSink{});
        eng.Push(std::span<const traj::ObjectUpdate>(updates));
        eng.Close();
        segments = eng.stats().segments;
      });
      JsonRecord rec;
      rec.Str("algorithm", "OPERB");
      rec.Str("spec", eopts.spec.ToString());
      rec.Int("live_objects", static_cast<long long>(live));
      rec.Int("threads", static_cast<long long>(threads));
      rec.Int("shards", static_cast<long long>(eopts.num_shards));
      rec.Int("points", static_cast<long long>(updates.size()));
      rec.Int("segments", static_cast<long long>(segments));
      rec.Int("passes", tm.passes);
      rec.Num("seconds_per_pass", tm.seconds_per_pass);
      rec.Num("points_per_sec",
              static_cast<double>(updates.size()) / tm.seconds_per_pass);
      concurrent.push_back(rec);
      std::printf(
          "concurrent OPERB %7zu objects %2zu threads %8zu pts  "
          "%7.2f M points/s\n",
          live, threads, updates.size(),
          static_cast<double>(updates.size()) / tm.seconds_per_pass / 1e6);
    }
  }

  // ------------------------------------------------------------------
  // Facade overhead: the registry/spec construction path must add zero
  // steady-state cost over the legacy enum factory. Both factories hand
  // out the same concrete object, so the two timed loops run identical
  // code; the tolerance below only absorbs scheduling noise. A real
  // regression here means the facade leaked into the per-point path.
  // ------------------------------------------------------------------
  std::vector<JsonRecord> facade;
  {
    const auto dataset = bench::MakeDataset(datagen::DatasetKind::kSerCar, 2,
                                            smoke ? 400 : 100000);
    const std::size_t total = bench::TotalPoints(dataset);
    const auto direct = bench::MakePaperSimplifier(
        baselines::Algorithm::kOPERB, kZeta);
    auto via_registry = api::AlgorithmRegistry::Global().MakeBatch(
        "OPERB:zeta=40,fidelity=paper");
    if (!via_registry.ok()) {
      std::fprintf(stderr, "bench_throughput: %s\n",
                   via_registry.status().ToString().c_str());
      return 1;
    }
    const auto run_sink_loop = [&dataset](const baselines::Simplifier& s) {
      return TimeLoop([&] {
        std::size_t segments = 0;
        for (const traj::Trajectory& t : dataset) {
          s.SimplifyToSink(t,
                           [&segments](const traj::RepresentedSegment&) {
                             ++segments;
                           });
        }
      });
    };
    // Best of 3 per path, interleaved, so one scheduler hiccup cannot
    // fake a regression.
    double direct_s = 1e99;
    double facade_s = 1e99;
    for (int round = 0; round < 3; ++round) {
      direct_s = std::min(direct_s, run_sink_loop(*direct).seconds_per_pass);
      facade_s =
          std::min(facade_s, run_sink_loop(**via_registry).seconds_per_pass);
    }
    const double overhead_pct = 100.0 * (facade_s / direct_s - 1.0);
    JsonRecord rec;
    rec.Str("algorithm", "OPERB");
    rec.Str("spec", "OPERB:zeta=40,fidelity=paper");
    rec.Str("profile", "SerCar");
    rec.Int("points", static_cast<long long>(total));
    rec.Num("direct_points_per_sec", static_cast<double>(total) / direct_s);
    rec.Num("facade_points_per_sec", static_cast<double>(total) / facade_s);
    rec.Num("overhead_pct", overhead_pct);
    facade.push_back(rec);
    std::printf("facade overhead: direct %.2f M pts/s, registry %.2f M "
                "pts/s (%+.1f%%)\n",
                static_cast<double>(total) / direct_s / 1e6,
                static_cast<double>(total) / facade_s / 1e6, overhead_pct);
    // Smoke datasets run microsecond-scale passes where timer noise
    // dominates; the full-mode gate is the meaningful one.
    const double tolerance_pct = smoke ? 50.0 : 10.0;
    if (overhead_pct > tolerance_pct) {
      std::fprintf(stderr,
                   "bench_throughput: facade overhead %.1f%% exceeds the "
                   "%.0f%% gate\n",
                   overhead_pct, tolerance_pct);
      return 1;
    }
  }

  // ------------------------------------------------------------------
  // Metrics overhead: the obs instruments are amortized in the engine
  // (one batched Counter::Add + MaxGauge::Observe per ~64-point stride,
  // one LatencyHistogram::Record per flush) — so live metrics must cost
  // the steady-state sink loop at most 3%. An OPERB_NO_METRICS build
  // compiles the instrumented loop down to the plain one; this gate
  // keeps the metrics-on default honest against it.
  // ------------------------------------------------------------------
  std::vector<JsonRecord> metrics_records;
  {
    const auto dataset = bench::MakeDataset(datagen::DatasetKind::kSerCar, 2,
                                            smoke ? 400 : 100000);
    const std::size_t total = bench::TotalPoints(dataset);
    const auto simplifier = bench::MakePaperSimplifier(
        baselines::Algorithm::kOPERB, kZeta);
    const auto run_plain = [&] {
      return TimeLoop([&] {
        std::size_t segments = 0;
        for (const traj::Trajectory& t : dataset) {
          simplifier->SimplifyToSink(
              t, [&segments](const traj::RepresentedSegment&) {
                ++segments;
              });
        }
      });
    };
    auto& registry = obs::MetricsRegistry::Global();
    obs::Counter* points_ctr = registry.GetCounter("bench.metrics.points");
    obs::Counter* segments_ctr =
        registry.GetCounter("bench.metrics.segments");
    obs::MaxGauge* occupancy =
        registry.GetMaxGauge("bench.metrics.occupancy");
    obs::LatencyHistogram* pass_ns =
        registry.GetHistogram("bench.metrics.pass_ns");
    constexpr std::size_t kStride = 64;  // the engine's amortization stride
    const auto run_instrumented = [&] {
      return TimeLoop([&] {
        const std::int64_t start_ns = NowNanos();
        std::size_t segments = 0;
        for (const traj::Trajectory& t : dataset) {
          std::size_t since_batch = 0;
          for (std::size_t i = 0; i < t.size(); i += kStride) {
            const std::size_t take = std::min(kStride, t.size() - i);
            // SimplifyToSink is whole-trajectory; feed the instruments
            // at the same stride the engine's FlushShard batches them.
            since_batch += take;
            points_ctr->Add(take);
            occupancy->Observe(static_cast<std::int64_t>(since_batch));
          }
          simplifier->SimplifyToSink(
              t, [&segments](const traj::RepresentedSegment&) {
                ++segments;
              });
        }
        segments_ctr->Add(segments);
        pass_ns->Record(static_cast<std::uint64_t>(NowNanos() - start_ns));
      });
    };
    // Best of 3 per path, interleaved, like the facade gate.
    double plain_s = 1e99;
    double instrumented_s = 1e99;
    for (int round = 0; round < 3; ++round) {
      plain_s = std::min(plain_s, run_plain().seconds_per_pass);
      instrumented_s =
          std::min(instrumented_s, run_instrumented().seconds_per_pass);
    }
    const double overhead_pct = 100.0 * (instrumented_s / plain_s - 1.0);
    JsonRecord rec;
    rec.Str("algorithm", "OPERB");
    rec.Str("spec", "OPERB:zeta=40,fidelity=paper");
    rec.Str("profile", "SerCar");
    rec.Int("points", static_cast<long long>(total));
    rec.Int("metrics_compiled_in", obs::kMetricsEnabled ? 1 : 0);
    rec.Num("plain_points_per_sec", static_cast<double>(total) / plain_s);
    rec.Num("instrumented_points_per_sec",
            static_cast<double>(total) / instrumented_s);
    rec.Num("overhead_pct", overhead_pct);
    metrics_records.push_back(rec);
    std::printf("metrics overhead: plain %.2f M pts/s, instrumented "
                "%.2f M pts/s (%+.1f%%)\n",
                static_cast<double>(total) / plain_s / 1e6,
                static_cast<double>(total) / instrumented_s / 1e6,
                overhead_pct);
    // Smoke datasets run microsecond-scale passes where timer noise
    // dominates; the full-mode 3% gate is the meaningful one.
    const double tolerance_pct = smoke ? 50.0 : 3.0;
    if (overhead_pct > tolerance_pct) {
      std::fprintf(stderr,
                   "bench_throughput: metrics overhead %.1f%% exceeds the "
                   "%.0f%% gate\n",
                   overhead_pct, tolerance_pct);
      return 1;
    }
  }

  // ------------------------------------------------------------------
  // Store: persist a spatially spread fleet's simplified segments, then
  // serve a window query (skip-scan) and a per-object reconstruction.
  // Objects are laid out along a line 50 km apart and appended
  // object-major, so block footers carve the fleet spatially and a
  // window over the first object's area must skip blocks — the recorded
  // numbers are the store's pruning evidence, not just its speed.
  // ------------------------------------------------------------------
  std::vector<JsonRecord> store_records;
  {
    const std::size_t store_objects = smoke ? 16 : 200;
    const std::size_t store_per_object = smoke ? 200 : 5000;
    api::SimplifierSpec store_spec;
    store_spec.zeta = kZeta;  // default algorithm: OPERB, guarded
    auto streaming_made =
        api::AlgorithmRegistry::Global().MakeStreaming(store_spec);
    if (!streaming_made.ok()) {
      std::fprintf(stderr, "bench_throughput: %s\n",
                   streaming_made.status().ToString().c_str());
      return 1;
    }
    const auto streaming = std::move(streaming_made).value();
    std::vector<traj::TimedSegment> segments;
    std::size_t store_points = 0;
    geo::BoundingBox first_region;
    std::vector<traj::TimedSegment>* out = &segments;
    traj::ObjectId current_id = 0;
    const traj::Trajectory* current = nullptr;
    streaming->SetSink([&](const traj::RepresentedSegment& s) {
      out->push_back({current_id, s, (*current)[s.first_index].t,
                      (*current)[s.last_index].t});
    });
    for (std::size_t k = 0; k < store_objects; ++k) {
      datagen::Rng rng(bench::kBenchSeed + k);
      traj::Trajectory t = datagen::GenerateTrajectory(
          datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar),
          store_per_object, &rng);
      for (geo::Point& p : t.mutable_points()) {
        p.x += static_cast<double>(k) * 50000.0;  // spatial spread
      }
      store_points += t.size();
      if (k == 0) {
        for (const geo::Point& p : t) first_region.Extend(p.pos());
      }
      current_id = k;
      current = &t;
      streaming->Push(std::span<const geo::Point>(t.points()));
      streaming->Finish();
      streaming->Reset();
    }

    const std::string store_path = "bench_store.tmp";
    store::StoreWriterOptions wopts;
    wopts.zeta = kZeta;
    wopts.block_budget_bytes = smoke ? 4096 : 64 * 1024;
    wopts.num_shards = smoke ? 2 : 4;
    store::StoreWriterStats wstats;
    bool write_ok = true;
    const Timing wt = TimeLoop([&] {
      auto writer = store::StoreWriter::Create(store_path, wopts);
      if (!writer.ok()) {
        write_ok = false;
        return;
      }
      for (const traj::TimedSegment& s : segments) {
        writer.value()->Append(s);
      }
      write_ok = write_ok && writer.value()->Close().ok();
      wstats = writer.value()->stats();
    });
    // Open latency: manifest read + per-file footer scan + R-tree bulk
    // load — the cost the hierarchical index adds at open time.
    bool open_ok = true;
    const Timing ot = TimeLoop([&] {
      open_ok = open_ok && store::StoreReader::Open(store_path).ok();
    });
    auto reader = store::StoreReader::Open(store_path);
    if (!write_ok || !open_ok || !reader.ok()) {
      std::fprintf(stderr, "bench_throughput: store write/open failed\n");
      return 1;
    }
    const std::size_t index_nodes = reader.value()->index_node_count();

    constexpr double kInf = std::numeric_limits<double>::infinity();
    store::StoreQueryStats window_stats;
    std::size_t window_matched = 0;
    bool query_ok = true;
    const Timing qt = TimeLoop([&] {
      auto r = reader.value()->QueryWindow(first_region, -kInf, kInf,
                                           &window_stats,
                                           store::ScanMode::kIndexed);
      query_ok = query_ok && r.ok();
      window_matched = r.ok() ? r->size() : 0;
    });
    // The same window through the flat footer scan — the index's verify
    // oracle and the baseline its pruning is judged against.
    store::StoreQueryStats flat_stats;
    std::size_t flat_matched = 0;
    const Timing ft = TimeLoop([&] {
      auto r = reader.value()->QueryWindow(first_region, -kInf, kInf,
                                           &flat_stats,
                                           store::ScanMode::kFlatScan);
      query_ok = query_ok && r.ok();
      flat_matched = r.ok() ? r->size() : 0;
    });
    std::size_t reconstructed = 0;
    const Timing rt = TimeLoop([&] {
      auto r = reader.value()->ReconstructObject(store_objects / 2);
      query_ok = query_ok && r.ok();
      reconstructed = r.ok() ? r->size() : 0;
    });
    if (!query_ok) {
      std::fprintf(stderr, "bench_throughput: store query failed\n");
      return 1;
    }
    if (window_stats.blocks_skipped == 0) {
      std::fprintf(stderr,
                   "bench_throughput: window query skipped no blocks — "
                   "footer pruning is broken\n");
      return 1;
    }
    if (window_matched != flat_matched ||
        window_stats.blocks_scanned != flat_stats.blocks_scanned) {
      std::fprintf(stderr,
                   "bench_throughput: R-tree and flat scan disagree — "
                   "index pruning is unsound\n");
      return 1;
    }
    // The acceptance gate: the flat scan visits every footer
    // (blocks_total); the R-tree must touch at most 25% as many index
    // nodes to answer the same window.
    if (window_stats.index_nodes_visited * 4 > window_stats.blocks_total) {
      std::fprintf(stderr,
                   "bench_throughput: R-tree visited %llu nodes for %llu "
                   "footers — pruning under the 25%% gate failed\n",
                   static_cast<unsigned long long>(
                       window_stats.index_nodes_visited),
                   static_cast<unsigned long long>(
                       window_stats.blocks_total));
      return 1;
    }

    // One compaction pass: every shard's single level-0 file rewrites
    // into dense id-ordered blocks one level up. Queries must answer
    // identically after it.
    const std::size_t blocks_before_compaction = reader.value()->block_count();
    store::CompactionStats cstats;
    double compact_seconds = 0.0;
    {
      Stopwatch watch;
      store::Compactor compactor(store_path);
      auto compacted = compactor.Run();
      compact_seconds = watch.ElapsedSeconds();
      if (!compacted.ok()) {
        std::fprintf(stderr, "bench_throughput: compaction failed: %s\n",
                     compacted.status().ToString().c_str());
        return 1;
      }
      cstats = *compacted;
    }
    bool post_ok = true;
    const Timing pot = TimeLoop([&] {
      post_ok = post_ok && store::StoreReader::Open(store_path).ok();
    });
    auto post_reader = store::StoreReader::Open(store_path);
    if (!post_ok || !post_reader.ok()) {
      std::fprintf(stderr, "bench_throughput: post-compaction open failed\n");
      return 1;
    }
    store::StoreQueryStats post_stats;
    auto post_window = post_reader.value()->QueryWindow(
        first_region, -kInf, kInf, &post_stats, store::ScanMode::kIndexed);
    std::filesystem::remove_all(store_path);
    if (!post_window.ok() || post_window->size() != window_matched) {
      std::fprintf(stderr,
                   "bench_throughput: compaction changed the window "
                   "query's answer\n");
      return 1;
    }

    JsonRecord rec;
    rec.Str("algorithm", "OPERB");
    rec.Str("spec", store_spec.ToString());
    rec.Int("objects", static_cast<long long>(store_objects));
    rec.Int("points", static_cast<long long>(store_points));
    rec.Int("segments", static_cast<long long>(wstats.segments));
    rec.Int("blocks", static_cast<long long>(wstats.blocks));
    rec.Int("file_bytes", static_cast<long long>(wstats.file_bytes));
    rec.Int("shards", static_cast<long long>(wopts.num_shards));
    rec.Int("index_nodes", static_cast<long long>(index_nodes));
    rec.Num("write_amplification", wstats.write_amplification);
    rec.Int("write_passes", wt.passes);
    rec.Num("write_seconds_per_pass", wt.seconds_per_pass);
    rec.Num("write_segments_per_sec",
            static_cast<double>(wstats.segments) / wt.seconds_per_pass);
    rec.Num("open_seconds_per_pass", ot.seconds_per_pass);
    rec.Num("window_query_seconds", qt.seconds_per_pass);
    rec.Int("window_blocks_skipped",
            static_cast<long long>(window_stats.blocks_skipped));
    rec.Int("window_blocks_scanned",
            static_cast<long long>(window_stats.blocks_scanned));
    rec.Int("window_index_nodes_visited",
            static_cast<long long>(window_stats.index_nodes_visited));
    rec.Int("window_segments_matched",
            static_cast<long long>(window_matched));
    rec.Num("flat_window_query_seconds", ft.seconds_per_pass);
    rec.Int("flat_window_blocks_skipped",
            static_cast<long long>(flat_stats.blocks_skipped));
    rec.Int("flat_window_blocks_scanned",
            static_cast<long long>(flat_stats.blocks_scanned));
    rec.Int("flat_window_segments_matched",
            static_cast<long long>(flat_matched));
    rec.Num("reconstruct_seconds", rt.seconds_per_pass);
    rec.Int("reconstruct_segments", static_cast<long long>(reconstructed));
    rec.Num("compact_seconds", compact_seconds);
    rec.Int("compact_shards_compacted",
            static_cast<long long>(cstats.shards_compacted));
    rec.Num("compact_write_amplification", cstats.write_amplification);
    rec.Int("compact_blocks_before",
            static_cast<long long>(blocks_before_compaction));
    rec.Int("compact_blocks_after",
            static_cast<long long>(post_reader.value()->block_count()));
    rec.Int("compact_files_before",
            static_cast<long long>(cstats.files_before));
    rec.Int("compact_files_after",
            static_cast<long long>(cstats.files_after));
    rec.Num("post_compact_open_seconds", pot.seconds_per_pass);
    rec.Int("post_compact_window_segments_matched",
            static_cast<long long>(post_window->size()));
    store_records.push_back(rec);
    std::printf(
        "store: %zu objects, %llu segments -> %llu blocks in %zu shards "
        "(%llu bytes, write amp %.3f); open %.3f ms; window skipped "
        "%llu/%llu blocks via %llu/%zu index nodes in %.3f ms (flat "
        "%.3f ms), reconstruct %.3f ms; compaction %llu shards, write "
        "amp %.3f, open after %.3f ms\n",
        store_objects, static_cast<unsigned long long>(wstats.segments),
        static_cast<unsigned long long>(wstats.blocks), wopts.num_shards,
        static_cast<unsigned long long>(wstats.file_bytes),
        wstats.write_amplification, ot.seconds_per_pass * 1e3,
        static_cast<unsigned long long>(window_stats.blocks_skipped),
        static_cast<unsigned long long>(window_stats.blocks_total),
        static_cast<unsigned long long>(window_stats.index_nodes_visited),
        index_nodes, qt.seconds_per_pass * 1e3, ft.seconds_per_pass * 1e3,
        rt.seconds_per_pass * 1e3,
        static_cast<unsigned long long>(cstats.shards_compacted),
        cstats.write_amplification, pot.seconds_per_pass * 1e3);
  }

  // ------------------------------------------------------------------
  // Checkpoint: engine snapshot write latency/size and restore latency
  // (DESIGN.md §9). A fleet feed is pushed halfway, the live engine is
  // checkpointed repeatedly (Checkpoint is a drain barrier, not a
  // close — the engine keeps running, so the loop measures the
  // steady-state snapshot cost an operator would pay with
  // --checkpoint-every), the file is restored once under a stopwatch,
  // and the restored engine replays the remainder. The run FAILS
  // unless prefix + tail output matches the uninterrupted run exactly
  // — a checkpoint/restore cycle must be semantically invisible.
  // ------------------------------------------------------------------
  std::vector<JsonRecord> checkpoint_records;
  {
    const std::size_t ckpt_objects = smoke ? 32 : 2000;
    const std::size_t ckpt_per_object = smoke ? 40 : 500;
    std::vector<traj::ObjectUpdate> updates;
    {
      std::vector<traj::ObjectTrajectory> objects;
      objects.reserve(ckpt_objects);
      for (std::size_t k = 0; k < ckpt_objects; ++k) {
        datagen::Rng rng(bench::kBenchSeed + 7919 * (k + 1));
        objects.push_back(
            {k, datagen::GenerateTrajectory(
                    datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar),
                    ckpt_per_object, &rng)});
      }
      updates = traj::InterleaveRoundRobin(objects);
    }
    engine::StreamEngineOptions eopts;
    eopts.spec.zeta = kZeta;  // default algorithm: OPERB, guarded
    eopts.num_threads = smoke ? 2 : 4;
    eopts.num_shards = 4 * eopts.num_threads;

    // Order-insensitive output fingerprint: the engine's per-object
    // emission order is deterministic but worker threads interleave
    // objects freely, so two runs are compared as multisets — a
    // wrapping sum of per-segment FNV hashes (sum, not xor: xor would
    // cancel duplicated segments pairwise).
    const auto segment_hash = [](traj::ObjectId id,
                                 const traj::RepresentedSegment& s) {
      std::uint8_t buf[3 * sizeof(std::uint64_t) + 4 * sizeof(double) + 2];
      std::uint8_t* p = buf;
      const std::uint64_t id64 = id;
      std::memcpy(p, &id64, sizeof id64), p += sizeof id64;
      std::memcpy(p, &s.start.x, sizeof(double)), p += sizeof(double);
      std::memcpy(p, &s.start.y, sizeof(double)), p += sizeof(double);
      std::memcpy(p, &s.end.x, sizeof(double)), p += sizeof(double);
      std::memcpy(p, &s.end.y, sizeof(double)), p += sizeof(double);
      const std::uint64_t first = s.first_index;
      const std::uint64_t last = s.last_index;
      std::memcpy(p, &first, sizeof first), p += sizeof first;
      std::memcpy(p, &last, sizeof last), p += sizeof last;
      *p++ = s.start_is_patch ? 1 : 0;
      *p++ = s.end_is_patch ? 1 : 0;
      return serial::Fnv1a64(std::span<const std::uint8_t>(buf, sizeof buf));
    };
    const auto hashing_sink = [&segment_hash](
                                  std::atomic<std::uint64_t>* sum,
                                  std::atomic<std::uint64_t>* count) {
      return [&segment_hash, sum, count](
                 traj::ObjectId id, const traj::RepresentedSegment& s) {
        sum->fetch_add(segment_hash(id, s), std::memory_order_relaxed);
        count->fetch_add(1, std::memory_order_relaxed);
      };
    };

    // The uninterrupted reference run.
    std::atomic<std::uint64_t> ref_hash{0};
    std::atomic<std::uint64_t> ref_count{0};
    {
      engine::StreamEngine eng(eopts, hashing_sink(&ref_hash, &ref_count));
      eng.Push(std::span<const traj::ObjectUpdate>(updates));
      eng.Close();
    }

    // Prefix run: push half the feed, then checkpoint the live engine.
    const std::size_t cut = updates.size() / 2;
    const std::string ckpt_path = "bench_engine_checkpoint.tmp";
    std::atomic<std::uint64_t> prefix_hash{0};
    std::atomic<std::uint64_t> prefix_count{0};
    engine::StreamEngine prefix_eng(eopts,
                                    hashing_sink(&prefix_hash, &prefix_count));
    prefix_eng.Push(std::span<const traj::ObjectUpdate>(updates).first(cut));
    bool ckpt_ok = true;
    const Timing ckt = TimeLoop(
        [&] { ckpt_ok = ckpt_ok && prefix_eng.Checkpoint(ckpt_path).ok(); });
    if (!ckpt_ok) {
      std::fprintf(stderr, "bench_throughput: engine checkpoint failed\n");
      return 1;
    }
    std::error_code ckpt_ec;
    const std::uint64_t ckpt_bytes =
        std::filesystem::file_size(ckpt_path, ckpt_ec);
    if (ckpt_ec || ckpt_bytes == 0) {
      std::fprintf(stderr, "bench_throughput: checkpoint file missing\n");
      return 1;
    }
    // Checkpoint() is a drain barrier, so these snapshots are exactly
    // the prefix's output; Close() afterwards flushes tails the
    // restored engine must re-emit, so it must not touch the hashes we
    // compare — hence the copies first.
    const std::uint64_t prefix_h = prefix_hash.load();
    const std::uint64_t prefix_c = prefix_count.load();
    prefix_eng.Close();

    // Restore once under a stopwatch (the construct path: read +
    // checksum + rebuild every state + start workers), then replay the
    // remainder through the restored engine.
    std::atomic<std::uint64_t> tail_hash{0};
    std::atomic<std::uint64_t> tail_count{0};
    double restore_seconds = 0.0;
    std::unique_ptr<engine::StreamEngine> restored;
    {
      Stopwatch watch;
      auto r = engine::StreamEngine::CreateFromCheckpoint(
          ckpt_path, eopts, hashing_sink(&tail_hash, &tail_count));
      restore_seconds = watch.ElapsedSeconds();
      if (!r.ok()) {
        std::fprintf(stderr, "bench_throughput: checkpoint restore failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      restored = std::move(r).value();
    }
    restored->Push(std::span<const traj::ObjectUpdate>(updates).subspan(cut));
    restored->Close();
    std::filesystem::remove(ckpt_path, ckpt_ec);
    const bool output_match =
        prefix_c + tail_count.load() == ref_count.load() &&
        prefix_h + tail_hash.load() == ref_hash.load();
    if (!output_match) {
      std::fprintf(stderr,
                   "bench_throughput: resumed output does not match the "
                   "uninterrupted run — checkpoint/restore is unsound\n");
      return 1;
    }

    JsonRecord rec;
    rec.Str("algorithm", "OPERB");
    rec.Str("spec", eopts.spec.ToString());
    rec.Int("objects", static_cast<long long>(ckpt_objects));
    rec.Int("points", static_cast<long long>(updates.size()));
    rec.Int("prefix_points", static_cast<long long>(cut));
    // Every object is still live at the cut (no FinishObject, no idle
    // timeout), so the snapshot holds one state per object.
    rec.Int("live_states", static_cast<long long>(ckpt_objects));
    rec.Int("threads", static_cast<long long>(eopts.num_threads));
    rec.Int("shards", static_cast<long long>(eopts.num_shards));
    rec.Int("checkpoint_bytes", static_cast<long long>(ckpt_bytes));
    rec.Num("checkpoint_bytes_per_state",
            static_cast<double>(ckpt_bytes) /
                static_cast<double>(ckpt_objects));
    rec.Int("checkpoint_write_passes", ckt.passes);
    rec.Num("checkpoint_write_seconds_per_pass", ckt.seconds_per_pass);
    rec.Num("restore_seconds", restore_seconds);
    rec.Int("segments", static_cast<long long>(ref_count.load()));
    rec.Int("output_match", output_match ? 1 : 0);
    checkpoint_records.push_back(rec);
    std::printf(
        "checkpoint: %zu live states -> %llu bytes (%.1f B/state) in "
        "%.3f ms; restore %.3f ms; resumed output matches\n",
        ckpt_objects, static_cast<unsigned long long>(ckpt_bytes),
        static_cast<double>(ckpt_bytes) / static_cast<double>(ckpt_objects),
        ckt.seconds_per_pass * 1e3, restore_seconds * 1e3);
  }

  // ------------------------------------------------------------------
  // Server: the live daemon surface (src/server). An in-process
  // TrajectoryServer holds a 100k-object fleet in flight (nothing
  // finished — every query crosses the read-your-writes merge of the
  // sealed store, the overlay and the engine tails), and loopback
  // Client connections sweep PositionAt queries at 1/4/8 client
  // threads while one more connection keeps ingesting. qps is
  // wall-clock; p50/p99 come from the server's own
  // obs server.query_ns histogram, restricted to each row's queries.
  // ------------------------------------------------------------------
  std::vector<JsonRecord> server_records;
  {
    const std::size_t server_objects = smoke ? 2000 : 100000;
    const std::size_t server_per_object = 4;
    const std::size_t queries_per_thread = smoke ? 200 : 2000;
    std::vector<traj::ObjectUpdate> updates;
    {
      std::vector<traj::ObjectTrajectory> objects;
      objects.reserve(server_objects);
      for (std::size_t k = 0; k < server_objects; ++k) {
        datagen::Rng rng(bench::kBenchSeed + 31 * (k + 1));
        objects.push_back(
            {k, datagen::GenerateTrajectory(
                    datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar),
                    server_per_object, &rng)});
      }
      updates = traj::InterleaveRoundRobin(objects);
    }

    const std::string server_store = "bench_server_store.tmp";
    std::filesystem::remove_all(server_store);
    server::ServerOptions sopts;
    sopts.engine.spec.zeta = kZeta;  // default algorithm: OPERB, guarded
    sopts.engine.num_threads = smoke ? 2 : 4;
    sopts.engine.num_shards = 4 * sopts.engine.num_threads;
    sopts.store_path = server_store;
    sopts.seal_interval_seconds = 0.25;  // background sealer runs live
    auto started = server::TrajectoryServer::Start(sopts, 0);
    if (!started.ok()) {
      std::fprintf(stderr, "bench_throughput: server start failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server::TrajectoryServer& srv = **started;

    // Ingest the whole fleet over one loopback connection, in the
    // CLI's batch size, under a stopwatch — the daemon-path ingest
    // rate including framing, admission and the engine hand-off.
    double ingest_seconds = 0.0;
    {
      auto c = server::Client::Connect("127.0.0.1", srv.port());
      if (!c.ok()) {
        std::fprintf(stderr, "bench_throughput: client connect failed\n");
        return 1;
      }
      Stopwatch watch;
      const std::span<const traj::ObjectUpdate> all(updates);
      for (std::size_t off = 0; off < all.size(); off += 512) {
        const Status s =
            c->Ingest(all.subspan(off, std::min<std::size_t>(512, all.size() - off)));
        if (!s.ok()) {
          std::fprintf(stderr, "bench_throughput: server ingest failed: %s\n",
                       s.ToString().c_str());
          return 1;
        }
      }
      ingest_seconds = watch.ElapsedSeconds();
    }
    // One all-covering window query barriers every shard (staging flush
    // + ring FIFO), so the census below is exact, not a mid-flight
    // snapshot.
    {
      geo::BoundingBox everything;
      everything.Extend(geo::Vec2{-1e12, -1e12});
      everything.Extend(geo::Vec2{1e12, 1e12});
      auto warm = srv.QueryWindow(everything, -1e18, 1e18, false);
      if (!warm.ok()) {
        std::fprintf(stderr, "bench_throughput: server warm query failed\n");
        return 1;
      }
    }
    const std::uint64_t live_objects = srv.Stats().live_objects;

    // Query sweep: each client thread owns its own connection (the
    // client is single-request-in-flight by design) and fires
    // PositionAt over random live objects; one extra connection keeps
    // ingesting fresh points so the merge path never degenerates to a
    // static store read.
    struct SweepRow {
      std::size_t threads;
      double qps;
      double p50_ms;
      double p99_ms;
      std::uint64_t queries;
    };
    std::vector<SweepRow> sweep;
    // Live-ingest timestamps stay monotone per object across sweeps:
    // one shared counter, bumped only by the (single) active ingester.
    double ingest_t = 1e6;  // far past every generated timestamp
    obs::LatencyHistogram* const query_hist =
        obs::MetricsRegistry::Global().GetHistogram("server.query_ns");
    for (const std::size_t threads : {1u, 4u, 8u}) {
      // The histogram is cumulative over the server's life (the warm
      // query and every earlier row), so each row's percentiles come
      // from the difference against this snapshot.
      const obs::HistogramSnapshot before = query_hist->Snapshot();
      std::atomic<bool> stop_ingest{false};
      std::atomic<bool> sweep_failed{false};
      std::thread ingester([&] {
        auto c = server::Client::Connect("127.0.0.1", srv.port());
        if (!c.ok()) return;
        datagen::Rng rng(bench::kBenchSeed + 999 * threads);
        while (!stop_ingest.load(std::memory_order_relaxed)) {
          std::vector<traj::ObjectUpdate> batch;
          batch.reserve(64);
          for (std::size_t i = 0; i < 64; ++i) {
            const traj::ObjectId id = rng.NextBelow(server_objects);
            batch.push_back({id,
                             {rng.Uniform(-1e4, 1e4), rng.Uniform(-1e4, 1e4),
                              ingest_t}});
            ingest_t += 1.0;
          }
          if (!c->Ingest(batch).ok()) return;
          // Steady background load (~30k pts/s), not ring saturation:
          // an unthrottled loop keeps every ring near the busy mark and
          // the sweep measures barrier waits instead of query cost.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });

      std::atomic<std::uint64_t> completed{0};
      Stopwatch watch;
      std::vector<std::thread> workers;
      for (std::size_t w = 0; w < threads; ++w) {
        workers.emplace_back([&, w] {
          auto c = server::Client::Connect("127.0.0.1", srv.port());
          if (!c.ok()) {
            sweep_failed.store(true);
            return;
          }
          datagen::Rng rng(bench::kBenchSeed + 17 * (w + 1));
          for (std::size_t q = 0; q < queries_per_thread; ++q) {
            const traj::ObjectId id = rng.NextBelow(server_objects);
            // Mid-trajectory timestamp: SerCar samples ~1 Hz from 0.
            auto r = c->PositionAt(id, 1.0);
            if (!r.ok() &&
                r.status().code() != StatusCode::kNotFound) {
              sweep_failed.store(true);
              return;
            }
            completed.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (std::thread& t : workers) t.join();
      const double sweep_seconds = watch.ElapsedSeconds();
      stop_ingest.store(true);
      ingester.join();
      if (sweep_failed.load() ||
          completed.load() != threads * queries_per_thread) {
        std::fprintf(stderr,
                     "bench_throughput: server query sweep failed at %zu "
                     "threads\n",
                     threads);
        return 1;
      }
      obs::HistogramSnapshot snapshot = query_hist->Snapshot();
      for (std::size_t b = 0; b < obs::HistogramSnapshot::kBuckets; ++b) {
        snapshot.buckets[b] -= before.buckets[b];
      }
      snapshot.count -= before.count;
      snapshot.sum -= before.sum;
      SweepRow row;
      row.threads = threads;
      row.queries = completed.load();
      row.qps = static_cast<double>(completed.load()) / sweep_seconds;
      row.p50_ms = snapshot.ApproxPercentile(0.5) / 1e6;
      row.p99_ms = snapshot.ApproxPercentile(0.99) / 1e6;
      sweep.push_back(row);
      std::printf(
          "server: %zu client thread(s)  %7.0f qps  p50 %.3f ms  p99 "
          "%.3f ms  (%llu live objects)\n",
          threads, row.qps, row.p50_ms, row.p99_ms,
          static_cast<unsigned long long>(live_objects));
    }

    const server::StatsBody final_stats = srv.Stats();
    const Status stopped = srv.Stop();
    std::filesystem::remove_all(server_store);
    if (!stopped.ok()) {
      std::fprintf(stderr, "bench_throughput: server stop failed: %s\n",
                   stopped.ToString().c_str());
      return 1;
    }

    for (const SweepRow& row : sweep) {
      JsonRecord rec;
      rec.Str("algorithm", "OPERB");
      rec.Str("spec", sopts.engine.spec.ToString());
      rec.Int("live_objects", static_cast<long long>(live_objects));
      rec.Int("ingest_points", static_cast<long long>(updates.size()));
      rec.Num("ingest_seconds", ingest_seconds);
      rec.Num("ingest_points_per_sec",
              static_cast<double>(updates.size()) / ingest_seconds);
      rec.Int("client_threads", static_cast<long long>(row.threads));
      rec.Int("queries", static_cast<long long>(row.queries));
      rec.Num("query_qps", row.qps);
      rec.Num("query_p50_ms", row.p50_ms);
      rec.Num("query_p99_ms", row.p99_ms);
      rec.Int("seals", static_cast<long long>(final_stats.seals));
      rec.Int("backpressure_rejects",
              static_cast<long long>(final_stats.backpressure_rejects));
      server_records.push_back(rec);
    }
  }

  // ------------------------------------------------------------------
  // Emit JSON.
  // ------------------------------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_throughput: cannot open %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"operb-bench-throughput\",\n"
               "  \"schema_version\": 10,\n"
               "  \"smoke\": %s,\n"
               "  \"unix_time\": %lld,\n"
               "  \"zeta\": %g,\n"
               "  \"seed\": %llu,\n",
               smoke ? "true" : "false",
               static_cast<long long>(std::time(nullptr)), kZeta,
               static_cast<unsigned long long>(bench::kBenchSeed));
  std::fprintf(f, "  \"ingest\": %s,\n", JoinRecords(ingest).c_str());
  std::fprintf(f, "  \"steady_state\": %s,\n", JoinRecords(steady).c_str());
  std::fprintf(f, "  \"batched_vs_pointwise\": %s,\n",
               JoinRecords(batched_rows).c_str());
  std::fprintf(f, "  \"end_to_end\": %s,\n", JoinRecords(end_to_end).c_str());
  std::fprintf(f, "  \"concurrent_streams\": %s,\n",
               JoinRecords(concurrent).c_str());
  std::fprintf(f, "  \"facade_overhead\": %s,\n",
               JoinRecords(facade).c_str());
  std::fprintf(f, "  \"metrics_overhead\": %s,\n",
               JoinRecords(metrics_records).c_str());
  std::fprintf(f, "  \"store\": %s,\n",
               JoinRecords(store_records).c_str());
  std::fprintf(f, "  \"checkpoint\": %s,\n",
               JoinRecords(checkpoint_records).c_str());
  std::fprintf(f, "  \"server\": %s\n}\n",
               JoinRecords(server_records).c_str());
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "bench_throughput: write failure on %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// bench_throughput: in-process measurements nothing else in the repo
// takes — the sink-path constants of every algorithm, the batched-path
// and obs-instrument gates, engine checkpoint/restore and the live
// server's client-thread sweep.
//
// Emits machine-readable BENCH_throughput.json (schema documented in
// README.md "Performance"; validated by validate_throughput_json.py):
//
//   steady_state       — each algorithm's sink-path compression throughput
//                        (segments stream to a counting sink; no buffer)
//   batched_vs_pointwise — OPERB's staged Push(span) against per-point
//                        Push on each profile plus a dense GeoLife
//                        variant; output hashes must match, and in full
//                        mode the dense row's median speedup must be
//                        >= 2x
//   metrics_overhead   — the same steady-state sink loop plain vs
//                        instrumented the way the engine batches its
//                        obs updates (per ~64-point Counter::Add +
//                        MaxGauge::Observe, one histogram Record per
//                        pass); the run FAILS if live metrics cost the
//                        hot loop more than 3% (median) over the plain
//                        loop (which is what an OPERB_NO_METRICS build
//                        compiles the instrumentation down to)
//   checkpoint         — StreamEngine::Checkpoint on a live engine
//                        halfway through a fleet feed: snapshot write
//                        latency and file size (bytes per live state),
//                        CreateFromCheckpoint restore latency, and an
//                        output-match gate — the run FAILS unless
//                        prefix + resumed-tail output equals the
//                        uninterrupted run's (DESIGN.md §9)
//   server             — an in-process TrajectoryServer holding a live
//                        fleet, PositionAt swept over 1/4/8 loopback
//                        client threads against a live ingester
//
// CSV parsing, the end-to-end file flow, the engine's worker sweep and
// the store are measured by perfbench (BENCHMARK.json) with repeated
// runs and spreads; this harness does not time them again.
//
// Every simplifier-bearing record carries the resolved canonical spec
// string of what ran (schema version 12). Both timing gates run N
// interleaved, paired rounds (alternating which side goes first) and are
// judged on the median of the per-round ratios; the JSON records that
// median and the ratios' interquartile range, so one lucky or unlucky
// sample neither passes nor fails a gate.
//
// `--smoke` shrinks every dataset to a single fast pass (for CI), `--out
// PATH` overrides the default ./BENCH_throughput.json. The metrics gate
// is judged after the JSON is written, so a failing run still leaves its
// numbers behind.
//
// Exit codes: 0 success, 1 failed gate or write failure, 2 usage error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <utility>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/spec.h"
#include "bench_util.h"
#include "common/serial.h"
#include "common/stopwatch.h"
#include "core/operb.h"
#include "engine/stream_engine.h"
#include "geo/bbox.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"

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

/// Median and interquartile range of `v` (quartiles by linear
/// interpolation between order statistics). `v` must be non-empty.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

Spread MedianAndIqr(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto quantile = [&v](double q) {
    const double at = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

/// Seconds of each side over `rounds` paired rounds; the side that runs
/// first alternates, so neither inherits the other's warm (or throttled)
/// state systematically. `a` and `b` return the seconds they measured.
template <typename A, typename B>
std::pair<std::vector<double>, std::vector<double>> PairedRounds(int rounds,
                                                                 A&& a, B&& b) {
  std::vector<double> a_s(static_cast<std::size_t>(rounds));
  std::vector<double> b_s(static_cast<std::size_t>(rounds));
  for (std::size_t r = 0; r < a_s.size(); ++r) {
    if (r % 2 == 0) {
      a_s[r] = a();
      b_s[r] = b();
    } else {
      b_s[r] = b();
      a_s[r] = a();
    }
  }
  return {std::move(a_s), std::move(b_s)};
}

/// Element-wise num[i] / den[i].
std::vector<double> Ratios(const std::vector<double>& num,
                           const std::vector<double>& den) {
  std::vector<double> out(num.size());
  for (std::size_t i = 0; i < num.size(); ++i) out[i] = num[i] / den[i];
  return out;
}

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
  // Timing gates that failed; reported and turned into exit code 1 only
  // after the JSON is written, so a failing run keeps its evidence.
  std::vector<std::string> failed_gates;
  bench::Banner("Throughput baseline: steady state / overheads / server",
                "Theorem 5: one-pass O(n) time, O(1) state; constants are "
                "this harness's subject");

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
      auto made = api::AlgorithmRegistry::Global().MakeStreaming(spec);
      if (!made.ok()) {
        std::fprintf(stderr, "bench_throughput: %s\n",
                     made.status().ToString().c_str());
        return 1;
      }
      baselines::StreamingSimplifier& simplifier = **made;
      std::size_t segments = 0;
      simplifier.SetSink(
          [&segments](const traj::RepresentedSegment&) { ++segments; });
      const Timing tm = TimeLoop([&] {
        segments = 0;
        for (const traj::Trajectory& t : dataset) {
          simplifier.Push(std::span<const geo::Point>(t.points()));
          simplifier.Finish();
          simplifier.Reset();
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
  // batched path's target workload. Paired rounds, judged on the median
  // per-round speedup: on throttling machines the paired ratio stays
  // stable even when absolute numbers wobble. The hash covers the
  // emitted segment bytes; the two paths must produce identical streams
  // (bit-identity gate).
  // ------------------------------------------------------------------
  std::vector<JsonRecord> batched_rows;
  {
    const int rounds = smoke ? 3 : 25;
    const auto seconds_of = [](auto& fn) {
      return [&fn] {
        Stopwatch w;
        fn();
        return w.ElapsedSeconds();
      };
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

      const auto [pointwise_runs, batched_runs] = PairedRounds(
          rounds, seconds_of(run_pointwise), seconds_of(run_batched));
      const double pointwise_s = MedianAndIqr(pointwise_runs).median;
      const double batched_s = MedianAndIqr(batched_runs).median;
      const Spread speedup =
          MedianAndIqr(Ratios(pointwise_runs, batched_runs));

      JsonRecord rec;
      rec.Str("name", c.name);
      rec.Int("points", static_cast<long long>(total));
      rec.Int("rounds", rounds);
      rec.Num("pointwise_points_per_sec",
              static_cast<double>(total) / pointwise_s);
      rec.Num("batched_points_per_sec",
              static_cast<double>(total) / batched_s);
      rec.Num("speedup_median", speedup.median);
      rec.Num("speedup_iqr", speedup.iqr);
      rec.Str("hash_pointwise", hex_str(hash_pointwise));
      rec.Str("hash_batched", hex_str(hash_batched));
      rec.Int("hash_match", hash_pointwise == hash_batched ? 1 : 0);
      batched_rows.push_back(rec);
      std::printf(
          "batched %-13s pointwise %7.2fM -> batched %7.2fM pts/s  %4.2fx "
          "(IQR %.2f)  %zu segs  hashes %s\n",
          c.name.c_str(), static_cast<double>(total) / pointwise_s / 1e6,
          static_cast<double>(total) / batched_s / 1e6, speedup.median,
          speedup.iqr, segments_pointwise,
          hash_pointwise == hash_batched ? "match" : "DIVERGE");
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
    const auto simplifier = bench::MakePaperSimplifier("OPERB", kZeta);
    std::size_t segments = 0;
    simplifier->SetSink(
        [&segments](const traj::RepresentedSegment&) { ++segments; });
    const auto run_plain = [&] {
      return TimeLoop([&] {
        segments = 0;
        for (const traj::Trajectory& t : dataset) {
          simplifier->Push(std::span<const geo::Point>(t.points()));
          simplifier->Finish();
          simplifier->Reset();
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
        segments = 0;
        for (const traj::Trajectory& t : dataset) {
          std::size_t since_batch = 0;
          for (std::size_t i = 0; i < t.size(); i += kStride) {
            const std::size_t take = std::min(kStride, t.size() - i);
            // The span run is whole-trajectory; feed the instruments
            // at the same stride the engine's FlushShard batches them.
            since_batch += take;
            points_ctr->Add(take);
            occupancy->Observe(static_cast<std::int64_t>(since_batch));
          }
          simplifier->Push(std::span<const geo::Point>(t.points()));
          simplifier->Finish();
          simplifier->Reset();
        }
        segments_ctr->Add(segments);
        pass_ns->Record(static_cast<std::uint64_t>(NowNanos() - start_ns));
      });
    };
    const int rounds = smoke ? 3 : 11;
    const auto [plain_runs, instrumented_runs] = PairedRounds(
        rounds, [&] { return run_plain().seconds_per_pass; },
        [&] { return run_instrumented().seconds_per_pass; });
    const double plain_s = MedianAndIqr(plain_runs).median;
    const double instrumented_s = MedianAndIqr(instrumented_runs).median;
    const Spread ratio = MedianAndIqr(Ratios(instrumented_runs, plain_runs));
    const double overhead_pct = 100.0 * (ratio.median - 1.0);
    JsonRecord rec;
    rec.Str("algorithm", "OPERB");
    rec.Str("spec", "OPERB:zeta=40,fidelity=paper");
    rec.Str("profile", "SerCar");
    rec.Int("points", static_cast<long long>(total));
    rec.Int("rounds", rounds);
    rec.Int("metrics_compiled_in", obs::kMetricsEnabled ? 1 : 0);
    rec.Num("plain_points_per_sec", static_cast<double>(total) / plain_s);
    rec.Num("instrumented_points_per_sec",
            static_cast<double>(total) / instrumented_s);
    rec.Num("overhead_pct_median", overhead_pct);
    rec.Num("overhead_pct_iqr", 100.0 * ratio.iqr);
    metrics_records.push_back(rec);
    std::printf("metrics overhead: plain %.2f M pts/s, instrumented "
                "%.2f M pts/s (median %+.1f%%, IQR %.1f pp)\n",
                static_cast<double>(total) / plain_s / 1e6,
                static_cast<double>(total) / instrumented_s / 1e6,
                overhead_pct, 100.0 * ratio.iqr);
    // Smoke datasets run microsecond-scale passes where timer noise
    // dominates; the full-mode 3% gate is the meaningful one.
    const double tolerance_pct = smoke ? 50.0 : 3.0;
    if (overhead_pct > tolerance_pct) {
      char msg[128];
      std::snprintf(msg, sizeof(msg),
                    "metrics_overhead: median %.1f%% exceeds the %.0f%% gate",
                    overhead_pct, tolerance_pct);
      failed_gates.push_back(msg);
    }
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
               "  \"schema_version\": 12,\n"
               "  \"smoke\": %s,\n"
               "  \"unix_time\": %lld,\n"
               "  \"zeta\": %g,\n"
               "  \"seed\": %llu,\n",
               smoke ? "true" : "false",
               static_cast<long long>(std::time(nullptr)), kZeta,
               static_cast<unsigned long long>(bench::kBenchSeed));
  std::fprintf(f, "  \"steady_state\": %s,\n", JoinRecords(steady).c_str());
  std::fprintf(f, "  \"batched_vs_pointwise\": %s,\n",
               JoinRecords(batched_rows).c_str());
  std::fprintf(f, "  \"metrics_overhead\": %s,\n",
               JoinRecords(metrics_records).c_str());
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
  for (const std::string& gate : failed_gates) {
    std::fprintf(stderr, "bench_throughput: gate failed: %s\n", gate.c_str());
  }
  return failed_gates.empty() ? 0 : 1;
}

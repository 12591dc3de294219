// Micro-benchmarks (google-benchmark) of the hot kernels: distance
// primitives, the fitting function, and per-point throughput of every
// simplifier. These back the complexity claims (O(1) fitting step, O(n)
// one-pass algorithms) with hardware numbers.

#include <benchmark/benchmark.h>

#include <span>

#include "baselines/simplifier.h"
#include "core/fitting.h"
#include "core/operb.h"
#include "core/operb_a.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "geo/distance.h"
#include "geo/simd.h"

namespace {

using namespace operb;  // NOLINT

traj::Trajectory BenchTrajectory(std::size_t n) {
  datagen::Rng rng(7);
  return datagen::GenerateTrajectory(
      datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar), n, &rng);
}

void BM_PointToLineDistance(benchmark::State& state) {
  const geo::Vec2 a{0, 0}, b{100, 37};
  double x = 0.0;
  for (auto _ : state) {
    x += geo::PointToLineDistance({x - 50.0, 20.0}, a, b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_PointToLineDistance);

/// The pre-optimization AnchoredLine kernel: re-derive the unit vector
/// from theta with sin/cos on every call. Kept here (not in the library)
/// so the trig-free rewrite's win stays directly measurable.
double PointToAnchoredLineDistanceTrig(geo::Vec2 p,
                                       const geo::AnchoredLine& line) {
  const geo::Vec2 dir = geo::Vec2::FromAngle(line.theta);
  return std::fabs(dir.Cross(p - line.anchor));
}

void BM_AnchoredLineDistanceTrig(benchmark::State& state) {
  const geo::AnchoredLine line{{0, 0}, 100.0, 0.354};
  double x = 0.0;
  for (auto _ : state) {
    x += PointToAnchoredLineDistanceTrig({x - 50.0, 20.0}, line);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_AnchoredLineDistanceTrig);

/// The shipping kernel: cached unit direction, one cross product.
void BM_AnchoredLineDistanceDir(benchmark::State& state) {
  const geo::AnchoredLine line{{0, 0}, 100.0, 0.354};
  double x = 0.0;
  for (auto _ : state) {
    x += geo::PointToLineDistance({x - 50.0, 20.0}, line);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_AnchoredLineDistanceDir);

void BM_SynchronousEuclideanDistance(benchmark::State& state) {
  const geo::Point a{0, 0, 0}, b{100, 37, 60};
  double x = 0.0;
  for (auto _ : state) {
    x += geo::SynchronousEuclideanDistance({x - 50.0, 20.0, 30.0}, a, b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_SynchronousEuclideanDistance);

// --------------------------------------------------------------------
// geo::simd batch kernels on a batch of 64 points (the OperbStream
// staging window), points near the line so the early-exit count kernels
// scan the whole batch. The batched_vs_pointwise section of
// bench_throughput measures what staging buys the stream as a whole.
// --------------------------------------------------------------------

constexpr std::size_t kBatch = 64;

struct BatchInputs {
  double xs[kBatch], ys[kBatch];
  geo::Vec2 anchor{500.0, -250.0};
  geo::Vec2 dir{0.8, 0.6};
  geo::Vec2 ra_unit{-0.6, 0.8};

  BatchInputs() {
    datagen::Rng rng(7);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const double along = static_cast<double>(i) * 12.0;
      const double across = (rng.NextDouble() - 0.5) * 16.0;
      xs[i] = anchor.x + along * dir.x - across * dir.y;
      ys[i] = anchor.y + along * dir.y + across * dir.x;
    }
  }
};

const BatchInputs& Inputs() {
  static const BatchInputs inputs;
  return inputs;
}

void BM_BatchRadii(benchmark::State& state) {
  const BatchInputs& in = Inputs();
  double out[kBatch];
  for (auto _ : state) {
    geo::simd::Radii(in.xs, in.ys, kBatch, in.anchor, out);
    benchmark::DoNotOptimize(out[kBatch - 1]);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_BatchRadii);

void BM_BatchStageExtend(benchmark::State& state) {
  const BatchInputs& in = Inputs();
  double r[kBatch], off[kBatch], ra[kBatch], dot[kBatch];
  for (auto _ : state) {
    geo::simd::StageExtend(in.xs, in.ys, kBatch, in.anchor, in.dir,
                           in.ra_unit, /*want_dot=*/true, r, off, ra, dot);
    benchmark::DoNotOptimize(r[kBatch - 1]);
    benchmark::DoNotOptimize(ra[kBatch - 1]);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_BatchStageExtend);

void BM_BatchCountWithin(benchmark::State& state) {
  const BatchInputs& in = Inputs();
  std::size_t total = 0;
  for (auto _ : state) {
    total += geo::simd::CountWithin(in.xs, in.ys, kBatch, in.anchor, in.dir,
                                    1e9);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_BatchCountWithin);

void BM_BatchCountExtendAccept(benchmark::State& state) {
  const BatchInputs& in = Inputs();
  double r[kBatch], off[kBatch], ra[kBatch], dot[kBatch];
  geo::simd::StageExtend(in.xs, in.ys, kBatch, in.anchor, in.dir,
                         in.ra_unit, /*want_dot=*/true, r, off, ra, dot);
  geo::simd::ExtendAcceptParams p;
  p.length = 0.0;
  p.slack = 1e9;
  p.d_plus_max = 1e9;
  p.d_minus_max = 1e9;
  p.zeta = 1e9;
  p.guard = true;
  p.drift_plus = 1e9;
  p.drift_minus = 1e9;
  p.drift_back = 1e9;
  p.sum_ok = true;
  std::size_t total = 0;
  for (auto _ : state) {
    total += geo::simd::CountExtendAccept(r, off, ra, dot, kBatch, p);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_BatchCountExtendAccept);

void BM_FittingActivate(benchmark::State& state) {
  const core::OperbOptions opts = core::OperbOptions::Optimized(10.0);
  datagen::Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    core::FittingFunction f({0, 0}, opts);
    f.Activate({6.0, 0.0});
    state.ResumeTiming();
    // 64 activations per iteration.
    for (int i = 2; i < 66; ++i) {
      const double r = i * 5.0 + 1.0;
      const geo::Vec2 p =
          geo::Vec2::FromAngle(0.002 * i) * r;
      if (f.IsActive(r)) f.Activate(p);
    }
    benchmark::DoNotOptimize(f.theta());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FittingActivate);

void BM_OperbStreamPush(benchmark::State& state) {
  const auto t = BenchTrajectory(20000);
  for (auto _ : state) {
    core::OperbStream stream(core::OperbOptions::Optimized(40.0));
    for (const geo::Point& p : t) stream.Push(p);
    stream.Finish();
    benchmark::DoNotOptimize(stream.emitted().size());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_OperbStreamPush);

/// Zero-allocation emission: segments go straight to a counting sink.
void BM_OperbStreamPushSink(benchmark::State& state) {
  const auto t = BenchTrajectory(20000);
  for (auto _ : state) {
    core::OperbStream stream(core::OperbOptions::Optimized(40.0));
    std::size_t segments = 0;
    stream.SetSink(
        [&segments](const traj::RepresentedSegment&) { ++segments; });
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    benchmark::DoNotOptimize(segments);
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_OperbStreamPushSink);

void BM_OperbAStreamPush(benchmark::State& state) {
  const auto t = BenchTrajectory(20000);
  for (auto _ : state) {
    core::OperbAStream stream(core::OperbAOptions::Optimized(40.0));
    for (const geo::Point& p : t) stream.Push(p);
    stream.Finish();
    benchmark::DoNotOptimize(stream.stats().patches_applied);
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_OperbAStreamPush);

void BM_Simplifier(benchmark::State& state) {
  const auto algo = static_cast<baselines::Algorithm>(state.range(0));
  const auto t = BenchTrajectory(20000);
  const auto s = baselines::MakeSimplifier(algo, 40.0);
  state.SetLabel(std::string(s->name()));
  for (auto _ : state) {
    const auto rep = s->Simplify(t);
    benchmark::DoNotOptimize(rep.size());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_Simplifier)
    ->DenseRange(0, static_cast<int>(baselines::Algorithm::kOPERBA), 1);

}  // namespace

BENCHMARK_MAIN();

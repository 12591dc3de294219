// Numeric robustness and model-level statistics: extreme coordinates and
// bounds, the Gauss-Markov GPS error model, and stream-lifecycle edges.

#include <cmath>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "core/operb.h"
#include "core/operb_a.h"
#include "datagen/noise.h"
#include "datagen/rng.h"
#include "eval/verifier.h"
#include "test_util.h"

namespace operb {
namespace {

using testutil::Generated;

TEST(NoiseModelTest, StationaryVarianceMatchesSigma) {
  datagen::Rng rng(5);
  datagen::GaussMarkovNoise noise(3.0, 90.0);
  // Warm up past several correlation times, then measure.
  for (int i = 0; i < 200; ++i) noise.Sample(30.0, &rng);
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const geo::Vec2 e = noise.Sample(30.0, &rng);
    sum2 += e.x * e.x + e.y * e.y;
  }
  const double per_axis_var = sum2 / (2.0 * n);
  EXPECT_NEAR(std::sqrt(per_axis_var), 3.0, 0.25);
}

TEST(NoiseModelTest, DenseSamplesShareTheirError) {
  // Consecutive fixes 1 s apart with tau = 90 s must be highly
  // correlated: their difference is much smaller than sigma.
  datagen::Rng rng(6);
  datagen::GaussMarkovNoise noise(3.0, 90.0);
  geo::Vec2 prev = noise.Sample(1.0, &rng);
  double diff2 = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const geo::Vec2 cur = noise.Sample(1.0, &rng);
    diff2 += geo::SquaredDistance(cur, prev);
    prev = cur;
  }
  const double rms_step = std::sqrt(diff2 / n);
  EXPECT_LT(rms_step, 1.0);  // << sigma * sqrt(2) = 4.24
}

TEST(NoiseModelTest, ZeroTauDegradesToWhiteNoise) {
  datagen::Rng rng(7);
  datagen::GaussMarkovNoise noise(3.0, 0.0);
  geo::Vec2 prev = noise.Sample(1.0, &rng);
  double dot_sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const geo::Vec2 cur = noise.Sample(1.0, &rng);
    dot_sum += cur.Dot(prev);
    prev = cur;
  }
  // Lag-1 autocorrelation ~ 0 for white noise.
  EXPECT_NEAR(dot_sum / n / 9.0, 0.0, 0.1);
}

TEST(NoiseModelTest, ZeroSigmaIsExactlyZero) {
  datagen::Rng rng(8);
  datagen::GaussMarkovNoise noise(0.0, 90.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(noise.Sample(5.0, &rng), geo::Vec2(0.0, 0.0));
  }
}

TEST(RobustnessTest, FarFromOriginCoordinatesStayBounded) {
  // A trajectory 10,000 km from the projection origin (poorly chosen
  // reference) must still satisfy the bound: the algorithms use relative
  // geometry only.
  auto t = Generated(datagen::DatasetKind::kSerCar, 2000, 3);
  for (geo::Point& p : t.mutable_points()) {
    p.x += 1e7;
    p.y -= 1e7;
  }
  const auto rep = core::SimplifyOperb(t, core::OperbOptions::Optimized(20.0));
  ASSERT_TRUE(rep.ValidateAgainst(t).ok());
  // Absolute-coordinate cross products lose ~9 digits here; allow a
  // micrometer-scale slack.
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 20.0, 1e-6).bounded);
}

TEST(RobustnessTest, ExtremeZetas) {
  const auto t = Generated(datagen::DatasetKind::kGeoLife, 500, 4);
  // Microscopic bound: nothing compresses, everything valid.
  const auto tiny = core::SimplifyOperb(t, core::OperbOptions::Optimized(1e-6));
  ASSERT_TRUE(tiny.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, tiny, 1e-6).bounded);
  EXPECT_GT(tiny.size(), t.size() / 3);
  // Planet-sized bound: one segment (plus possible closing segment).
  const auto huge = core::SimplifyOperb(t, core::OperbOptions::Optimized(1e7));
  ASSERT_TRUE(huge.ValidateAgainst(t).ok());
  EXPECT_LE(huge.size(), 2u);
}

TEST(RobustnessTest, FinishIsIdempotentAndTerminal) {
  core::OperbStream stream(core::OperbOptions::Optimized(10.0));
  std::size_t emitted = 0;
  stream.SetSink([&emitted](const traj::RepresentedSegment&) { ++emitted; });
  stream.Push({0, 0, 0});
  stream.Push({100, 0, 1});
  stream.Finish();
  EXPECT_EQ(emitted, 1u);
  stream.Finish();  // second Finish is a no-op
  EXPECT_EQ(emitted, 1u);
}

TEST(RobustnessTest, OperbAHandlesDegenerateClusters) {
  // Bursts of nearly identical fixes between long hops (a parked
  // vehicle with its engine on) — exercises zero-length candidate
  // segments in the patcher.
  traj::Trajectory t;
  double time = 0.0;
  for (int hop = 0; hop < 10; ++hop) {
    const double x = hop * 500.0;
    const double y = (hop % 2) * 400.0;
    for (int j = 0; j < 20; ++j) {
      t.AppendUnchecked({x + j * 0.01, y, time});
      time += 1.0;
    }
  }
  const auto rep = core::SimplifyOperbA(t, core::OperbAOptions::Optimized(30.0));
  ASSERT_TRUE(rep.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 30.0).bounded);
}

TEST(RobustnessTest, VeryLongSingleSegmentHitsCapNotOverflow) {
  // Raw options: with the absorb optimization on, a single cap break
  // suffices (absorption checks against a fixed chord and needs no cap).
  core::OperbOptions o = core::OperbOptions::Raw(50.0);
  o.max_points_per_segment = 1000;
  traj::Trajectory t;
  for (int i = 0; i < 5000; ++i) {
    t.AppendUnchecked({i * 2.0, 0.0, static_cast<double>(i)});
  }
  core::OperbStats stats;
  const auto rep = core::SimplifyOperb(t, o, &stats);
  EXPECT_GE(stats.cap_breaks, 4u);
  ASSERT_TRUE(rep.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 50.0).bounded);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  EXPECT_GT(w.ElapsedNanos(), 0);
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
  const double before = w.ElapsedMillis();
  w.Restart();
  EXPECT_LE(w.ElapsedMillis(), before + 1000.0);
}

}  // namespace
}  // namespace operb

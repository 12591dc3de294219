#include <cstddef>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/operb.h"
#include "eval/metrics.h"
#include "eval/verifier.h"
#include "test_util.h"

namespace operb::core {
namespace {

using testutil::Generated;
using testutil::MakeTrajectory;
using testutil::RandomWalk;
using testutil::StraightLine;
using testutil::ZigZag;

TEST(OperbTest, EmptyAndSinglePointYieldEmptyRepresentation) {
  const OperbOptions opts = OperbOptions::Optimized(10.0);
  traj::Trajectory empty;
  EXPECT_TRUE(SimplifyOperb(empty, opts).empty());
  traj::Trajectory one;
  one.AppendUnchecked({1.0, 2.0, 0.0});
  EXPECT_TRUE(SimplifyOperb(one, opts).empty());
}

TEST(OperbTest, TwoPointsYieldOneSegment) {
  const auto t = MakeTrajectory({{0, 0}, {100, 0}});
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(10.0));
  ASSERT_EQ(rep.size(), 1u);
  EXPECT_EQ(rep[0].first_index, 0u);
  EXPECT_EQ(rep[0].last_index, 1u);
  EXPECT_EQ(rep[0].start, geo::Vec2(0, 0));
  EXPECT_EQ(rep[0].end, geo::Vec2(100, 0));
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
}

TEST(OperbTest, StraightLineCompressesToOneSegment) {
  const auto t = StraightLine(500);
  for (const OperbOptions& opts :
       {OperbOptions::Raw(10.0), OperbOptions::Optimized(10.0)}) {
    const auto rep = SimplifyOperb(t, opts);
    ASSERT_EQ(rep.size(), 1u) << opts.ToString();
    EXPECT_EQ(rep[0].first_index, 0u);
    EXPECT_EQ(rep[0].last_index, 499u);
    EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  }
}

TEST(OperbTest, NearStraightLineStaysBoundedAndOptimizationsHelp) {
  // Small offsets off the axis. Raw OPERB may still split (the first
  // active point can fix a misaligned initial angle — the motivation for
  // optimization (1)), but the bound must hold and the optimized variant
  // must compress at least as well.
  traj::Trajectory t;
  datagen::Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    t.AppendUnchecked({i * 10.0, rng.Uniform(-4.9, 4.9), double(i)});
  }
  const auto raw = SimplifyOperb(t, OperbOptions::Raw(20.0));
  const auto opt = SimplifyOperb(t, OperbOptions::Optimized(20.0));
  EXPECT_TRUE(raw.ValidateAgainst(t).ok());
  EXPECT_TRUE(opt.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, raw, 20.0).bounded);
  EXPECT_TRUE(eval::VerifyErrorBound(t, opt, 20.0).bounded);
  EXPECT_LE(opt.size(), raw.size());
  EXPECT_LE(opt.size(), 6u);  // near-straight data compresses hard
}

TEST(OperbTest, SharpTurnBreaksSegment) {
  // An L-shaped path cannot be one segment once the leg exceeds zeta.
  traj::Trajectory t;
  for (int i = 0; i <= 20; ++i) t.AppendUnchecked({i * 10.0, 0.0, double(i)});
  for (int i = 1; i <= 20; ++i)
    t.AppendUnchecked({200.0, i * 10.0, 20.0 + i});
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(15.0));
  EXPECT_GE(rep.size(), 2u);
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 15.0).bounded);
}

TEST(OperbTest, RepresentationIsContinuousAndChains) {
  const auto t = ZigZag(101);
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(12.0));
  ASSERT_FALSE(rep.empty());
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  for (std::size_t i = 1; i < rep.size(); ++i) {
    EXPECT_EQ(rep[i].start, rep[i - 1].end);
    EXPECT_EQ(rep[i].first_index, rep[i - 1].last_index);
  }
}

TEST(OperbTest, StreamingMatchesBatch) {
  const auto t = Generated(datagen::DatasetKind::kSerCar, 4000, 99);
  const OperbOptions opts = OperbOptions::Optimized(25.0);
  const auto batch = SimplifyOperb(t, opts);

  OperbStream stream(opts);
  traj::PiecewiseRepresentation incremental;
  stream.SetSink([&incremental](const traj::RepresentedSegment& s) {
    incremental.Append(s);
  });
  for (const geo::Point& p : t) stream.Push(p);
  stream.Finish();

  ASSERT_EQ(batch.size(), incremental.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].first_index, incremental[i].first_index);
    EXPECT_EQ(batch[i].last_index, incremental[i].last_index);
    EXPECT_EQ(batch[i].start, incremental[i].start);
    EXPECT_EQ(batch[i].end, incremental[i].end);
  }
}

TEST(OperbTest, StatsCountEveryPointOnce) {
  const auto t = Generated(datagen::DatasetKind::kTaxi, 3000, 5);
  OperbStats stats;
  SimplifyOperb(t, OperbOptions::Optimized(40.0), &stats);
  EXPECT_EQ(stats.points_processed, t.size());
}

TEST(OperbTest, DeterministicAcrossRuns) {
  const auto t = Generated(datagen::DatasetKind::kGeoLife, 3000, 11);
  const OperbOptions opts = OperbOptions::Optimized(15.0);
  const auto a = SimplifyOperb(t, opts);
  const auto b = SimplifyOperb(t, opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(OperbTest, OptimizationsImproveCompressionOnDenseData) {
  // The headline claim of Section 4.4 / Figure 16: optimized OPERB has a
  // (much) lower compression ratio than Raw-OPERB on dense datasets.
  const auto t = Generated(datagen::DatasetKind::kSerCar, 8000, 21);
  const auto raw = SimplifyOperb(t, OperbOptions::Raw(40.0));
  const auto opt = SimplifyOperb(t, OperbOptions::Optimized(40.0));
  EXPECT_LT(eval::CompressionRatio(t, opt), eval::CompressionRatio(t, raw));
}

TEST(OperbTest, TrailingInactivePointsEndAtTheFinalSample) {
  // Trailing inactive points would leave the pseudocode's representation
  // ending at the last *active* point; the closing segment makes the
  // last endpoint P_n.
  traj::Trajectory t;
  for (int i = 0; i <= 10; ++i) t.AppendUnchecked({i * 20.0, 0.0, double(i)});
  // Trailing cluster of inactive points near the end.
  for (int i = 1; i <= 5; ++i)
    t.AppendUnchecked({200.0 + 0.1 * i, 0.0, 10.0 + i});
  const auto rep = SimplifyOperb(t, OperbOptions::Raw(40.0));
  ASSERT_FALSE(rep.empty());
  EXPECT_EQ(rep[rep.size() - 1].last_index, t.size() - 1);
  EXPECT_EQ(rep[rep.size() - 1].end, t[t.size() - 1].pos());
}

TEST(OperbTest, CapForcesSegmentBreak) {
  OperbOptions opts = OperbOptions::Raw(1000.0);
  opts.max_points_per_segment = 100;
  const auto t = StraightLine(1000, 1.0);
  OperbStats stats;
  const auto rep = SimplifyOperb(t, opts, &stats);
  EXPECT_GT(stats.cap_breaks, 0u);
  EXPECT_GE(rep.size(), 9u);
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 1000.0).bounded);
}

TEST(OperbTest, AbsorbOptimizationConsumesPointsAfterBreak) {
  // A path that turns, then returns close to the first segment's line:
  // absorption should extend the first segment's coverage.
  OperbOptions with_absorb = OperbOptions::Optimized(20.0);
  OperbOptions without_absorb = with_absorb;
  without_absorb.opt_absorb = false;

  const auto t = Generated(datagen::DatasetKind::kTaxi, 5000, 31);
  OperbStats s_with, s_without;
  const auto rep_with = SimplifyOperb(t, with_absorb, &s_with);
  const auto rep_without = SimplifyOperb(t, without_absorb, &s_without);
  EXPECT_GT(s_with.points_absorbed, 0u);
  EXPECT_EQ(s_without.points_absorbed, 0u);
  EXPECT_TRUE(rep_with.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep_with, 20.0).bounded);
}

// ---------------------------------------------------------------------------
// Property sweep: for every dataset kind, zeta and optimization setting the
// output must be a valid, continuous, error-bounded representation.
// ---------------------------------------------------------------------------

struct SweepParam {
  datagen::DatasetKind kind;
  double zeta;
  bool optimized;
  std::uint64_t seed;
};

class OperbPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OperbPropertyTest, ErrorBoundedValidContinuous) {
  const SweepParam p = GetParam();
  const auto t = Generated(p.kind, 2500, p.seed);
  const OperbOptions opts = p.optimized ? OperbOptions::Optimized(p.zeta)
                                        : OperbOptions::Raw(p.zeta);
  const auto rep = SimplifyOperb(t, opts);
  ASSERT_TRUE(rep.ValidateAgainst(t).ok());
  const auto verdict = eval::VerifyErrorBound(t, rep, p.zeta);
  EXPECT_TRUE(verdict.bounded) << verdict.ToString();
  // Compression must never exceed 1 (plus the closing segment's +1).
  EXPECT_LE(rep.StoredPointCount(), t.size() + 1);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name(datagen::DatasetName(info.param.kind));
  name += "_z" + std::to_string(static_cast<int>(info.param.zeta));
  name += info.param.optimized ? "_opt" : "_raw";
  name += "_s" + std::to_string(info.param.seed);
  return name;
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> out;
  for (auto kind : datagen::AllDatasetKinds()) {
    for (double zeta : {5.0, 20.0, 40.0, 100.0}) {
      for (bool optimized : {false, true}) {
        for (std::uint64_t seed : {1ULL, 2ULL}) {
          out.push_back({kind, zeta, optimized, seed});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OperbPropertyTest,
                         ::testing::ValuesIn(MakeSweep()), SweepName);

// Adversarial inputs: random walks and degenerate shapes.
class OperbAdversarialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OperbAdversarialTest, RandomWalkStaysBounded) {
  const auto t = RandomWalk(1500, GetParam());
  for (double zeta : {5.0, 25.0}) {
    for (const OperbOptions& opts :
         {OperbOptions::Raw(zeta), OperbOptions::Optimized(zeta)}) {
      const auto rep = SimplifyOperb(t, opts);
      ASSERT_TRUE(rep.ValidateAgainst(t).ok()) << opts.ToString();
      const auto verdict = eval::VerifyErrorBound(t, rep, zeta);
      EXPECT_TRUE(verdict.bounded)
          << opts.ToString() << " " << verdict.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperbAdversarialTest,
                         ::testing::Range<std::uint64_t>(100, 110));

TEST(OperbEdgeTest, AllPointsIdenticalPosition) {
  traj::Trajectory t;
  for (int i = 0; i < 50; ++i) t.AppendUnchecked({5.0, 5.0, double(i)});
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(10.0));
  ASSERT_EQ(rep.size(), 1u);
  EXPECT_EQ(rep[0].last_index, 49u);
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
}

TEST(OperbEdgeTest, BackAndForthOnALine) {
  // Object oscillates along one axis; all points are collinear so one
  // segment suffices no matter how it moves in time.
  traj::Trajectory t;
  for (int i = 0; i < 200; ++i) {
    const double x = (i % 3 == 0) ? i * 2.0 : i * 2.0 - 30.0;
    t.AppendUnchecked({x, 0.0, double(i)});
  }
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(10.0));
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 10.0).bounded);
}

TEST(OperbEdgeTest, TinyZetaProducesManySegmentsButStaysBounded) {
  const auto t = Generated(datagen::DatasetKind::kGeoLife, 1000, 3);
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(0.5));
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 0.5).bounded);
}

}  // namespace
}  // namespace operb::core

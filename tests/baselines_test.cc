#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "baselines/bqs.h"
#include "baselines/dp.h"
#include "baselines/opw.h"
#include "baselines/streaming.h"
#include "core/operb.h"
#include "core/operb_a.h"
#include "core/options.h"
#include "eval/metrics.h"
#include "eval/verifier.h"
#include "geo/distance.h"
#include "test_util.h"

namespace operb::baselines {
namespace {

using testutil::Generated;
using testutil::MakeTrajectory;
using testutil::RandomWalk;
using testutil::StraightLine;
using testutil::ZigZag;

// ---------------------------------------------------------------------------
// Douglas-Peucker.
// ---------------------------------------------------------------------------

TEST(DpTest, StraightLineIsOneSegment) {
  const auto t = StraightLine(200);
  const auto rep = SimplifyDp(t, 1.0);
  ASSERT_EQ(rep.size(), 1u);
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
}

TEST(DpTest, SplitsAtFarthestPoint) {
  // A triangle wave with a single apex far off the baseline.
  const auto t = MakeTrajectory({{0, 0}, {50, 40}, {100, 0}});
  const auto rep = SimplifyDp(t, 10.0);
  ASSERT_EQ(rep.size(), 2u);
  EXPECT_EQ(rep[0].last_index, 1u);  // split exactly at the apex
}

TEST(DpTest, LargeZetaCollapsesEverything) {
  const auto t = ZigZag(101, 20.0, 30.0);
  const auto rep = SimplifyDp(t, 1000.0);
  ASSERT_EQ(rep.size(), 1u);
}

TEST(DpTest, IterativeMatchesRecursiveReference) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto t = RandomWalk(400, seed);
    for (double zeta : {5.0, 20.0, 60.0}) {
      const auto a = SimplifyDp(t, zeta);
      const auto b = SimplifyDpRecursive(t, zeta);
      ASSERT_EQ(a.size(), b.size()) << "seed=" << seed << " zeta=" << zeta;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first_index, b[i].first_index);
        EXPECT_EQ(a[i].last_index, b[i].last_index);
      }
    }
  }
}

TEST(DpTest, ErrorNeverExceedsZeta) {
  const auto t = Generated(datagen::DatasetKind::kGeoLife, 3000, 9);
  for (double zeta : {5.0, 40.0}) {
    const auto rep = SimplifyDp(t, zeta);
    const auto err = eval::MeasureError(t, rep);
    EXPECT_LE(err.max, zeta + 1e-9);
    EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  }
}

TEST(DpTest, DeepRecursionSafeOnPathologicalInput) {
  // A convex arc forces DP to peel one point per split — the explicit
  // stack version must not overflow where the recursive one might.
  traj::Trajectory t;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(i) / n * 1.5;
    t.AppendUnchecked(
        {1e5 * std::sin(a), -1e5 * std::cos(a), static_cast<double>(i)});
  }
  const auto rep = SimplifyDp(t, 0.0001);
  EXPECT_GT(rep.size(), n / 2);
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
}

// ---------------------------------------------------------------------------
// OPW.
// ---------------------------------------------------------------------------

TEST(OpwTest, WindowExtendsOverStraightRuns) {
  const auto t = StraightLine(300);
  const auto rep = SimplifyOpw(t, 5.0);
  ASSERT_EQ(rep.size(), 1u);
}

TEST(OpwTest, BreaksAtTurns) {
  traj::Trajectory t;
  for (int i = 0; i <= 10; ++i) t.AppendUnchecked({i * 20.0, 0.0, double(i)});
  for (int i = 1; i <= 10; ++i)
    t.AppendUnchecked({200.0, i * 20.0, 10.0 + i});
  const auto rep = SimplifyOpw(t, 10.0);
  EXPECT_EQ(rep.size(), 2u);
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
}

TEST(OpwTest, EveryEmittedWindowRespectsZeta) {
  const auto t = RandomWalk(500, 5);
  for (double zeta : {8.0, 30.0}) {
    const auto rep = SimplifyOpw(t, zeta);
    EXPECT_TRUE(rep.ValidateAgainst(t).ok());
    // OPW guarantees the bound for the emitted window's own points.
    const auto err = eval::MeasureError(t, rep);
    EXPECT_LE(err.max, zeta + 1e-9);
  }
}

TEST(OpwTest, SedVariantBoundsTimeSynchronizedError) {
  // A point that is spatially on the line but temporally displaced: the
  // Euclidean variant compresses it away, the SED variant does not.
  traj::Trajectory t;
  t.AppendUnchecked({0, 0, 0.0});
  t.AppendUnchecked({10, 0, 1.0});
  t.AppendUnchecked({80, 0, 2.0});  // way ahead of schedule
  t.AppendUnchecked({90, 0, 9.0});
  const auto euclid = SimplifyOpw(t, 5.0, OpwDistance::kEuclidean);
  const auto sed = SimplifyOpw(t, 5.0, OpwDistance::kSynchronous);
  EXPECT_EQ(euclid.size(), 1u);
  EXPECT_GT(sed.size(), 1u);
}

// ---------------------------------------------------------------------------
// BQS / FBQS.
// ---------------------------------------------------------------------------

TEST(BqsWindowTest, UpperBoundDominatesAllSummarizedPoints) {
  datagen::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    BqsWindow window({0.0, 0.0});
    std::vector<geo::Vec2> pts;
    for (int i = 0; i < 40; ++i) {
      const geo::Vec2 p{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
      pts.push_back(p);
      window.Add(p);
    }
    const geo::Vec2 end{rng.Uniform(-120, 120), rng.Uniform(-120, 120)};
    const auto bounds = window.BoundsForLine(end);
    double actual = 0.0;
    for (const geo::Vec2& p : pts) {
      actual = std::max(actual, geo::PointToLineDistance(p, {0, 0}, end));
    }
    EXPECT_GE(bounds.upper + 1e-6, actual) << "trial " << trial;
    EXPECT_LE(bounds.lower, actual + 1e-6) << "trial " << trial;
  }
}

TEST(BqsWindowTest, SinglePointBoundsAreExact) {
  BqsWindow window({0.0, 0.0});
  window.Add({10.0, 5.0});
  const auto bounds = window.BoundsForLine({20.0, 0.0});
  EXPECT_NEAR(bounds.upper, 5.0, 1e-9);
  EXPECT_NEAR(bounds.lower, 5.0, 1e-9);
}

TEST(BqsTest, MatchesOpwOutputs) {
  // BQS is OPW with a smarter (exact, thanks to the fallback) check, so
  // their outputs must be identical.
  for (std::uint64_t seed : {11ULL, 12ULL}) {
    const auto t = RandomWalk(600, seed);
    for (double zeta : {10.0, 30.0}) {
      const auto bqs = SimplifyBqs(t, zeta);
      const auto opw = SimplifyOpw(t, zeta);
      ASSERT_EQ(bqs.size(), opw.size()) << "seed=" << seed;
      for (std::size_t i = 0; i < bqs.size(); ++i) {
        EXPECT_EQ(bqs[i].first_index, opw[i].first_index);
        EXPECT_EQ(bqs[i].last_index, opw[i].last_index);
      }
    }
  }
}

TEST(FbqsTest, NeverBeatsBqsOnCompression) {
  // FBQS closes windows early on ambiguity, so it can only produce at
  // least as many segments as BQS.
  for (auto kind : {datagen::DatasetKind::kSerCar,
                    datagen::DatasetKind::kGeoLife}) {
    const auto t = Generated(kind, 3000, 23);
    const auto fbqs = SimplifyFbqs(t, 40.0);
    const auto bqs = SimplifyBqs(t, 40.0);
    EXPECT_GE(fbqs.size(), bqs.size());
    EXPECT_TRUE(fbqs.ValidateAgainst(t).ok());
    EXPECT_TRUE(bqs.ValidateAgainst(t).ok());
  }
}

TEST(FbqsTest, ErrorBoundedOnAllProfiles) {
  for (auto kind : datagen::AllDatasetKinds()) {
    const auto t = Generated(kind, 2500, 37);
    for (double zeta : {10.0, 40.0}) {
      const auto rep = SimplifyFbqs(t, zeta);
      const auto err = eval::MeasureError(t, rep);
      EXPECT_LE(err.max, zeta + 1e-6)
          << datagen::DatasetName(kind) << " zeta=" << zeta;
    }
  }
}

TEST(BqsTest, TinyInputs) {
  traj::Trajectory empty;
  EXPECT_TRUE(SimplifyBqs(empty, 10.0).empty());
  const auto two = MakeTrajectory({{0, 0}, {5, 5}});
  EXPECT_EQ(SimplifyBqs(two, 10.0).size(), 1u);
  const auto three = MakeTrajectory({{0, 0}, {5, 50}, {10, 0}});
  const auto rep = SimplifyBqs(three, 10.0);
  EXPECT_TRUE(rep.ValidateAgainst(three).ok());
}

// ---------------------------------------------------------------------------
// Registry / interface.
// ---------------------------------------------------------------------------

std::vector<std::string> AllNames() {
  return api::AlgorithmRegistry::Global().Names();
}

/// The free functions each registry entry wraps, configured the way the
/// registry configures them for the default (guarded) spec: the oracle the
/// registry products are checked against.
traj::PiecewiseRepresentation Oracle(std::string_view name,
                                     const traj::Trajectory& t, double zeta) {
  if (name == "DP") return SimplifyDp(t, zeta);
  if (name == "DP-SED") return SimplifyDpSed(t, zeta);
  if (name == "OPW") return SimplifyOpw(t, zeta, OpwDistance::kEuclidean);
  if (name == "OPW-SED") return SimplifyOpw(t, zeta, OpwDistance::kSynchronous);
  if (name == "BQS") return SimplifyBqs(t, zeta);
  if (name == "FBQS") return SimplifyFbqs(t, zeta);
  if (name == "Raw-OPERB") {
    return core::SimplifyOperb(t, core::OperbOptions::Raw(zeta));
  }
  if (name == "OPERB") {
    return core::SimplifyOperb(t, core::OperbOptions::Optimized(zeta));
  }
  if (name == "Raw-OPERB-A") {
    return core::SimplifyOperbA(t, core::OperbAOptions::Raw(zeta));
  }
  if (name == "OPERB-A") {
    return core::SimplifyOperbA(t, core::OperbAOptions::Optimized(zeta));
  }
  ADD_FAILURE() << "no oracle for " << name;
  return {};
}

TEST(RegistryTest, AllAlgorithmsConstructAndName) {
  for (const std::string& name : AllNames()) {
    const auto s = testutil::MakeStreaming(name, 25.0);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
    EXPECT_FALSE(s->name().empty());
  }
}

TEST(RegistryTest, EveryAlgorithmIsErrorBoundedOnEveryProfile) {
  // The integration property at the heart of the paper: *all* ten
  // algorithms are error bounded by zeta.
  for (auto kind : datagen::AllDatasetKinds()) {
    const auto t = Generated(kind, 2000, 51);
    for (const std::string& name : AllNames()) {
      const auto rep = testutil::Simplify(name, 30.0, t);
      ASSERT_TRUE(rep.ValidateAgainst(t).ok())
          << name << " on " << datagen::DatasetName(kind);
      const auto verdict = eval::VerifyErrorBound(t, rep, 30.0);
      EXPECT_TRUE(verdict.bounded)
          << name << " on " << datagen::DatasetName(kind) << ": "
          << verdict.ToString();
    }
  }
}

TEST(RegistryTest, OnePassAlgorithmsAreDeterministic) {
  const auto t = Generated(datagen::DatasetKind::kTruck, 2000, 61);
  for (const std::string& name : AllNames()) {
    SCOPED_TRACE(name);
    const auto s = testutil::MakeStreaming(name, 20.0);
    const auto a = SimplifyAll(*s, t.points());
    const auto b = SimplifyAll(*s, t.points());
    testutil::ExpectSegmentsEqual(b.segments(), a.segments(), "second run");
  }
}

// ---------------------------------------------------------------------------
// StreamingSimplifier (the engine's pooled per-object state).
// ---------------------------------------------------------------------------

TEST(StreamingSimplifierTest, MatchesBatchSimplifyForEveryAlgorithm) {
  const auto t = Generated(datagen::DatasetKind::kSerCar, 800, 77);
  const auto t2 = Generated(datagen::DatasetKind::kGeoLife, 500, 78);
  for (const std::string& name : AllNames()) {
    SCOPED_TRACE(name);
    const auto stream = testutil::MakeStreaming(name, 25.0);

    std::vector<traj::RepresentedSegment> out;
    stream->SetSink(
        [&out](const traj::RepresentedSegment& s) { out.push_back(s); });
    for (const geo::Point& p : t) stream->Push(p);
    stream->Finish();
    testutil::ExpectSegmentsEqual(out, Oracle(name, t, 25.0).segments(),
                                  "first run");

    // Reset() must make the pooled state as good as new.
    stream->Reset();
    out.clear();
    stream->Push(std::span<const geo::Point>(t2.points()));
    stream->Finish();
    testutil::ExpectSegmentsEqual(out, Oracle(name, t2, 25.0).segments(),
                                  "after Reset");
  }
}

TEST(StreamingSimplifierTest, TinyTrajectoriesEmitNothing) {
  for (const std::string& name : AllNames()) {
    SCOPED_TRACE(name);
    const auto stream = testutil::MakeStreaming(name, 25.0);
    std::size_t segments = 0;
    stream->SetSink(
        [&segments](const traj::RepresentedSegment&) { ++segments; });
    stream->Finish();  // zero points
    EXPECT_EQ(segments, 0u);
    stream->Reset();
    stream->Push(geo::Point{1.0, 2.0, 0.0});  // one point
    stream->Finish();
    EXPECT_EQ(segments, 0u);
  }
}

TEST(StreamingSimplifierTest, OnePassFlagMarksTheOperbFamily) {
  EXPECT_TRUE(testutil::MakeStreaming("OPERB", 10.0)->one_pass());
  EXPECT_TRUE(testutil::MakeStreaming("OPERB-A", 10.0)->one_pass());
  EXPECT_FALSE(testutil::MakeStreaming("DP", 10.0)->one_pass());
  EXPECT_FALSE(testutil::MakeStreaming("FBQS", 10.0)->one_pass());
}

}  // namespace
}  // namespace operb::baselines

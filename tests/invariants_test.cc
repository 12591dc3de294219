// Cross-cutting invariants: one-pass behaviour, O(1) state, option
// validation, guard semantics, monotonicity in zeta, and the paper-mode /
// guarded-mode contrast — the properties that tie the whole library
// together rather than any single module.

#include <gtest/gtest.h>

#include "baselines/dp.h"
#include "core/operb.h"
#include "core/operb_a.h"
#include "eval/metrics.h"
#include "eval/verifier.h"
#include "test_util.h"

namespace operb {
namespace {

using testutil::Generated;
using testutil::RandomWalk;

TEST(OptionsValidationTest, RejectsBadParameters) {
  core::OperbOptions o = core::OperbOptions::Optimized(0.0);
  EXPECT_FALSE(o.Validate().ok());
  o = core::OperbOptions::Optimized(-5.0);
  EXPECT_FALSE(o.Validate().ok());
  o = core::OperbOptions::Optimized(10.0);
  o.max_points_per_segment = 1;
  EXPECT_FALSE(o.Validate().ok());

  o = core::OperbOptions::Optimized(10.0);
  o.step_length_factor = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o.step_length_factor = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o.step_length_factor = 0.75;
  EXPECT_TRUE(o.Validate().ok());
  // Non-paper fitting parameters demand the guard.
  o.strict_bound_guard = false;
  EXPECT_FALSE(o.Validate().ok());

  core::OperbAOptions a = core::OperbAOptions::Optimized(10.0);
  a.gamma_m = -0.1;
  EXPECT_FALSE(a.Validate().ok());
  a.gamma_m = 4.0;
  EXPECT_FALSE(a.Validate().ok());
}

TEST(OnePassTest, EveryPointProcessedExactlyOnce) {
  // The defining property of Theorem 5: stats count one processing per
  // pushed point regardless of data shape or options.
  for (auto kind : datagen::AllDatasetKinds()) {
    const auto t = Generated(kind, 2000, 3);
    for (const core::OperbOptions& o :
         {core::OperbOptions::Raw(25.0), core::OperbOptions::Optimized(25.0)}) {
      core::OperbStats stats;
      core::SimplifyOperb(t, o, &stats);
      EXPECT_EQ(stats.points_processed, t.size());
    }
  }
}

TEST(OnePassTest, SegmentsEmittedIncrementallyNotOnlyAtFinish) {
  // A one-pass *online* algorithm must not hold its whole output until
  // the end: most segments appear during Push.
  const auto t = Generated(datagen::DatasetKind::kSerCar, 4000, 9);
  core::OperbStream stream(core::OperbOptions::Optimized(20.0));
  std::size_t emitted = 0;
  stream.SetSink([&emitted](const traj::RepresentedSegment&) { ++emitted; });
  for (const geo::Point& p : t) stream.Push(p);
  const std::size_t during_push = emitted;
  stream.Finish();
  const std::size_t at_finish = emitted - during_push;
  EXPECT_GT(during_push, 10u);
  EXPECT_LE(at_finish, 2u);
}

TEST(OnePassTest, LazyPolicyDelaysByAtMostTwoSegments) {
  const auto t = Generated(datagen::DatasetKind::kSerCar, 4000, 9);
  core::OperbStream plain(core::OperbOptions::Optimized(20.0));
  core::OperbAStream lazy(core::OperbAOptions::Optimized(20.0));
  std::size_t plain_total = 0;
  std::size_t lazy_total = 0;
  plain.SetSink(
      [&plain_total](const traj::RepresentedSegment&) { ++plain_total; });
  lazy.SetSink([&lazy_total](const traj::RepresentedSegment&) { ++lazy_total; });
  for (const geo::Point& p : t) {
    plain.Push(p);
    lazy.Push(p);
    // The lazy buffer holds at most two determined segments; each applied
    // patch merges one determined segment away.
    EXPECT_LE(plain_total,
              lazy_total + 2 + lazy.stats().patches_applied);
  }
}

TEST(StateSizeTest, StreamObjectIsSmall) {
  // O(1) space in a checkable form: the stream object carries no
  // per-point storage, and each Push hands at most one segment to the
  // sink — nothing accumulates between pushes.
  EXPECT_LT(sizeof(core::OperbStream), 600u);
  EXPECT_LT(sizeof(core::OperbAStream), 1200u);
  core::OperbStream stream(core::OperbOptions::Optimized(10.0));
  std::size_t emitted = 0;
  stream.SetSink([&emitted](const traj::RepresentedSegment&) { ++emitted; });
  const auto t = RandomWalk(50000, 1);
  for (const geo::Point& p : t) {
    const std::size_t before = emitted;
    stream.Push(p);
    EXPECT_LE(emitted - before, 1u);
  }
}

TEST(GuardTest, PaperModeCanViolateGuardedModeCannot) {
  // The reason strict_bound_guard exists: on adversarial random walks the
  // paper's heuristics exceed zeta for some seed; the guard never does.
  const double zeta = 5.0;
  double paper_worst = 0.0;
  double guarded_worst = 0.0;
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    const auto t = RandomWalk(1500, seed);
    core::OperbOptions paper = core::OperbOptions::Optimized(zeta);
    paper.strict_bound_guard = false;
    core::OperbOptions guarded = core::OperbOptions::Optimized(zeta);
    const auto rep_paper = core::SimplifyOperb(t, paper);
    const auto rep_guarded = core::SimplifyOperb(t, guarded);
    paper_worst = std::max(
        paper_worst,
        eval::VerifyErrorBound(t, rep_paper, zeta).worst_distance);
    guarded_worst = std::max(
        guarded_worst,
        eval::VerifyErrorBound(t, rep_guarded, zeta).worst_distance);
  }
  EXPECT_GT(paper_worst, zeta);          // heuristics do break somewhere
  EXPECT_LE(guarded_worst, zeta * (1.0 + 1e-9));  // guard never does
}

TEST(GuardTest, GuardCostsLittleCompressionOnRealisticData) {
  const auto t = Generated(datagen::DatasetKind::kSerCar, 6000, 77);
  core::OperbOptions paper = core::OperbOptions::Optimized(40.0);
  paper.strict_bound_guard = false;
  const auto rep_paper = core::SimplifyOperb(t, paper);
  const auto rep_guarded =
      core::SimplifyOperb(t, core::OperbOptions::Optimized(40.0));
  const double r_paper = eval::CompressionRatio(t, rep_paper);
  const double r_guarded = eval::CompressionRatio(t, rep_guarded);
  EXPECT_GE(r_guarded, r_paper);            // guard only ever breaks more
  EXPECT_LT(r_guarded, r_paper + 0.02);     // ... but by at most ~2 pp here
}

TEST(FittingParamsTest, AlternativeParameterizationsStayBounded) {
  // Paper future work: alternative fitting functions. Any (step, slack)
  // must stay error bounded thanks to the guard.
  const auto t = Generated(datagen::DatasetKind::kGeoLife, 2000, 5);
  for (double step : {0.25, 0.5, 1.0}) {
    for (double slack : {0.1, 0.25, 0.5}) {
      core::OperbOptions o = core::OperbOptions::Optimized(20.0);
      o.step_length_factor = step;
      o.activation_slack_factor = slack;
      ASSERT_TRUE(o.Validate().ok());
      const auto rep = core::SimplifyOperb(t, o);
      ASSERT_TRUE(rep.ValidateAgainst(t).ok())
          << "step=" << step << " slack=" << slack;
      EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 20.0).bounded)
          << "step=" << step << " slack=" << slack;
    }
  }
}

TEST(MonotonicityTest, RatioDecreasesWithZeta) {
  // Exp-2.1's first observation, as a property over all algorithms.
  for (auto kind : {datagen::DatasetKind::kSerCar,
                    datagen::DatasetKind::kGeoLife}) {
    const auto t = Generated(kind, 3000, 13);
    for (const char* algo : {"DP", "FBQS", "OPERB", "OPERB-A"}) {
      double prev = 2.0;
      for (double zeta : {5.0, 15.0, 45.0, 135.0}) {
        const auto rep = testutil::Simplify(algo, zeta, t);
        const double ratio = eval::CompressionRatio(t, rep);
        // Allow small non-monotonic wiggle (greedy algorithms).
        EXPECT_LE(ratio, prev * 1.05) << algo << " zeta=" << zeta;
        prev = ratio;
      }
    }
  }
}

TEST(MonotonicityTest, AverageErrorGrowsWithZeta) {
  const auto t = Generated(datagen::DatasetKind::kTruck, 3000, 21);
  double prev = -1.0;
  for (double zeta : {5.0, 20.0, 80.0}) {
    const auto rep = testutil::Simplify("OPERB-A", zeta, t);
    const double avg = eval::MeasureError(t, rep).average;
    EXPECT_GT(avg, prev);
    prev = avg;
  }
}

TEST(DpSedTest, BoundsSynchronousDistanceAndSplitsSpeedChanges) {
  // A runner sprinting then resting along one straight line: plain DP
  // emits a single segment (zero perpendicular error); DP-SED keeps the
  // knee because the position-vs-time profile deviates.
  traj::Trajectory t;
  for (int i = 0; i <= 10; ++i) {
    t.AppendUnchecked({i * 50.0, 0.0, static_cast<double>(i)});  // fast
  }
  for (int i = 1; i <= 10; ++i) {
    t.AppendUnchecked({500.0 + i * 2.0, 0.0, 10.0 + i});  // slow
  }
  const auto plain = baselines::SimplifyDp(t, 10.0);
  const auto sed = baselines::SimplifyDpSed(t, 10.0);
  EXPECT_EQ(plain.size(), 1u);
  EXPECT_GE(sed.size(), 2u);
  // And the SED bound holds pointwise.
  for (const auto& s : sed.segments()) {
    for (std::size_t i = s.first_index; i <= s.last_index; ++i) {
      EXPECT_LE(geo::SynchronousEuclideanDistance(
                    t[i], t[s.first_index], t[s.last_index]),
                10.0 + 1e-9);
    }
  }
}

TEST(CrossAlgorithmTest, OperbANeverHasMoreAnomaliesThanOperb) {
  for (auto kind : datagen::AllDatasetKinds()) {
    const auto t = Generated(kind, 3000, 31);
    const auto plain = core::SimplifyOperb(
        t, core::OperbOptions::Optimized(40.0));
    const auto patched = core::SimplifyOperbA(
        t, core::OperbAOptions::Optimized(40.0));
    EXPECT_LE(eval::CountAnomalousSegments(patched),
              eval::CountAnomalousSegments(plain))
        << datagen::DatasetName(kind);
  }
}

TEST(CrossAlgorithmTest, BatchAndStreamingAgreeForAllOperbConfigs) {
  const auto t = Generated(datagen::DatasetKind::kTruck, 2500, 41);
  for (bool opt : {false, true}) {
    const core::OperbOptions o = opt ? core::OperbOptions::Optimized(30.0)
                                     : core::OperbOptions::Raw(30.0);
    const auto batch = core::SimplifyOperb(t, o);
    core::OperbStream stream(o);
    std::size_t n = 0;
    stream.SetSink([&n](const traj::RepresentedSegment&) { ++n; });
    for (const geo::Point& p : t) stream.Push(p);
    stream.Finish();
    EXPECT_EQ(n, batch.size());
  }
}

}  // namespace
}  // namespace operb

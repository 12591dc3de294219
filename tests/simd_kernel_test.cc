// Pointwise ≡ batched: OperbStream's batched Push(span) — the SoA-staged
// geo::simd kernels, the adaptive extend window and the
// CountExtendAccept prefix — must emit byte-identical segments to
// per-point Push over the same input. "Byte-identical" is literal: each
// segment is compared as its traj::SerializeSegment encoding, so +0.0 vs
// -0.0 or differing NaN payloads fail. Inputs: the stock dataset
// profiles, a dense GeoLife variant (0.2-0.4 s sampling, long extend
// runs), fuzzed span splits over the profiles and over random walks,
// and an adversarial-geometry corpus (collinear runs with signed zeros,
// duplicates at the anchor, a near-zero chord direction, denormals,
// huge coordinates). Every case runs at guarded and at paper-faithful
// fidelity.
//
// The kernel cases at the end pin the scalar semantics the staged loop
// relies on: a NaN (or an infinite offset) ends every CountWithin /
// CountExtendAccept run, !sum_ok accepts nothing, and every point
// CountExtendAccept accepts leaves the fitting state unchanged.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fitting.h"
#include "core/operb.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "geo/distance.h"
#include "geo/simd.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb::geo::simd {
namespace {

using Points = std::vector<Point>;

constexpr std::size_t kStage = core::OperbStream::kStageCapacity;

std::string Hex(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a (0x%016llx)", d,
                static_cast<unsigned long long>(u));
  return buf;
}

/// Guarded (library default) and paper-faithful fidelity.
std::vector<core::OperbOptions> Fidelities(double zeta) {
  core::OperbOptions guarded = core::OperbOptions::Optimized(zeta);
  core::OperbOptions paper = guarded;
  paper.strict_bound_guard = false;
  return {guarded, paper};
}

/// One SerializeSegment encoding per emitted segment.
using Encoded = std::vector<std::vector<std::uint8_t>>;

/// Runs a fresh stream fed by `feed` and encodes what it emits.
template <typename Feed>
Encoded Run(const core::OperbOptions& options, Feed feed) {
  core::OperbStream stream(options);
  Encoded out;
  stream.SetSink([&out](const traj::RepresentedSegment& s) {
    out.emplace_back();
    traj::SerializeSegment(s, &out.back());
  });
  feed(stream);
  stream.Finish();
  return out;
}

Encoded RunPointwise(const core::OperbOptions& options, const Points& points) {
  return Run(options, [&](core::OperbStream& s) {
    for (const Point& p : points) s.Push(p);
  });
}

/// Batched feed in consecutive spans of the given lengths (cycled), so
/// span boundaries land inside every mode's run.
Encoded RunBatched(const core::OperbOptions& options, const Points& points,
                   const std::vector<std::size_t>& splits) {
  return Run(options, [&](core::OperbStream& s) {
    const std::span<const Point> all(points);
    std::size_t at = 0;
    for (std::size_t k = 0; at < all.size(); ++k) {
      const std::size_t len =
          std::min(splits[k % splits.size()], all.size() - at);
      s.Push(all.subspan(at, len));
      at += len;
    }
  });
}

void ExpectSameBytes(const Encoded& pointwise, const Encoded& batched,
                     const Points& points, const std::string& label) {
  ASSERT_EQ(pointwise.size(), batched.size()) << label << ": segment count";
  for (std::size_t i = 0; i < pointwise.size(); ++i) {
    if (pointwise[i] == batched[i]) continue;
    traj::RepresentedSegment a, b;
    std::size_t pa = 0, pb = 0;
    ASSERT_TRUE(traj::DeserializeSegment(pointwise[i], &pa, &a).ok());
    ASSERT_TRUE(traj::DeserializeSegment(batched[i], &pb, &b).ok());
    FAIL() << label << ": segment " << i << " differs\n  pointwise "
           << a.ToString() << " start.x=" << Hex(a.start.x)
           << "\n  batched   " << b.ToString() << " start.x="
           << Hex(b.start.x) << "\n  input has " << points.size()
           << " points";
  }
}

/// The contract at every fidelity: per-point Push, one whole-span Push,
/// and spans split at `splits` all emit the same bytes.
void ExpectPointwiseEqualsBatched(const Points& points, double zeta,
                                  const std::string& label,
                                  std::vector<std::size_t> splits = {}) {
  if (splits.empty()) splits = {1, 2, 3, 7, kStage - 1, kStage, kStage + 1};
  for (const core::OperbOptions& options : Fidelities(zeta)) {
    const std::string where =
        label + (options.strict_bound_guard ? " (guarded)" : " (paper)");
    const Encoded pointwise = RunPointwise(options, points);
    EXPECT_FALSE(pointwise.empty()) << where;
    ExpectSameBytes(pointwise, RunBatched(options, points, {points.size()}),
                    points, where + " whole span");
    ExpectSameBytes(pointwise, RunBatched(options, points, splits), points,
                    where + " split spans");
  }
}

Points Generate(const datagen::DatasetProfile& profile, std::size_t n,
                std::uint64_t seed) {
  datagen::Rng rng(seed);
  const traj::Trajectory t = datagen::GenerateTrajectory(profile, n, &rng);
  return Points(t.points().begin(), t.points().end());
}

/// Unit time steps; the stream does not read timestamps.
Points FromXy(const std::vector<std::pair<double, double>>& xy) {
  Points out;
  for (const auto& [x, y] : xy) {
    out.push_back({x, y, static_cast<double>(out.size())});
  }
  return out;
}

// ---------------------------------------------------------------------
// Realistic inputs.

TEST(BatchedPushTest, StockProfilesMatchPointwise) {
  for (datagen::DatasetKind kind : datagen::AllDatasetKinds()) {
    ExpectPointwiseEqualsBatched(
        Generate(datagen::DatasetProfile::For(kind), 20000, 20170401), 40.0,
        std::string(datagen::DatasetName(kind)));
  }
}

TEST(BatchedPushTest, DenseGeoLifeMatchesPointwise) {
  // The batched path's target regime: ~0.3 s sampling puts hundreds of
  // points in each fitted segment, so extend windows grow to capacity.
  datagen::DatasetProfile dense =
      datagen::DatasetProfile::For(datagen::DatasetKind::kGeoLife);
  dense.sampling_min_s = 0.2;
  dense.sampling_max_s = 0.4;
  for (double zeta : {10.0, 40.0}) {
    ExpectPointwiseEqualsBatched(Generate(dense, 30000, 7), zeta,
                                 "GeoLife_dense zeta=" + std::to_string(zeta));
  }
}

TEST(BatchedPushTest, FuzzedSpanSplitsMatchPointwise) {
  // Split lengths 0 .. 2*kStage+3 cover an empty span, every staging
  // window fill, and windows that straddle a span boundary.
  datagen::Rng rng(99);
  for (datagen::DatasetKind kind : datagen::AllDatasetKinds()) {
    std::vector<std::size_t> splits;
    for (int k = 0; k < 64; ++k) {
      splits.push_back(rng.NextBelow(2 * kStage + 4));
    }
    splits.push_back(1);  // guarantees progress when every draw was 0
    const std::uint64_t seed = rng.NextU64();
    const double zeta = rng.Uniform(5.0, 60.0);
    ExpectPointwiseEqualsBatched(
        Generate(datagen::DatasetProfile::For(kind), 6000, seed), zeta,
        std::string(datagen::DatasetName(kind)) + " seed=" +
            std::to_string(seed),
        splits);
    if (HasFatalFailure()) return;
  }
  // Random walks: points fall behind the anchor and move the guard's
  // drift budgets, which the profiles above rarely do.
  for (double step : {5.0, 15.0, 40.0}) {
    std::vector<std::size_t> splits;
    for (int k = 0; k < 64; ++k) {
      splits.push_back(rng.NextBelow(2 * kStage + 4));
    }
    splits.push_back(1);
    std::vector<std::pair<double, double>> xy;
    double x = 0.0, y = 0.0;
    for (int i = 0; i < 6000; ++i) {
      xy.push_back({x, y});
      x += rng.Uniform(-step, step);
      y += rng.Uniform(-step, step);
    }
    ExpectPointwiseEqualsBatched(FromXy(xy), 20.0,
                                 "random walk step=" + std::to_string(step),
                                 splits);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------
// Adversarial geometry corpus.

TEST(SimdKernelAdversarialTest, CollinearRunProducesIdenticalSignedZeros) {
  // Exactly collinear legs along the axes with +0.0 and -0.0 mixed in
  // the zero coordinate: every staged offset is a signed zero, which
  // steers the `o >= 0.0` side split of the consume test.
  std::vector<std::pair<double, double>> xy;
  for (int i = 0; i < 300; ++i) {
    xy.push_back({i * 7.5, (i % 3 == 0) ? -0.0 : 0.0});
  }
  for (int i = 1; i < 300; ++i) {
    xy.push_back({299 * 7.5, i * 7.5});
  }
  for (int i = 1; i < 300; ++i) {
    xy.push_back({(i % 2 == 0) ? -0.0 : 0.0, 299 * 7.5 + i * 7.5});
  }
  ExpectPointwiseEqualsBatched(FromXy(xy), 1.0, "collinear signed zeros");
}

TEST(SimdKernelAdversarialTest, DuplicatePointsAtTheAnchor) {
  // Runs of exact repeats of each segment's anchor (zero radius, zero
  // offset) at the start, after every turn, and as the stream's tail.
  std::vector<std::pair<double, double>> xy;
  double x = 123.456, y = -789.012;
  for (int leg = 0; leg < 12; ++leg) {
    for (int d = 0; d < 70; ++d) xy.push_back({x, y});
    for (int i = 0; i < 90; ++i) {
      x += (leg % 2 == 0) ? 6.0 : 0.5;
      y += (leg % 2 == 0) ? 0.5 : 6.0;
      xy.push_back({x, y});
    }
  }
  for (int d = 0; d < 70; ++d) xy.push_back({x, y});
  ExpectPointwiseEqualsBatched(FromXy(xy), 20.0, "anchor duplicates");
}

TEST(SimdKernelAdversarialTest, NegativeZeroCoordinates) {
  std::vector<std::pair<double, double>> xy;
  for (int i = 0; i < 200; ++i) {
    xy.push_back({(i % 2 == 0) ? -0.0 : 0.0, (i % 3 == 0) ? -0.0 : 0.0});
  }
  for (int i = 1; i < 200; ++i) xy.push_back({-0.0, i * 3.0});
  ExpectPointwiseEqualsBatched(FromXy(xy), 10.0, "negative zeros");
}

TEST(SimdKernelAdversarialTest, NearZeroAnchorDirection) {
  // A subnormal-scale cluster (components ~1e-308) ahead of a walk at
  // zeta ~1e-306: the first chord directions are normalized from
  // almost-zero vectors.
  std::vector<std::pair<double, double>> xy;
  datagen::Rng rng(42);
  for (int i = 0; i < 150; ++i) {
    xy.push_back({rng.Uniform(-1.0, 1.0) * 1e-308,
                  rng.Uniform(-1.0, 1.0) * 1e-308});
  }
  for (int i = 0; i < 400; ++i) {
    xy.push_back({i * 4e-306, rng.Uniform(-3.0, 3.0) * 1e-306});
  }
  ExpectPointwiseEqualsBatched(FromXy(xy), 1e-306, "near-zero direction");
  ExpectPointwiseEqualsBatched(FromXy(xy), 1e-305, "near-zero direction");
}

TEST(SimdKernelAdversarialTest, DenormalCoordinates) {
  constexpr double kMinDenorm = 4.9406564584124654e-324;
  constexpr double kMaxDenorm = 2.2250738585072009e-308;
  const double vals[] = {kMinDenorm, -kMinDenorm, kMaxDenorm, -kMaxDenorm,
                         1e-310,     -1e-315,     0.0,        -0.0,
                         1e-320,     -1e-320,     2e-308,     -2e-308};
  constexpr std::size_t kVals = sizeof vals / sizeof vals[0];
  std::vector<std::pair<double, double>> xy;
  for (std::size_t i = 0; i < 600; ++i) {
    xy.push_back({vals[i % kVals] * static_cast<double>(1 + i / kVals),
                  vals[(i + 5) % kVals]});
  }
  ExpectPointwiseEqualsBatched(FromXy(xy), kMaxDenorm, "denormals");
  ExpectPointwiseEqualsBatched(FromXy(xy), 1e-306, "denormals");
}

// Huge coordinates the stream accepts. A point whose squared distance
// from the anchor overflows has an infinite radius, which no zone index
// can hold, so such inputs are outside the stream's domain (the kernels'
// handling of Inf is pinned in NanAndInfRejectionParity below).
TEST(SimdKernelAdversarialTest, HugeCoordinates) {
  datagen::Rng rng(8);
  // Near the largest magnitude whose one-ulp differences still square
  // to a finite value: a walk of 1e140 steps around 1e150.
  std::vector<std::pair<double, double>> far;
  double x = 1e150, y = -1e150;
  for (int i = 0; i < 800; ++i) {
    far.push_back({x, y});
    x += rng.Uniform(0.5, 1.0) * 1e140;
    y += rng.Uniform(-0.3, 0.3) * 1e140;
  }
  ExpectPointwiseEqualsBatched(FromXy(far), 1e141, "1e150 magnitude");
  // Projected coordinates past 2^52, where the ulp is a metre or more:
  // a GPS-like walk whose positions round on every step.
  std::vector<std::pair<double, double>> coarse;
  x = 6.7e15;
  y = -4.5e15;
  for (int i = 0; i < 3000; ++i) {
    coarse.push_back({x, y});
    x += rng.Uniform(0.0, 6.0);
    y += rng.Uniform(-2.0, 2.0);
  }
  ExpectPointwiseEqualsBatched(FromXy(coarse), 10.0, "ulp >= 1 m");
}

// ---------------------------------------------------------------------
// Kernel semantics the staged loop relies on.

TEST(SimdKernelAdversarialTest, NanAndInfRejectionParity) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // A poison coordinate planted at every position: CountWithin must stop
  // exactly where the per-point absorb test (`d <= bound`) first fails.
  const Vec2 anchor{10.0, 20.0};
  const Vec2 unit{1.0, 0.0};
  for (std::size_t bad = 0; bad < 8; ++bad) {
    for (double poison : {kNan, kInf, -kInf}) {
      double xs[8], ys[8];
      for (std::size_t i = 0; i < 8; ++i) {
        xs[i] = anchor.x + static_cast<double>(i);
        ys[i] = anchor.y + 1.0;
      }
      ys[bad] = poison;
      std::size_t per_point = 0;
      while (per_point < 8 &&
             PointToLineDistanceDir({xs[per_point], ys[per_point]}, anchor,
                                    unit) <= 5.0) {
        ++per_point;
      }
      EXPECT_EQ(bad, per_point) << "poison " << Hex(poison);
      EXPECT_EQ(per_point, CountWithin(xs, ys, 8, anchor, unit, 5.0))
          << "bad index " << bad << " poison " << Hex(poison);
    }
  }
}

TEST(SimdKernelAdversarialTest, ExtendAcceptNanLanesAndSignedZeroOffsets) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  ExtendAcceptParams p;
  p.length = 100.0;
  p.slack = 5.0;
  p.d_plus_max = 3.0;
  p.d_minus_max = 2.0;
  p.zeta = 40.0;
  p.drift_plus = 10.0;
  p.drift_minus = 10.0;
  p.drift_back = 120.0;
  p.sum_ok = true;
  for (bool guard : {false, true}) {
    p.guard = guard;
    for (std::size_t bad = 0; bad <= 6; ++bad) {
      double r[6], off[6], ra[6], dot[6];
      for (std::size_t i = 0; i < 6; ++i) {
        r[i] = 101.0;
        // Signed zeros exercise the o >= 0.0 branch split exactly.
        off[i] = (i % 2 == 0) ? 0.0 : -0.0;
        ra[i] = (i % 2 == 0) ? -0.0 : 0.0;
        dot[i] = (i % 3 == 0) ? 0.0 : -0.0;
      }
      if (bad < 6) r[bad] = kNan;  // NaN radius: `r - length <= slack` fails
      EXPECT_EQ(bad, CountExtendAccept(r, off, ra, dot, 6, p))
          << "guard=" << guard;
    }
  }
}

TEST(SimdKernelAdversarialTest, ExtendAcceptSumNotOkShortCircuits) {
  ExtendAcceptParams p;
  p.length = 0.0;
  p.slack = 1e9;
  p.d_plus_max = 1e9;
  p.d_minus_max = 1e9;
  p.zeta = 1e9;
  p.guard = false;
  p.sum_ok = false;  // adjusted-distance sum already over budget
  double r[4] = {1.0, 1.0, 1.0, 1.0};
  double zero[4] = {0.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(0u, CountExtendAccept(r, zero, zero, zero, 4, p));
  p.sum_ok = true;
  EXPECT_EQ(4u, CountExtendAccept(r, zero, zero, zero, 4, p));
}

// The contract ExtendRun's skip rests on: a point CountExtendAccept
// accepts is a no-op consume — observing it leaves every byte of the
// fitting state (side maxima, drift budgets) unchanged. Random guarded
// states are grown from activations and observed points ahead of and
// behind the anchor (behind points raise a side maximum without the
// matching drift budget), then probed with points around the budgets.
TEST(ExtendAcceptTest, AcceptedPointsLeaveTheFittingStateUnchanged) {
  constexpr double kZeta = 20.0;
  const core::OperbOptions options = core::OperbOptions::Optimized(kZeta);
  datagen::Rng rng(5);
  std::size_t accepted = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    core::FittingFunction f({rng.Uniform(-1e3, 1e3), rng.Uniform(-1e3, 1e3)},
                            options);
    const Vec2 anchor = f.anchor();
    const double heading = rng.Uniform(-3.0, 3.0);
    double reach = 0.0;
    for (int k = 0; k < 24; ++k) {
      reach += rng.Uniform(0.0, kZeta);
      Vec2 rel = Vec2::FromAngle(heading + rng.Uniform(-0.15, 0.15)) * reach;
      if (rng.Bernoulli(0.2)) {
        // Behind the anchor, up to zeta/2 off the heading's line.
        const Vec2 back = Vec2::FromAngle(heading);
        rel = back * -rng.Uniform(0.0, 0.3 * reach) +
              Vec2{-back.y, back.x} * rng.Uniform(-kZeta / 2, kZeta / 2);
      }
      const Vec2 p = anchor + rel;
      if (f.IsActive(Distance(p, anchor))) {
        f.Activate(p);
      } else {
        f.ObservePoint(p);
      }
    }
    ExtendAcceptParams params;
    params.length = f.length();
    params.slack = f.slack();
    params.d_plus_max = f.d_plus_max();
    params.d_minus_max = f.d_minus_max();
    params.zeta = kZeta;
    params.drift_plus = f.drift_plus();
    params.drift_minus = f.drift_minus();
    params.drift_back = f.drift_back();
    params.guard = true;
    params.sum_ok = (params.d_plus_max + params.d_minus_max) <= kZeta;
    std::vector<std::uint8_t> before;
    f.SerializeTo(&before);
    const Vec2 dir = f.dir();
    for (int k = 0; k < 64; ++k) {
      const double along = rng.Uniform(-1.2 * f.drift_back(), f.length());
      const double across = rng.Uniform(-1.3, 1.3) *
                            std::max(f.d_plus_max(), f.d_minus_max());
      const Vec2 p = anchor + dir * along + Vec2{-dir.y, dir.x} * across;
      const double r = Distance(p, anchor);
      const double off = SignedPointToLineOffsetDir(p, anchor, dir);
      const double dot = dir.Dot(p - anchor);
      const double ra = 0.0;
      if (CountExtendAccept(&r, &off, &ra, &dot, 1, params) == 0) {
        ++rejected;
        continue;
      }
      ++accepted;
      core::FittingFunction g = f;
      g.ObservePointPrecomputed(off, dot, r);
      std::vector<std::uint8_t> after;
      g.SerializeTo(&after);
      ASSERT_TRUE(before == after)
          << "trial " << trial << ": accepted point off=" << Hex(off)
          << " dot=" << Hex(dot) << " r=" << Hex(r) << " moved the state";
    }
  }
  // Both outcomes must occur, or the property says nothing.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// The level surface the repository benchmark compiles against: one level,
// and pins that change nothing.
TEST(SimdSurfaceTest, OneScalarLevelWithInertPins) {
  static_assert(Detect() == Level::kScalar);
  EXPECT_EQ("scalar", LevelName(Detect()));
  const Points points = Generate(
      datagen::DatasetProfile::For(datagen::DatasetKind::kTaxi), 4000, 3);
  const core::OperbOptions options = core::OperbOptions::Optimized(40.0);
  const Encoded unpinned = RunBatched(options, points, {points.size()});
  ForceLevel(Level::kScalar);
  const Encoded pinned = RunBatched(options, points, {points.size()});
  ClearForcedLevel();
  EXPECT_EQ(unpinned, pinned);
}

}  // namespace
}  // namespace operb::geo::simd

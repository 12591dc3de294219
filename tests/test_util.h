#ifndef OPERB_TESTS_TEST_UTIL_H_
#define OPERB_TESTS_TEST_UTIL_H_

#include <charconv>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "api/spec.h"
#include "baselines/streaming.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "geo/point.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb::testutil {

/// Parameters the golden fixtures under tests/golden/ were produced with
/// (must match tools/make_golden.cc).
inline constexpr std::uint64_t kGoldenSeed = 20170401;
inline constexpr std::size_t kGoldenPoints = 600;
inline constexpr double kGoldenZeta = 40.0;

/// Test parameter naming one registered algorithm by its position in
/// api::AlgorithmRegistry::Global().Names() (the paper's figure order).
/// A bare 4-byte value with no gtest printer: the ctest names of the
/// parameterized suites end in "# GetParam() = 4-byte object <..>", and a
/// printable parameter (a std::string name) would rename every instance.
struct AlgorithmParam {
  std::int32_t index;

  std::string name() const {
    return api::AlgorithmRegistry::Global().Names().at(
        static_cast<std::size_t>(index));
  }
};

/// Every registered algorithm, in registration order.
inline std::vector<AlgorithmParam> AllAlgorithmParams() {
  std::vector<AlgorithmParam> out;
  const std::size_t n = api::AlgorithmRegistry::Global().Names().size();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<std::int32_t>(i)});
  }
  return out;
}

/// The spec for registered algorithm `algorithm` at error bound `zeta`.
inline api::SimplifierSpec SpecOf(
    std::string_view algorithm, double zeta,
    baselines::OperbFidelity fidelity = baselines::OperbFidelity::kGuarded) {
  api::SimplifierSpec spec;
  spec.algorithm = std::string(algorithm);
  spec.zeta = zeta;
  spec.fidelity = fidelity;
  return spec;
}

/// The registry product for `algorithm` at `zeta`. A bad spec fails the
/// test with its Status before value() gives up on it.
inline std::unique_ptr<baselines::StreamingSimplifier> MakeStreaming(
    std::string_view algorithm, double zeta,
    baselines::OperbFidelity fidelity = baselines::OperbFidelity::kGuarded) {
  auto made = api::AlgorithmRegistry::Global().MakeStreaming(
      SpecOf(algorithm, zeta, fidelity));
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

/// Whole-trajectory output of `algorithm` at `zeta` on `t`.
inline traj::PiecewiseRepresentation Simplify(std::string_view algorithm,
                                              double zeta,
                                              const traj::Trajectory& t) {
  return baselines::SimplifyAll(*MakeStreaming(algorithm, zeta), t.points());
}

/// The exact trajectory a golden fixture was generated from.
inline traj::Trajectory GoldenTrajectory(datagen::DatasetKind kind) {
  datagen::Rng rng(kGoldenSeed);
  return datagen::GenerateTrajectory(datagen::DatasetProfile::For(kind),
                                     kGoldenPoints, &rng);
}

/// Loads a tests/golden/ fixture
/// (`first,last,start_patch,end_patch,x0,y0,x1,y1` rows).
inline std::vector<traj::RepresentedSegment> LoadGolden(
    const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << path
                            << " (regenerate with tools/make_golden)";
  std::vector<traj::RepresentedSegment> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    traj::RepresentedSegment s;
    const char* p = line.c_str();
    const char* end = p + line.size();
    unsigned long long first = 0, last = 0;
    int sp = 0, ep = 0;
    auto field = [&](auto* value) {
      if (p < end && *p == ',') ++p;
      const auto r = std::from_chars(p, end, *value);
      ASSERT_EQ(r.ec, std::errc()) << "corrupt golden row: " << line;
      p = r.ptr;
    };
    field(&first);
    field(&last);
    field(&sp);
    field(&ep);
    field(&s.start.x);
    field(&s.start.y);
    field(&s.end.x);
    field(&s.end.y);
    s.first_index = first;
    s.last_index = last;
    s.start_is_patch = sp != 0;
    s.end_is_patch = ep != 0;
    out.push_back(s);
  }
  return out;
}

/// A sink appending every emitted segment to `*out`.
inline traj::SegmentSink CollectInto(
    std::vector<traj::RepresentedSegment>* out) {
  return [out](const traj::RepresentedSegment& s) { out->push_back(s); };
}

/// Field-by-field bit-exact segment comparison.
inline void ExpectSegmentsEqual(
    const std::vector<traj::RepresentedSegment>& actual,
    const std::vector<traj::RepresentedSegment>& want,
    const std::string& label) {
  ASSERT_EQ(actual.size(), want.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(label + " segment " + std::to_string(i));
    EXPECT_EQ(actual[i].first_index, want[i].first_index);
    EXPECT_EQ(actual[i].last_index, want[i].last_index);
    EXPECT_EQ(actual[i].start_is_patch, want[i].start_is_patch);
    EXPECT_EQ(actual[i].end_is_patch, want[i].end_is_patch);
    EXPECT_EQ(actual[i].start.x, want[i].start.x);
    EXPECT_EQ(actual[i].start.y, want[i].start.y);
    EXPECT_EQ(actual[i].end.x, want[i].end.x);
    EXPECT_EQ(actual[i].end.y, want[i].end.y);
  }
}

/// A trajectory from inline (x, y) pairs with unit time steps.
inline traj::Trajectory MakeTrajectory(
    const std::vector<std::pair<double, double>>& xy) {
  traj::Trajectory t;
  double time = 0.0;
  for (const auto& [x, y] : xy) {
    t.AppendUnchecked({x, y, time});
    time += 1.0;
  }
  return t;
}

/// A straight line along +x with `n` points spaced `step` meters.
inline traj::Trajectory StraightLine(std::size_t n, double step = 10.0) {
  traj::Trajectory t;
  for (std::size_t i = 0; i < n; ++i) {
    t.AppendUnchecked(
        {static_cast<double>(i) * step, 0.0, static_cast<double>(i)});
  }
  return t;
}

/// A zig-zag: alternating diagonal legs, producing many sharp turns.
inline traj::Trajectory ZigZag(std::size_t n, double step = 20.0,
                               double amplitude = 30.0) {
  traj::Trajectory t;
  for (std::size_t i = 0; i < n; ++i) {
    const double y = (i % 2 == 0) ? 0.0 : amplitude;
    t.AppendUnchecked(
        {static_cast<double>(i) * step, y, static_cast<double>(i)});
  }
  return t;
}

/// Uniform random walk in a box (adversarial for all simplifiers).
inline traj::Trajectory RandomWalk(std::size_t n, std::uint64_t seed,
                                   double step = 15.0) {
  datagen::Rng rng(seed);
  traj::Trajectory t;
  geo::Vec2 pos{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    t.AppendUnchecked({pos.x, pos.y, static_cast<double>(i)});
    pos.x += rng.Uniform(-step, step);
    pos.y += rng.Uniform(-step, step);
  }
  return t;
}

/// A small generated dataset trajectory for property tests.
inline traj::Trajectory Generated(datagen::DatasetKind kind, std::size_t n,
                                  std::uint64_t seed) {
  datagen::Rng rng(seed);
  return datagen::GenerateTrajectory(datagen::DatasetProfile::For(kind), n,
                                     &rng);
}

}  // namespace operb::testutil

#endif  // OPERB_TESTS_TEST_UTIL_H_

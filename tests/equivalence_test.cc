// Golden equivalence suite for the hot-path optimizations.
//
// The fixtures under tests/golden/ were produced by the pre-optimization
// scalar implementation (trig per point, buffered emission, per-point
// Push). Every registered algorithm must keep emitting *bit-identical*
// segments through every execution path:
//   (a) the whole-trajectory run (baselines::SimplifyAll: one span),
//   (b) the same registry product fed in two spans after Reset(),
//   (c) per-point Push after Reset(),
//   (d) for the OPERB family: core per-point Push into a sink,
//   (e) for the OPERB family: core batch Push(span) + sink.
// Regenerate the fixtures with tools/make_golden only for an intentional
// output change, and re-review the diff.

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/streaming.h"
#include "core/operb.h"
#include "core/operb_a.h"
#include "datagen/profiles.h"
#include "geo/simd.h"
#include "test_util.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb {
namespace {

using testutil::ExpectSegmentsEqual;
using testutil::GoldenTrajectory;
using testutil::kGoldenZeta;
using testutil::LoadGolden;

std::vector<traj::RepresentedSegment> Golden(const std::string& algo,
                                             datagen::DatasetKind kind) {
  return LoadGolden(std::string(OPERB_GOLDEN_DIR) + "/golden_" + algo + "_" +
                    std::string(datagen::DatasetName(kind)) + ".csv");
}

class EquivalenceTest
    : public testing::TestWithParam<
          std::tuple<testutil::AlgorithmParam, datagen::DatasetKind>> {};

TEST_P(EquivalenceTest, AllPathsMatchGolden) {
  const std::string algo = std::get<0>(GetParam()).name();
  const datagen::DatasetKind kind = std::get<1>(GetParam());
  const traj::Trajectory t = GoldenTrajectory(kind);
  const std::vector<traj::RepresentedSegment> golden = Golden(algo, kind);
  if (HasFailure()) return;

  const auto stream = testutil::MakeStreaming(algo, kGoldenZeta);

  // (a) Whole-trajectory run: one span.
  ExpectSegmentsEqual(baselines::SimplifyAll(*stream, t.points()).segments(),
                      golden, "SimplifyAll");

  // (b) The same product, Reset() by SimplifyAll, fed in two spans.
  std::vector<traj::RepresentedSegment> via_sink;
  stream->SetSink([&via_sink](const traj::RepresentedSegment& s) {
    via_sink.push_back(s);
  });
  const std::span<const geo::Point> all(t.points());
  stream->Push(all.subspan(0, t.size() / 3));
  stream->Push(all.subspan(t.size() / 3));
  stream->Finish();
  ExpectSegmentsEqual(via_sink, golden, "two spans after Reset");
}

/// The streaming surface the benchmark's fit layer times: one reused
/// StreamingSimplifier fed a whole span (pinned to the scalar level, as
/// the benchmark's `geo.simd_fit_speedup` pass does), then Reset() and
/// fed point by point (unpinned). Both runs must emit the golden
/// segments. There is one kernel level, so the pin changes nothing; the
/// test holds span ≡ per-point ≡ golden for every algorithm, and Reset()
/// reuse on top.
TEST_P(EquivalenceTest, DispatchLevelsAreByteIdentical) {
  const std::string algo = std::get<0>(GetParam()).name();
  const datagen::DatasetKind kind = std::get<1>(GetParam());
  const traj::Trajectory t = GoldenTrajectory(kind);
  const std::vector<traj::RepresentedSegment> want = Golden(algo, kind);
  if (HasFailure()) return;

  const auto stream = testutil::MakeStreaming(algo, kGoldenZeta);
  std::vector<traj::RepresentedSegment> got;
  stream->SetSink(
      [&got](const traj::RepresentedSegment& s) { got.push_back(s); });
  geo::simd::ForceLevel(geo::simd::Level::kScalar);
  stream->Push(std::span<const geo::Point>(t.points()));
  stream->Finish();
  geo::simd::ClearForcedLevel();
  ExpectSegmentsEqual(got, want, "span Push pinned to scalar");

  stream->Reset();
  got.clear();
  for (const geo::Point& p : t) stream->Push(p);
  stream->Finish();
  ExpectSegmentsEqual(got, want, "per-point Push after Reset");
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllProfiles, EquivalenceTest,
    testing::Combine(testing::ValuesIn(testutil::AllAlgorithmParams()),
                     testing::ValuesIn(datagen::AllDatasetKinds())),
    [](const testing::TestParamInfo<EquivalenceTest::ParamType>& info) {
      std::string name =
          std::get<0>(info.param).name() + "_" +
          std::string(datagen::DatasetName(std::get<1>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// The OPERB-family streams, built directly, must match the golden output
/// both per point and through batch Push(span).
class OperbStreamPathsTest
    : public testing::TestWithParam<datagen::DatasetKind> {};

TEST_P(OperbStreamPathsTest, OperbPollingAndBatchPathsMatchGolden) {
  const datagen::DatasetKind kind = GetParam();
  const traj::Trajectory t = GoldenTrajectory(kind);
  const std::vector<traj::RepresentedSegment> golden =
      LoadGolden(std::string(OPERB_GOLDEN_DIR) + "/golden_OPERB_" +
                 std::string(datagen::DatasetName(kind)) + ".csv");
  if (HasFailure()) return;
  const core::OperbOptions opts = core::OperbOptions::Optimized(kGoldenZeta);

  // (d) Per-point Push, each segment collected as it is emitted.
  core::OperbStream polling(opts);
  std::vector<traj::RepresentedSegment> collected;
  polling.SetSink(testutil::CollectInto(&collected));
  for (const geo::Point& p : t) polling.Push(p);
  polling.Finish();
  ExpectSegmentsEqual(collected, golden, "per-point");

  // (e) Batch Push(span) + sink.
  core::OperbStream spans(opts);
  std::vector<traj::RepresentedSegment> via_sink;
  spans.SetSink([&via_sink](const traj::RepresentedSegment& s) {
    via_sink.push_back(s);
  });
  const std::span<const geo::Point> all(t.points());
  spans.Push(all.subspan(0, t.size() / 2));
  spans.Push(all.subspan(t.size() / 2));
  spans.Finish();
  ExpectSegmentsEqual(via_sink, golden, "span+sink");

  // Pooled reuse: Reset() must restore the constructor-fresh state.
  spans.Reset();
  via_sink.clear();
  spans.Push(all);
  spans.Finish();
  ExpectSegmentsEqual(via_sink, golden, "reset+reuse");
}

TEST_P(OperbStreamPathsTest, OperbAPollingAndBatchPathsMatchGolden) {
  const datagen::DatasetKind kind = GetParam();
  const traj::Trajectory t = GoldenTrajectory(kind);
  const std::vector<traj::RepresentedSegment> golden =
      LoadGolden(std::string(OPERB_GOLDEN_DIR) + "/golden_OPERB-A_" +
                 std::string(datagen::DatasetName(kind)) + ".csv");
  if (HasFailure()) return;
  const core::OperbAOptions opts =
      core::OperbAOptions::Optimized(kGoldenZeta);

  core::OperbAStream polling(opts);
  std::vector<traj::RepresentedSegment> collected;
  polling.SetSink(testutil::CollectInto(&collected));
  for (const geo::Point& p : t) polling.Push(p);
  polling.Finish();
  ExpectSegmentsEqual(collected, golden, "per-point");

  core::OperbAStream spans(opts);
  std::vector<traj::RepresentedSegment> via_sink;
  spans.SetSink([&via_sink](const traj::RepresentedSegment& s) {
    via_sink.push_back(s);
  });
  spans.Push(std::span<const geo::Point>(t.points()));
  spans.Finish();
  ExpectSegmentsEqual(via_sink, golden, "span+sink");

  // Pooled reuse: Reset() must restore the constructor-fresh state.
  spans.Reset();
  via_sink.clear();
  spans.Push(std::span<const geo::Point>(t.points()));
  spans.Finish();
  ExpectSegmentsEqual(via_sink, golden, "reset+reuse");
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, OperbStreamPathsTest,
    testing::ValuesIn(datagen::AllDatasetKinds()),
    [](const testing::TestParamInfo<datagen::DatasetKind>& info) {
      return std::string(datagen::DatasetName(info.param));
    });

}  // namespace
}  // namespace operb

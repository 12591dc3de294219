// Golden equivalence suite for the hot-path optimizations.
//
// The fixtures under tests/golden/ were produced by the pre-optimization
// scalar implementation (trig per point, buffered emission, per-point
// Push). Every algorithm must keep emitting *bit-identical* segments
// through every execution path:
//   (a) the batch Simplify() entry point,
//   (b) the streaming sink path (SimplifyToSink),
//   (c) for the OPERB family: per-point Push + TakeEmitted polling,
//   (d) for the OPERB family: batch Push(span) + sink.
// Regenerate the fixtures with tools/make_golden only for an intentional
// output change, and re-review the diff.

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/simplifier.h"
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

std::vector<traj::RepresentedSegment> ToVector(
    const traj::PiecewiseRepresentation& rep) {
  return rep.segments();
}

class EquivalenceTest
    : public testing::TestWithParam<
          std::tuple<baselines::Algorithm, datagen::DatasetKind>> {};

TEST_P(EquivalenceTest, AllPathsMatchGolden) {
  const auto [algo, kind] = GetParam();
  const traj::Trajectory t = GoldenTrajectory(kind);
  const std::string golden_path =
      std::string(OPERB_GOLDEN_DIR) + "/golden_" +
      std::string(baselines::AlgorithmName(algo)) + "_" +
      std::string(datagen::DatasetName(kind)) + ".csv";
  const std::vector<traj::RepresentedSegment> golden =
      LoadGolden(golden_path);
  if (HasFailure()) return;

  const auto simplifier = baselines::MakeSimplifier(algo, kGoldenZeta);

  // (a) Batch entry point.
  ExpectSegmentsEqual(ToVector(simplifier->Simplify(t)), golden, "Simplify");

  // (b) Streaming sink path.
  std::vector<traj::RepresentedSegment> via_sink;
  simplifier->SimplifyToSink(
      t, [&via_sink](const traj::RepresentedSegment& s) {
        via_sink.push_back(s);
      });
  ExpectSegmentsEqual(via_sink, golden, "SimplifyToSink");
}

/// The streaming surface the benchmark's fit layer times: one reused
/// StreamingSimplifier fed a whole span (pinned to the scalar level, as
/// the benchmark's `geo.simd_fit_speedup` pass does), then Reset() and
/// fed point by point (unpinned). Both runs must emit the same segments
/// as the batch simplifier. There is one kernel level, so the pin
/// changes nothing; the test holds span ≡ per-point ≡ batch for every
/// algorithm, and Reset() reuse on top.
TEST_P(EquivalenceTest, DispatchLevelsAreByteIdentical) {
  const auto [algo, kind] = GetParam();
  const traj::Trajectory t = GoldenTrajectory(kind);
  std::vector<traj::RepresentedSegment> want;
  baselines::MakeSimplifier(algo, kGoldenZeta)
      ->SimplifyToSink(t, [&want](const traj::RepresentedSegment& s) {
        want.push_back(s);
      });

  const auto stream = baselines::MakeStreamingSimplifier(algo, kGoldenZeta);
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
    testing::Combine(testing::ValuesIn(baselines::AllAlgorithms()),
                     testing::ValuesIn(datagen::AllDatasetKinds())),
    [](const testing::TestParamInfo<EquivalenceTest::ParamType>& info) {
      std::string name =
          std::string(baselines::AlgorithmName(std::get<0>(info.param))) +
          "_" + std::string(datagen::DatasetName(std::get<1>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// The OPERB-family streams additionally expose raw Push/TakeEmitted and
/// batch Push(span): both must match the golden output exactly.
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

  // (c) Per-point Push with TakeEmitted polling (capacity-reusing drain).
  core::OperbStream polling(opts);
  std::vector<traj::RepresentedSegment> collected;
  std::vector<traj::RepresentedSegment> batch;
  for (const geo::Point& p : t) {
    polling.Push(p);
    polling.TakeEmitted(&batch);
    collected.insert(collected.end(), batch.begin(), batch.end());
  }
  polling.Finish();
  polling.TakeEmitted(&batch);
  collected.insert(collected.end(), batch.begin(), batch.end());
  ExpectSegmentsEqual(collected, golden, "polling");

  // (d) Batch Push(span) + sink.
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

  // (e) Pooled reuse: Reset() must restore the constructor-fresh state.
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
  std::vector<traj::RepresentedSegment> batch;
  for (const geo::Point& p : t) {
    polling.Push(p);
    polling.TakeEmitted(&batch);
    collected.insert(collected.end(), batch.begin(), batch.end());
  }
  polling.Finish();
  polling.TakeEmitted(&batch);
  collected.insert(collected.end(), batch.begin(), batch.end());
  ExpectSegmentsEqual(collected, golden, "polling");

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

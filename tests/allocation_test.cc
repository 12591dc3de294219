// Proves the sink path's zero-allocation claim: with a sink installed,
// steady-state Push performs no heap allocation per point, for OPERB and
// OPERB-A alike. The whole binary's global operator new/delete are
// replaced by counting forwarders; counting is switched on only around
// the measured Push loop, so test-framework allocations don't pollute the
// numbers.

#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/streaming.h"
#include "core/operb.h"
#include "core/operb_a.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "obs/metrics.h"
#include "traj/trajectory.h"

namespace {

// Single-threaded test binary; plain counters are sufficient.
bool g_counting = false;
std::size_t g_allocations = 0;

struct CountingScope {
  CountingScope() {
    g_allocations = 0;
    g_counting = true;
  }
  ~CountingScope() { g_counting = false; }
  std::size_t count() const { return g_allocations; }
};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace operb {
namespace {

traj::Trajectory TestTrajectory(std::size_t n) {
  datagen::Rng rng(20170401);
  return datagen::GenerateTrajectory(
      datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar), n, &rng);
}

TEST(AllocationTest, OperbSinkPathIsAllocationFreePerPoint) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  std::size_t segments = 0;
  // SetSink may allocate (std::function setup) — that's one-time, not
  // per-point, and happens before counting starts.
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });

  std::size_t allocations = 0;
  {
    CountingScope scope;
    for (const geo::Point& p : t) stream.Push(p);
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 10u);  // the stream actually compressed something
}

TEST(AllocationTest, OperbBatchPushSinkPathIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  std::size_t segments = 0;
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 10u);
}

/// The batched staging path on a reused stream: after a warm-up pass
/// and Reset(), span Push stays allocation-free (the SoA staging buffers
/// are fixed-size thread_locals, not heap).
TEST(AllocationTest, OperbBatchPushResetReuseIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  std::size_t segments = 0;
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });
  // Warm-up pass: first contact may fault in the TLS staging area.
  stream.Push(std::span<const geo::Point>(t.points()));
  stream.Finish();
  stream.Reset();

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 10u);
}

TEST(AllocationTest, OperbASinkPathIsAllocationFreePerPoint) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbAStream stream(core::OperbAOptions::Optimized(40.0));
  std::size_t segments = 0;
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 10u);
}

/// Pooled reuse (the engine's state-recycling path): after a warm-up run,
/// Reset() + a second full pass must perform no heap allocation at all —
/// not even the constructor-time setup the first pass was allowed.
TEST(AllocationTest, OperbResetReuseIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  std::size_t segments = 0;
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });
  stream.Push(std::span<const geo::Point>(t.points()));  // warm-up
  stream.Finish();

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream.Reset();
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 20u);
}

TEST(AllocationTest, OperbAResetReuseIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbAStream stream(core::OperbAOptions::Optimized(40.0));
  std::size_t segments = 0;
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });
  stream.Push(std::span<const geo::Point>(t.points()));  // warm-up
  stream.Finish();

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream.Reset();
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 20u);
}

/// Same through the type-erased StreamingSimplifier the engine pools.
TEST(AllocationTest, StreamingSimplifierResetReuseIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  for (const baselines::Algorithm algo :
       {baselines::Algorithm::kOPERB, baselines::Algorithm::kOPERBA,
        baselines::Algorithm::kRawOPERB}) {
    SCOPED_TRACE(std::string(baselines::AlgorithmName(algo)));
    const auto stream = baselines::MakeStreamingSimplifier(algo, 40.0);
    std::size_t segments = 0;
    stream->SetSink(
        [&segments](const traj::RepresentedSegment&) { ++segments; });
    stream->Push(std::span<const geo::Point>(t.points()));  // warm-up
    stream->Finish();

    std::size_t allocations = 0;
    {
      CountingScope scope;
      stream->Reset();
      stream->Push(std::span<const geo::Point>(t.points()));
      stream->Finish();
      allocations = scope.count();
    }
    EXPECT_EQ(allocations, 0u);
    EXPECT_GT(segments, 20u);
  }
}

/// The buffered batch adapters cannot promise allocation-free Finish()
/// (their batch algorithms allocate internally), but reused Push() must
/// stop allocating once the point buffer's capacity is warm.
TEST(AllocationTest, BufferedStreamingReusePushIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  const auto stream =
      baselines::MakeStreamingSimplifier(baselines::Algorithm::kFBQS, 40.0);
  std::size_t segments = 0;
  stream->SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });
  stream->Push(std::span<const geo::Point>(t.points()));  // warm-up
  stream->Finish();
  EXPECT_GT(segments, 20u);

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream->Reset();
    stream->Push(std::span<const geo::Point>(t.points()));
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  stream->Finish();
}

/// The obs record path's no-allocation contract (DESIGN.md §10): once a
/// call site holds its instrument pointers (acquired once, at startup),
/// counter adds, gauge moves, histogram records and scoped timers touch
/// only pre-sized atomics — zero heap traffic per point.
TEST(AllocationTest, MetricsRecordPathIsAllocationFree) {
  obs::MetricsRegistry registry;  // local: keeps the global dump clean
  obs::Counter* points = registry.GetCounter("test.points");
  obs::Gauge* level = registry.GetGauge("test.level");
  obs::MaxGauge* hwm = registry.GetMaxGauge("test.hwm");
  obs::LatencyHistogram* lat = registry.GetHistogram("test.lat_ns");

  std::size_t allocations = 0;
  {
    CountingScope scope;
    for (int i = 0; i < 20000; ++i) {
      points->Increment();
      level->Add(2);
      level->Sub(1);
      hwm->Observe(i);
      lat->Record(static_cast<std::uint64_t>(i));
      obs::ScopedTimer timer(lat);
    }
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(points->Value(), 20000u);
  EXPECT_EQ(lat->Count(), 2 * 20000u);
}

/// The instrumented sink path: the zero-allocation Push contract holds
/// with live metrics updates interleaved the way the engine batches
/// them (per ~64-point stride, against the process-global registry).
TEST(AllocationTest, InstrumentedSinkPathIsAllocationFreePerPoint) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  obs::Counter* segments_ctr =
      obs::MetricsRegistry::Global().GetCounter("test.sink.segments");
  obs::Counter* points_ctr =
      obs::MetricsRegistry::Global().GetCounter("test.sink.points");
  obs::MaxGauge* occupancy =
      obs::MetricsRegistry::Global().GetMaxGauge("test.sink.occupancy");
  stream.SetSink([segments_ctr](const traj::RepresentedSegment&) {
    segments_ctr->Increment();
  });

  std::size_t allocations = 0;
  {
    CountingScope scope;
    std::size_t since_batch = 0;
    for (const geo::Point& p : t) {
      stream.Push(p);
      if (++since_batch == 64) {  // the engine's amortization stride
        points_ctr->Add(since_batch);
        occupancy->Observe(static_cast<std::int64_t>(since_batch));
        since_batch = 0;
      }
    }
    points_ctr->Add(since_batch);
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(points_ctr->Value(), t.size());
  EXPECT_GT(segments_ctr->Value(), 10u);
}

/// Contrast check: the buffered path must still work (and will allocate),
/// confirming the counter actually observes the stream's allocations.
TEST(AllocationTest, BufferedPathAllocatesAndCounterSeesIt) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  std::size_t allocations = 0;
  std::size_t segments = 0;
  {
    CountingScope scope;
    for (const geo::Point& p : t) stream.Push(p);
    stream.Finish();
    allocations = scope.count();
    segments = stream.emitted().size();
  }
  EXPECT_GT(allocations, 0u);
  EXPECT_GT(segments, 10u);
}

}  // namespace
}  // namespace operb

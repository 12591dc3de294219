#ifndef OPERB_BENCH_BENCH_UTIL_H_
#define OPERB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/spec.h"
#include "baselines/streaming.h"
#include "common/stopwatch.h"
#include "datagen/profiles.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb::bench {

/// Shared fixed seed so every figure sees the same datasets.
inline constexpr std::uint64_t kBenchSeed = 20170401;

/// Process-wide smoke mode, set by ParseBenchArgs from `--smoke`: clamps
/// every generated dataset and collapses the timing windows so a figure
/// harness finishes in well under a second. ctest registers each bench
/// with `--smoke` to catch bit-rot without paying benchmark cost.
inline bool& SmokeMode() {
  static bool smoke = false;
  return smoke;
}

/// Parses a figure-bench command line; only `--smoke` is recognized.
/// Returns false (after printing a diagnostic) on anything else.
inline bool ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      SmokeMode() = true;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (only --smoke)\n",
                   argv[0], argv[i]);
      return false;
    }
  }
  return true;
}

/// Generates the scaled-down stand-in for one of the paper's datasets.
/// In smoke mode the sizes are clamped further (2 trajectories of <= 400
/// points) — enough to execute every code path, useless for timing.
inline std::vector<traj::Trajectory> MakeDataset(
    datagen::DatasetKind kind, std::size_t trajectories, std::size_t points,
    std::uint64_t seed = kBenchSeed) {
  datagen::DatasetSpec spec;
  spec.kind = kind;
  spec.num_trajectories =
      SmokeMode() ? std::min<std::size_t>(trajectories, 2) : trajectories;
  spec.points_per_trajectory =
      SmokeMode() ? std::min<std::size_t>(points, 400) : points;
  spec.seed = seed;
  return datagen::GenerateDataset(spec);
}

/// Runs `simplifier` over the dataset, returning {seconds per full pass,
/// representations of the last pass}. Repeats the pass until at least
/// `min_millis` of work has been timed so fast algorithms get stable
/// numbers on fast machines. Pass a negative `min_millis` (the default)
/// for the standard window: 80 ms, or a single pass in smoke mode.
struct TimedRun {
  double seconds = 0.0;
  std::vector<traj::PiecewiseRepresentation> representations;
};

inline TimedRun TimeSimplifier(baselines::StreamingSimplifier& simplifier,
                               const std::vector<traj::Trajectory>& dataset,
                               double min_millis = -1.0) {
  if (min_millis < 0.0) min_millis = SmokeMode() ? 0.0 : 80.0;
  TimedRun run;
  int passes = 0;
  Stopwatch watch;
  do {
    run.representations.clear();
    run.representations.reserve(dataset.size());
    for (const traj::Trajectory& t : dataset) {
      run.representations.push_back(
          baselines::SimplifyAll(simplifier, t.points()));
    }
    ++passes;
  } while (watch.ElapsedMillis() < min_millis);
  run.seconds = watch.ElapsedSeconds() / passes;
  return run;
}

/// Figure benches reproduce the paper's configuration: OPERB/OPERB-A with
/// the heuristics verbatim (no strict-bound guard). The ablation bench
/// quantifies the guarded default separately. `algorithm` is a registered
/// name; the figure benches pass literals, so a miss is a bench bug and
/// exits.
inline std::unique_ptr<baselines::StreamingSimplifier> MakePaperSimplifier(
    std::string_view algorithm, double zeta) {
  api::SimplifierSpec spec;
  spec.algorithm = std::string(algorithm);
  spec.zeta = zeta;
  spec.fidelity = baselines::OperbFidelity::kPaperFaithful;
  auto made = api::AlgorithmRegistry::Global().MakeStreaming(spec);
  if (!made.ok()) {
    std::fprintf(stderr, "bench: %s\n", made.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(made).value();
}

/// Total number of points across a dataset.
inline std::size_t TotalPoints(const std::vector<traj::Trajectory>& dataset) {
  std::size_t n = 0;
  for (const auto& t : dataset) n += t.size();
  return n;
}

/// Prints the standard bench banner.
inline void Banner(const char* experiment, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper reference: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

}  // namespace operb::bench

#endif  // OPERB_BENCH_BENCH_UTIL_H_

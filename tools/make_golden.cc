// make_golden: regenerates the golden equivalence fixtures under
// tests/golden/.
//
// For every registered algorithm and every synthetic dataset profile it
// runs the registry's simplifier over a fixed trajectory as one span
// (600 points, seed 20170401, zeta = 40 m, library-default guarded
// fidelity) and dumps the resulting segments with full double precision
// (%.17g round-trips bit-exactly). tests/equivalence_test.cc asserts that
// every execution path — one span, split spans, per-point Push, the
// engine, the store — reproduces these files bit-identically; the
// make_golden_reproduces ctest regenerates them into the build tree and
// diffs them against tests/golden/.
//
// The checked-in fixtures were produced by the pre-optimization scalar
// implementation; regenerate (and re-review the diff!) only when an
// *intentional* output change lands:
//
//   make_golden <repo>/tests/golden
//
// Exit codes: 0 success, 1 write failure, 2 usage error.

#include <cstdio>
#include <string>

#include "api/registry.h"
#include "api/spec.h"
#include "baselines/streaming.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace {

using namespace operb;  // NOLINT: single-file tool

constexpr std::uint64_t kGoldenSeed = 20170401;
constexpr std::size_t kGoldenPoints = 600;
constexpr double kGoldenZeta = 40.0;

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_golden OUTPUT_DIR\n");
    return 2;
  }
  const std::string out_dir = argv[1];
  const api::AlgorithmRegistry& registry = api::AlgorithmRegistry::Global();

  for (datagen::DatasetKind kind : datagen::AllDatasetKinds()) {
    datagen::Rng rng(kGoldenSeed);
    const traj::Trajectory trajectory = datagen::GenerateTrajectory(
        datagen::DatasetProfile::For(kind), kGoldenPoints, &rng);
    for (const std::string& algo : registry.Names()) {
      api::SimplifierSpec spec;
      spec.algorithm = algo;
      spec.zeta = kGoldenZeta;
      auto simplifier = registry.MakeStreaming(spec);
      if (!simplifier.ok()) {
        std::fprintf(stderr, "make_golden: %s\n",
                     simplifier.status().ToString().c_str());
        return 1;
      }
      const traj::PiecewiseRepresentation rep =
          baselines::SimplifyAll(**simplifier, trajectory.points());

      const std::string path = out_dir + "/golden_" + algo + "_" +
                               std::string(datagen::DatasetName(kind)) +
                               ".csv";
      std::FILE* f = std::fopen(path.c_str(), "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "make_golden: cannot open %s\n", path.c_str());
        return 1;
      }
      std::fprintf(f,
                   "# golden segments: %s on %s, n=%zu seed=%llu zeta=%g\n"
                   "# first,last,start_patch,end_patch,sx,sy,ex,ey\n",
                   algo.c_str(),
                   std::string(datagen::DatasetName(kind)).c_str(),
                   kGoldenPoints,
                   static_cast<unsigned long long>(kGoldenSeed), kGoldenZeta);
      for (const traj::RepresentedSegment& s : rep) {
        std::fprintf(f, "%zu,%zu,%d,%d,%.17g,%.17g,%.17g,%.17g\n",
                     s.first_index, s.last_index, s.start_is_patch ? 1 : 0,
                     s.end_is_patch ? 1 : 0, s.start.x, s.start.y, s.end.x,
                     s.end.y);
      }
      if (std::fclose(f) != 0) {
        std::fprintf(stderr, "make_golden: write failure on %s\n",
                     path.c_str());
        return 1;
      }
      std::printf("wrote %s (%zu segments)\n", path.c_str(), rep.size());
    }
  }
  return 0;
}

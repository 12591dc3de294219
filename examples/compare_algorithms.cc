// Compares every simplification algorithm in the library on one synthetic
// dataset: wall-clock time, compression ratio, average/max error, and the
// error-bound verdict. A compact version of the paper's whole evaluation.
//
// Usage: compare_algorithms [dataset] [zeta_m] [trajectories] [points]
//   dataset: Taxi | Truck | SerCar | GeoLife  (default SerCar)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/spec.h"
#include "baselines/streaming.h"
#include "common/stopwatch.h"
#include "datagen/profiles.h"
#include "eval/metrics.h"
#include "eval/verifier.h"

namespace {

operb::datagen::DatasetKind ParseKind(const std::string& name) {
  for (auto kind : operb::datagen::AllDatasetKinds()) {
    if (name == operb::datagen::DatasetName(kind)) return kind;
  }
  std::fprintf(stderr, "unknown dataset '%s', using SerCar\n", name.c_str());
  return operb::datagen::DatasetKind::kSerCar;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace operb;  // NOLINT: example brevity

  datagen::DatasetSpec spec;
  spec.kind = argc > 1 ? ParseKind(argv[1]) : datagen::DatasetKind::kSerCar;
  const double zeta = argc > 2 ? std::atof(argv[2]) : 40.0;
  spec.num_trajectories = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 8;
  spec.points_per_trajectory =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 5000;
  spec.seed = 20170401;

  std::printf("dataset=%s zeta=%.0fm trajectories=%zu points/traj=%zu\n\n",
              std::string(datagen::DatasetName(spec.kind)).c_str(), zeta,
              spec.num_trajectories, spec.points_per_trajectory);
  const std::vector<traj::Trajectory> dataset =
      datagen::GenerateDataset(spec);

  std::printf("%-12s %10s %10s %10s %10s %8s\n", "algorithm", "time_ms",
              "ratio_%", "avg_err_m", "max_err_m", "bounded");
  const api::AlgorithmRegistry& registry = api::AlgorithmRegistry::Global();
  for (const std::string& name : registry.Names()) {
    api::SimplifierSpec simplifier_spec;
    simplifier_spec.algorithm = name;
    simplifier_spec.zeta = zeta;
    auto made = registry.MakeStreaming(simplifier_spec);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return 2;
    }
    baselines::StreamingSimplifier& simplifier = **made;
    std::vector<traj::PiecewiseRepresentation> reps;
    reps.reserve(dataset.size());
    Stopwatch watch;
    for (const traj::Trajectory& t : dataset) {
      reps.push_back(baselines::SimplifyAll(simplifier, t.points()));
    }
    const double ms = watch.ElapsedMillis();
    const double ratio = eval::AggregateCompressionRatio(dataset, reps);
    const eval::ErrorStats err = eval::AggregateError(dataset, reps);
    bool bounded = true;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      bounded = bounded &&
                eval::VerifyErrorBound(dataset[i], reps[i], zeta).bounded;
    }
    std::printf("%-12s %10.1f %10.2f %10.2f %10.2f %8s\n",
                name.c_str(), ms, ratio * 100.0,
                err.average, err.max, bounded ? "yes" : "NO");
  }
  return 0;
}

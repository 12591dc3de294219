// Figure 18 (Exp-3): average error vs zeta.
// Paper shape: average error grows with zeta and stays well below zeta;
// DP has lower error than FBQS; OPERB ~= OPERB-A (interpolation adds no
// error).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace operb;  // NOLINT
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  bench::Banner(
      "Figure 18: average error (m) vs zeta",
      "errors grow with zeta, all <= zeta; DP below FBQS; OPERB ~= "
      "OPERB-A");

  const std::vector<std::string> algos{"DP", "FBQS", "OPERB", "OPERB-A"};

  for (auto kind : datagen::AllDatasetKinds()) {
    const auto dataset = bench::MakeDataset(kind, 8, 8000);
    std::printf("\n[%s] average error (m); 'max' column is the worst "
                "per-point distance over all four algorithms\n%8s",
                std::string(datagen::DatasetName(kind)).c_str(), "zeta_m");
    for (const std::string& algo : algos) {
      std::printf(" %11s", algo.c_str());
    }
    std::printf(" %9s\n", "max");

    for (double zeta : {5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
      std::printf("%8.0f", zeta);
      double worst = 0.0;
      for (const std::string& algo : algos) {
        const auto s = bench::MakePaperSimplifier(algo, zeta);
        std::vector<traj::PiecewiseRepresentation> reps;
        for (const auto& t : dataset) {
          reps.push_back(baselines::SimplifyAll(*s, t.points()));
        }
        const auto err = eval::AggregateError(dataset, reps);
        std::printf(" %11.2f", err.average);
        if (err.max > worst) worst = err.max;
      }
      std::printf(" %9.2f\n", worst);
    }
  }
  return 0;
}

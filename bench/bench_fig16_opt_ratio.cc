// Figure 16 (Exp-2.2): compression-ratio impact of the optimization
// techniques. Paper shape: OPERB reaches (87.9, 71.8, 61.8, 58.0)% of
// Raw-OPERB's ratio on (Taxi, Truck, SerCar, GeoLife) — bigger wins on
// densely sampled data — and the impact grows with zeta.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace operb;  // NOLINT
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  bench::Banner(
      "Figure 16: optimization techniques, compression ratio (%)",
      "OPERB = 58-88% of Raw-OPERB (more on dense data, growing with "
      "zeta); OPERB-A = 77-93% of Raw-OPERB-A");

  const std::vector<std::string> algos{"Raw-OPERB", "OPERB", "Raw-OPERB-A",
                                       "OPERB-A"};

  for (auto kind : datagen::AllDatasetKinds()) {
    const auto dataset = bench::MakeDataset(kind, 8, 8000);
    std::printf("\n[%s] compression ratio %%\n%8s",
                std::string(datagen::DatasetName(kind)).c_str(), "zeta_m");
    for (const std::string& algo : algos) {
      std::printf(" %12s", algo.c_str());
    }
    std::printf(" %10s %10s\n", "opt/raw", "optA/rawA");

    double sum_plain = 0.0, sum_aggr = 0.0;
    int rows = 0;
    for (double zeta : {5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
      std::printf("%8.0f", zeta);
      double r[4] = {0, 0, 0, 0};
      for (std::size_t i = 0; i < algos.size(); ++i) {
        const auto s = bench::MakePaperSimplifier(algos[i], zeta);
        std::vector<traj::PiecewiseRepresentation> reps;
        for (const auto& t : dataset) {
          reps.push_back(baselines::SimplifyAll(*s, t.points()));
        }
        r[i] = eval::AggregateCompressionRatio(dataset, reps) * 100.0;
        std::printf(" %12.2f", r[i]);
      }
      std::printf(" %9.1f%% %9.1f%%\n", 100.0 * r[1] / r[0],
                  100.0 * r[3] / r[2]);
      sum_plain += r[1] / r[0];
      sum_aggr += r[3] / r[2];
      ++rows;
    }
    std::printf("  average: OPERB %.1f%% of Raw-OPERB; OPERB-A %.1f%% of "
                "Raw-OPERB-A\n",
                100.0 * sum_plain / rows, 100.0 * sum_aggr / rows);
  }
  std::printf(
      "\npaper averages: OPERB/Raw = (87.9, 71.8, 61.8, 58.0)%%; "
      "OPERB-A/Raw-A = (93.1, 88.5, 77.1, 78.5)%%\n");
  return 0;
}

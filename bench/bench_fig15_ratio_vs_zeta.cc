// Figure 15 (Exp-2.1): compression ratio vs zeta (lower is better).
// Paper shape: ratios fall as zeta grows; GeoLife lowest, Taxi highest;
// OPERB comparable with DP/FBQS; OPERB-A best everywhere (84.2%, 86.4%,
// 97.1%, 94.7% of DP on Taxi/Truck/SerCar/GeoLife).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace operb;  // NOLINT
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  bench::Banner(
      "Figure 15: compression ratio (%) vs zeta",
      "ratios fall with zeta; GeoLife lowest / Taxi highest; OPERB ~ DP ~ "
      "FBQS; OPERB-A best on all datasets");

  const std::vector<std::string> algos{"DP", "FBQS", "OPERB", "OPERB-A"};

  for (auto kind : datagen::AllDatasetKinds()) {
    const auto dataset = bench::MakeDataset(kind, 8, 8000);
    std::printf("\n[%s] compression ratio %%\n%8s",
                std::string(datagen::DatasetName(kind)).c_str(), "zeta_m");
    for (const std::string& algo : algos) {
      std::printf(" %11s", algo.c_str());
    }
    std::printf(" %12s %12s\n", "OPERB/FBQS", "OPERB-A/DP");

    double sum_vs_fbqs = 0.0, sum_vs_dp = 0.0;
    int rows = 0;
    for (double zeta : {5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
      std::printf("%8.0f", zeta);
      double r_dp = 0, r_fbqs = 0, r_operb = 0, r_operba = 0;
      for (const std::string& algo : algos) {
        const auto s = bench::MakePaperSimplifier(algo, zeta);
        std::vector<traj::PiecewiseRepresentation> reps;
        for (const auto& t : dataset) {
          reps.push_back(baselines::SimplifyAll(*s, t.points()));
        }
        const double ratio =
            eval::AggregateCompressionRatio(dataset, reps) * 100.0;
        std::printf(" %11.2f", ratio);
        if (algo == "DP") r_dp = ratio;
        if (algo == "FBQS") r_fbqs = ratio;
        if (algo == "OPERB") r_operb = ratio;
        if (algo == "OPERB-A") r_operba = ratio;
      }
      std::printf(" %11.1f%% %11.1f%%\n", 100.0 * r_operb / r_fbqs,
                  100.0 * r_operba / r_dp);
      sum_vs_fbqs += r_operb / r_fbqs;
      sum_vs_dp += r_operba / r_dp;
      ++rows;
    }
    std::printf("  average: OPERB %.1f%% of FBQS; OPERB-A %.1f%% of DP\n",
                100.0 * sum_vs_fbqs / rows, 100.0 * sum_vs_dp / rows);
  }
  std::printf(
      "\npaper averages: OPERB/FBQS = (107.2, 98.3, 92.9, 85.1)%%;\n"
      "                OPERB-A/DP = (84.2, 86.4, 97.1, 94.7)%% on "
      "(Taxi, Truck, SerCar, GeoLife)\n");
  return 0;
}

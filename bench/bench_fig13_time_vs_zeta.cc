// Figure 13 (Exp-1.2): compression time vs error bound zeta.
// Paper shape: all algorithms mildly faster as zeta grows; OPERB on
// average (13.9, 17.4, 14.7, 20.6)x faster than DP and (4.1, 4.1, 5.4,
// 5.2)x faster than FBQS on (Taxi, Truck, SerCar, GeoLife); OPERB-A ~= OPERB.

#include <cstdio>
#include <string>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace operb;  // NOLINT
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  bench::Banner(
      "Figure 13: time vs zeta",
      "mild decrease with zeta; OPERB ~4-5x faster than FBQS, ~14-21x "
      "than DP; OPERB-A ~= OPERB");

  const std::vector<std::string> algos{"DP", "FBQS", "OPERB", "OPERB-A"};

  for (auto kind : datagen::AllDatasetKinds()) {
    const auto dataset = bench::MakeDataset(kind, 8, 8000);
    const double total = static_cast<double>(bench::TotalPoints(dataset));
    std::printf("\n[%s] time per point (ns)\n",
                std::string(datagen::DatasetName(kind)).c_str());
    std::printf("%8s", "zeta_m");
    for (const std::string& algo : algos) {
      std::printf(" %11s", algo.c_str());
    }
    std::printf(" %11s %11s\n", "DP/OPERB", "FBQS/OPERB");

    double sum_dp_ratio = 0.0, sum_fbqs_ratio = 0.0;
    int rows = 0;
    for (double zeta : {10.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
      std::printf("%8.0f", zeta);
      double t_dp = 0.0, t_fbqs = 0.0, t_operb = 0.0;
      for (const std::string& algo : algos) {
        const auto s = bench::MakePaperSimplifier(algo, zeta);
        const auto run = bench::TimeSimplifier(*s, dataset);
        const double ns_per_point = run.seconds * 1e9 / total;
        std::printf(" %11.1f", ns_per_point);
        if (algo == "DP") t_dp = ns_per_point;
        if (algo == "FBQS") t_fbqs = ns_per_point;
        if (algo == "OPERB") t_operb = ns_per_point;
      }
      std::printf(" %10.1fx %10.1fx\n", t_dp / t_operb, t_fbqs / t_operb);
      sum_dp_ratio += t_dp / t_operb;
      sum_fbqs_ratio += t_fbqs / t_operb;
      ++rows;
    }
    std::printf("  average speedup of OPERB: %.1fx over DP, %.1fx over FBQS\n",
                sum_dp_ratio / rows, sum_fbqs_ratio / rows);
  }
  return 0;
}

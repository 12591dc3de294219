// Figure 12 (Exp-1.1): compression time vs trajectory size, zeta = 40 m.
// Paper shape: OPERB/OPERB-A linear and fastest (3.8-8.4x over FBQS,
// 8.4-17.6x over DP); DP super-linear.

#include <cstdio>
#include <string>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace operb;  // NOLINT
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  bench::Banner(
      "Figure 12: time vs |T| (zeta = 40 m)",
      "OPERB & OPERB-A fastest, linear; 3.8-8.4x faster than FBQS and "
      "8.4-17.6x than DP across datasets");

  const double zeta = 40.0;
  const std::vector<std::string> algos{"DP", "FBQS", "OPERB", "OPERB-A"};

  for (auto kind : datagen::AllDatasetKinds()) {
    std::printf("\n[%s] time per point (ns), 8 trajectories per size\n",
                std::string(datagen::DatasetName(kind)).c_str());
    std::printf("%8s", "|T|");
    for (const std::string& algo : algos) {
      std::printf(" %11s", algo.c_str());
    }
    std::printf(" %11s %11s\n", "DP/OPERB", "FBQS/OPERB");

    for (std::size_t size : {2000u, 4000u, 6000u, 8000u, 10000u}) {
      const auto dataset = bench::MakeDataset(kind, 8, size);
      const double total = static_cast<double>(bench::TotalPoints(dataset));
      std::printf("%8zu", size);
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
    }
  }
  return 0;
}

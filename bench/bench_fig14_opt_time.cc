// Figure 14 (Exp-1.3): efficiency impact of the Section 4.4 optimization
// techniques. Paper shape: Raw-OPERB runs at 79.6-100.4% of OPERB's time
// (i.e. the optimizations cost little), similarly Raw-OPERB-A vs OPERB-A.

#include <cstdio>
#include <string>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace operb;  // NOLINT
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  bench::Banner(
      "Figure 14: optimization techniques, efficiency (time per point, ns)",
      "Raw-OPERB ~80-100% of OPERB's time; Raw-OPERB-A ~90-102% of "
      "OPERB-A's — optimizations have limited efficiency impact");

  const std::vector<std::string> algos{"Raw-OPERB", "OPERB", "Raw-OPERB-A",
                                       "OPERB-A"};

  for (auto kind : datagen::AllDatasetKinds()) {
    const auto dataset = bench::MakeDataset(kind, 8, 8000);
    const double total = static_cast<double>(bench::TotalPoints(dataset));
    std::printf("\n[%s]\n%8s", std::string(datagen::DatasetName(kind)).c_str(),
                "zeta_m");
    for (const std::string& algo : algos) {
      std::printf(" %12s", algo.c_str());
    }
    std::printf(" %10s %10s\n", "raw/opt", "rawA/optA");

    double sum_plain = 0.0, sum_aggr = 0.0;
    int rows = 0;
    for (double zeta : {10.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
      std::printf("%8.0f", zeta);
      double t[4] = {0, 0, 0, 0};
      for (std::size_t i = 0; i < algos.size(); ++i) {
        const auto s = bench::MakePaperSimplifier(algos[i], zeta);
        const auto run = bench::TimeSimplifier(*s, dataset);
        t[i] = run.seconds * 1e9 / total;
        std::printf(" %12.1f", t[i]);
      }
      std::printf(" %9.1f%% %9.1f%%\n", 100.0 * t[0] / t[1],
                  100.0 * t[2] / t[3]);
      sum_plain += t[0] / t[1];
      sum_aggr += t[2] / t[3];
      ++rows;
    }
    std::printf("  average: Raw-OPERB %.1f%% of OPERB, Raw-OPERB-A %.1f%% "
                "of OPERB-A\n",
                100.0 * sum_plain / rows, 100.0 * sum_aggr / rows);
  }
  return 0;
}

// Figure 17 (Exp-2.3): distribution of line segments — Z(k) = number of
// output segments representing exactly k data points, zeta = 40 m.
// Paper shape: DP and OPERB-A produce more heavy segments than FBQS and
// OPERB; OPERB has the most 1-2 point segments, largely removed by
// OPERB-A.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace operb;  // NOLINT
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  bench::Banner(
      "Figure 17: segment-size distribution Z(k), zeta = 40 m",
      "DP & OPERB-A produce more heavy segments; OPERB has the most "
      "1-point segments, mostly eliminated by OPERB-A");

  const double zeta = 40.0;
  const std::vector<std::string> algos{"DP", "FBQS", "OPERB", "OPERB-A"};

  // Buckets of k as the paper plots them (log-ish).
  const std::vector<std::pair<std::size_t, std::size_t>> buckets{
      {1, 1}, {2, 2}, {3, 4}, {5, 8}, {9, 16}, {17, 32}, {33, 64},
      {65, 1u << 30}};

  for (auto kind : datagen::AllDatasetKinds()) {
    const auto dataset = bench::MakeDataset(kind, 8, 8000);
    std::printf("\n[%s] Z(k): segments whose point count falls in bucket\n",
                std::string(datagen::DatasetName(kind)).c_str());
    std::printf("%12s", "k");
    for (const auto& [lo, hi] : buckets) {
      char label[32];
      if (lo == hi) {
        std::snprintf(label, sizeof(label), "%zu", lo);
      } else if (hi > (1u << 20)) {
        std::snprintf(label, sizeof(label), ">=%zu", lo);
      } else {
        std::snprintf(label, sizeof(label), "%zu-%zu", lo, hi);
      }
      std::printf(" %9s", label);
    }
    std::printf("\n");
    for (const std::string& algo : algos) {
      const auto s = bench::MakePaperSimplifier(algo, zeta);
      std::vector<traj::PiecewiseRepresentation> reps;
      for (const auto& t : dataset) {
        reps.push_back(baselines::SimplifyAll(*s, t.points()));
      }
      const auto z = eval::SegmentSizeDistribution(reps);
      std::printf("%12s", std::string(s->name()).c_str());
      for (const auto& [lo, hi] : buckets) {
        std::size_t count = 0;
        for (const auto& [k, n] : z) {
          if (k >= lo && k <= hi) count += n;
        }
        std::printf(" %9zu", count);
      }
      std::printf("\n");
    }
  }
  return 0;
}

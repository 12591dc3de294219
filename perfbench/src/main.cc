// perfbench: the repository benchmark binary.
//
//   perfbench --workload file_batch|fleet_archive|live_mixed --seed N
//             --seconds S --trace 0|1 --end-to-end CATALOGUE
//             --per-layer CATALOGUE [--seed2 M] [--tiny] [--work-dir DIR]
//
// A CATALOGUE is "name:unit,name:unit,..."; run.py passes the two
// catalogues of BENCHMARK.json, the only place metric names and units
// are written down. Prints a host/seed record line, then as its last
// stdout line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end catalogue with --trace 0, the per-layer
// catalogue with --trace 1. Exits 1 when any output check failed, 2 on a
// usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace {

using perfbench::Args;

struct Workload {
  const char* name;
  void (*run)(const Args&, perfbench::Tracer&, perfbench::Checks&,
              perfbench::Metrics&);
  /// The per-layer metrics the traced run measures on this workload's
  /// path (the "measured on" column of perfbench/README.md). Each must
  /// be emitted; every other per-layer metric must not be, and reads 0.
  std::vector<std::string> layers;
  /// Traced runs only: a workload run after this one, whose layers this
  /// one does not measure are reported as this run's.
  const char* traced_with = nullptr;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"file_batch",
       perfbench::RunFileBatch,
       {"traj.parse_s", "traj.clean_s", "traj.clean_dropped", "core.fit_s",
        "core.patch_share", "geo.simd_fit_speedup", "eval.verify_s",
        "eval.max_error_over_zeta", "bench.trace_overhead_share"}},
      {"fleet_archive",
       perfbench::RunFleetArchive,
       {"core.fit_s", "core.patch_share", "geo.simd_fit_speedup",
        "eval.verify_s", "eval.max_error_over_zeta", "engine.push_s",
        "engine.close_s", "engine.ring_full_stalls",
        "engine.peak_live_objects", "engine.speedup_vs_1_worker",
        "store.append_s", "store.close_s", "store.write_amplification",
        "store.compact_s", "store.open_s", "store.window_p50_ms",
        "store.flat_window_p50_ms", "store.position_p50_ms",
        "store.reconstruct_p50_ms", "store.skip_ratio",
        "store.segments_scanned_per_match", "codec.bytes_per_segment",
        "bench.trace_overhead_share"},
       // live_mixed is no benchmark workload (its query figures do not
       // hold steady, see perfbench/README.md), but it is the only path
       // through the server, so the traced fleet run measures it too.
       "live_mixed"},
      {"live_mixed",
       perfbench::RunLiveMixed,
       {"core.fit_s", "core.patch_share", "geo.simd_fit_speedup",
        "eval.verify_s", "eval.max_error_over_zeta", "engine.push_s",
        "engine.close_s", "engine.ring_full_stalls",
        "engine.peak_live_objects", "engine.tail_snapshot_p50_ms",
        "engine.shard_tails_p50_ms", "store.compact_s", "store.open_s",
        "server.position_at_p50_ms", "server.position_at_p99_ms",
        "server.query_object_p50_ms", "server.ingest_p50_ms",
        "server.inproc_position_at_p50_ms", "server.busy_share",
        "server.seals", "bench.generator_late_max_ms",
        "bench.trace_overhead_share"}},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

bool ParseU64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      args->tiny = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      args->workload = argv[++i];
    } else if (a == "--seed") {
      if (!ParseU64(argv[++i], &args->seed)) return false;
    } else if (a == "--seed2") {
      if (!ParseU64(argv[++i], &args->seed2)) return false;
      args->seed2_given = true;
    } else if (a == "--seconds") {
      char* end = nullptr;
      args->seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (a == "--trace") {
      const std::string_view v = argv[++i];
      if (v != "0" && v != "1") return false;
      args->trace = v == "1";
    } else if (a == "--work-dir") {
      args->work_dir = argv[++i];
    } else if (a == "--end-to-end") {
      if (!perfbench::ParseCatalogue(argv[++i], &args->end_to_end)) {
        return false;
      }
    } else if (a == "--per-layer") {
      if (!perfbench::ParseCatalogue(argv[++i], &args->per_layer)) {
        return false;
      }
    } else {
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr &&
         !args->end_to_end.empty() && !args->per_layer.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload file_batch|fleet_archive|"
                 "live_mixed --seed N --seconds S --trace 0|1 "
                 "--end-to-end CATALOGUE --per-layer CATALOGUE [--seed2 M] "
                 "[--tiny] [--work-dir DIR]\n");
    return 2;
  }
  if (!args.seed2_given) args.seed2 = perfbench::SubSeed(args.seed, 0xB0);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  const double started = perfbench::NowSeconds();
  const Workload& workload = *FindWorkload(args.workload);
  perfbench::Tracer tracer(args.trace);
  perfbench::Checks checks;
  perfbench::Metrics measured;
  workload.run(args, tracer, checks, measured);
  std::vector<std::string> layers = workload.layers;
  if (args.trace && workload.traced_with != nullptr) {
    const Workload& with = *FindWorkload(workload.traced_with);
    perfbench::Metrics more;
    with.run(args, tracer, checks, more);
    for (const std::string& name : with.layers) {
      if (Contains(layers, name)) continue;
      layers.push_back(name);
      if (more.Has(name)) measured.Set(name, more.Get(name));
    }
  }

  std::string trace_path;
  if (args.trace) {
    trace_path = args.work_dir + "/trace_" + args.workload + ".json";
    checks.Expect(tracer.WriteJson(trace_path), "trace.written");
  }

  // The result line carries exactly the catalogue of this mode. Every
  // metric the workload set must be in it; a metric the workload forgot
  // is a failed check. In the traced run that holds for the layers on
  // the workload's path, and a layer off the path reads 0.
  const std::vector<perfbench::MetricSpec>& catalogue =
      args.trace ? args.per_layer : args.end_to_end;
  std::vector<std::string> names_in_catalogue;
  for (const perfbench::MetricSpec& m : catalogue) {
    names_in_catalogue.push_back(m.name);
  }
  for (const std::string& name : measured.Names()) {
    checks.Expect(Contains(names_in_catalogue, name), "metric.known");
  }
  std::string on_path;
  if (args.trace) {
    for (const std::string& name : layers) {
      checks.Expect(Contains(names_in_catalogue, name), "metric.known");
      on_path += (on_path.empty() ? "\"" : ", \"") + name + "\"";
    }
  }
  for (const perfbench::MetricSpec& m : catalogue) {
    if (!args.trace || Contains(layers, m.name)) {
      checks.Expect(measured.Has(m.name), "metric.emitted");
    } else {
      checks.Expect(!measured.Has(m.name), "metric.off_path");
      measured.Set(m.name, 0.0);
    }
  }

  std::string names;
  for (const std::string& n : checks.Names()) {
    names += (names.empty() ? "\"" : ", \"") + n + "\"";
  }
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"seed2\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"tiny\": %s, \"host\": %s, "
      "\"checks\": [%s], \"on_path\": [%s], \"trace_file\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.seed2), args.seconds,
      args.trace ? 1 : 0, args.tiny ? "true" : "false",
      perfbench::HostFingerprintJson().c_str(), names.c_str(),
      on_path.c_str(), trace_path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              checks.correct() ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()),
              measured.Json(catalogue).c_str());
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s seed %llu done in %.1f s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               perfbench::NowSeconds() - started);
  return checks.correct() ? 0 : 1;
}

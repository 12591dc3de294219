#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the perfbench workloads: command-line arguments,
// sample statistics, output checks, the metric sink, the span tracer, the
// output hash and the fleet input generator.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/spec.h"
#include "geo/bbox.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace perfbench {

/// One entry of a metric catalogue.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Parses a catalogue written as "name:unit,name:unit,..." (run.py
/// passes the two catalogues of BENCHMARK.json in this form). False on
/// an empty or malformed list.
bool ParseCatalogue(std::string_view text, std::vector<MetricSpec>* out);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Seeds the request mix (query targets, log order, window placement)
  /// independently of the data; defaults to a value derived from seed.
  std::uint64_t seed2 = 0;
  bool seed2_given = false;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every input to a size that runs in seconds (the self-check).
  bool tiny = false;
  /// Scratch directory for stores and the trace file.
  std::string work_dir = ".bench_build/work";
  /// The metric catalogues of BENCHMARK.json, in its order.
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

/// Monotonic clock in seconds (steady_clock).
double NowSeconds();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
/// The `across`-quantile, over the non-empty groups, of each group's
/// q-quantile: a percentile of a typical group (a batch, a second of a
/// run), which host noise in a few groups does not move.
double QuantileOfQuantiles(const std::vector<std::vector<double>>& groups,
                           double q, double across);
/// `values` grouped by the whole second of `at_s` (parallel to `values`,
/// seconds since the phase start); groups cover [0, floor(seconds)), and
/// values outside that range are dropped.
std::vector<std::vector<double>> BySecond(const std::vector<double>& values,
                                          const std::vector<double>& at_s,
                                          double seconds);

/// Output checks. Every check is named, counted as attempted, and a
/// failing one is counted as failed and reported on stderr. The names of
/// the checks that ran are printed with the result so the self-check can
/// assert that each one executed.
class Checks {
 public:
  /// Records one checked operation (a request, a comparison).
  bool Expect(bool ok, const std::string& check);
  /// Records `n` operations of which `failed` failed.
  void Count(const std::string& check, std::uint64_t n, std::uint64_t failed);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> names_;
};

/// The measured values of one run, by metric name. Units live in the
/// catalogue only.
class Metrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const { return values_.at(name); }
  std::vector<std::string> Names() const;
  /// The result object: every metric of `catalogue` that was set, in
  /// the catalogue's order, with the catalogue's unit.
  std::string Json(const std::vector<MetricSpec>& catalogue) const;

 private:
  std::map<std::string, double> values_;
};

/// In-memory span recorder. A span is (name, start, end, parent, request
/// id, thread); spans are appended to per-thread buffers, so recording
/// from engine worker threads takes no lock, and are written out once by
/// WriteJson() when the benchmark ends. When disabled, Begin/End cost
/// one branch and record nothing.
class Tracer {
 public:
  using SpanId = std::int64_t;
  static constexpr SpanId kNoSpan = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  SpanId Begin(const char* name, SpanId parent = kNoSpan,
               std::int64_t request = -1);
  void End(SpanId id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, SpanId parent = kNoSpan,
          std::int64_t request = -1)
        : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    SpanId id() const { return id_; }

   private:
    Tracer& tracer_;
    SpanId id_;
  };

  struct Summary {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus the time child spans cover
  };
  /// Per-name totals over every recorded span (self time included).
  std::map<std::string, Summary> Summarize() const;
  /// Durations (seconds) of every span named `name`, in record order
  /// per thread.
  std::vector<double> Durations(const std::string& name) const;
  /// Writes every span plus the per-name summary as JSON to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    SpanId parent;
    std::int64_t request;
  };
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::uint64_t generation_ = NextGeneration();
  static std::uint64_t NextGeneration();
};

/// FNV-1a 64 over the exact bytes of the values fed to it.
class Hasher {
 public:
  void Bytes(const void* data, std::size_t n);
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Segment(operb::traj::ObjectId id,
               const operb::traj::RepresentedSegment& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598143099811037ULL;
};

/// SplitMix64-derived seed for stream `k` of a run seeded with `seed`.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t k);

/// A fleet of `objects` SerCar-profile trajectories of `points` samples
/// each, ids 1..objects. Object k sits in its own cell of a square grid
/// 5 km apart (so spatial windows can prune) and starts at a seeded
/// offset within the first hour.
std::vector<operb::traj::ObjectTrajectory> MakeFleet(std::uint64_t seed,
                                                     std::size_t objects,
                                                     std::size_t points);

/// The core layer alone: every trajectory fitted once through one pooled
/// single-stream simplifier of `spec` (Push, Finish, Reset per object),
/// alternating passes pinned to the detected SIMD level and to scalar.
struct FitTimes {
  double native_s = 0.0;  ///< median pass at geo::simd::Detect()
  double scalar_s = 0.0;  ///< median pass at Level::kScalar
};
FitTimes FitLevels(const operb::api::SimplifierSpec& spec,
                   const std::vector<const operb::traj::Trajectory*>& objects,
                   int passes, Tracer& tracer, Checks& checks);

/// A box covering every generated position (an all-objects window).
operb::geo::BoundingBox EverywhereBox();

/// Peak resident set size of this process, MiB.
double PeakRssMiB();
/// Total size of the regular files under `dir`, bytes.
std::uint64_t DirectoryBytes(const std::string& dir);
/// Host fingerprint as a JSON object: nproc, CPU model, detected SIMD
/// level, compiler, build type.
std::string HostFingerprintJson();
/// Worker threads for the engine: one producer plus workers, no more
/// threads than cores.
std::size_t EngineWorkers();

/// Per-workload entry points (file_batch.cc, fleet_archive.cc,
/// live_mixed.cc). Each fills the end-to-end metrics (untraced) or the
/// per-layer metrics (traced), and records every output check.
void RunFileBatch(const Args& args, Tracer& tracer, Checks& checks,
                  Metrics& metrics);
void RunFleetArchive(const Args& args, Tracer& tracer, Checks& checks,
                     Metrics& metrics);
void RunLiveMixed(const Args& args, Tracer& tracer, Checks& checks,
                  Metrics& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

// Registration of the library's 10 built-in algorithms, one block per
// algorithm family. Each algorithm has exactly one factory, which builds
// its resettable StreamingSimplifier from a SimplifierSpec — the OPERB
// family's products are the core streams themselves, the batch baselines'
// a buffering adapter; the golden equivalence suite pins their output.
//
// Registration is explicit — RegisterBuiltinAlgorithms() is called from
// AlgorithmRegistry::Global() on first use — rather than via static
// initializer objects: these modules build as static libraries, where the
// linker is free to drop a translation unit nothing references, which
// silently unregisters algorithms. See DESIGN.md §7.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "api/spec.h"
#include "baselines/bqs.h"
#include "baselines/dp.h"
#include "baselines/opw.h"
#include "baselines/streaming.h"
#include "common/check.h"
#include "common/serial.h"
#include "core/operb.h"
#include "core/operb_a.h"
#include "core/options.h"
#include "traj/trajectory.h"

namespace operb::api {

namespace {

using FreeFunction = traj::PiecewiseRepresentation (*)(const traj::Trajectory&,
                                                       double);

constexpr std::uint32_t kBufferedStateMagic = 0x5346'5542u;  // "BUFS"

/// Buffering adapter for the batch baselines: Push() accumulates the
/// trajectory (amortized; the buffer's capacity survives Reset, so a
/// pooled state stops allocating per point once warm), Finish() runs the
/// batch algorithm and forwards every segment to the sink in order.
class BufferedStreaming final : public baselines::StreamingSimplifier {
 public:
  BufferedStreaming(std::string_view name, FreeFunction fn, double zeta)
      : name_(name), fn_(fn), zeta_(zeta) {}

  std::string_view name() const override { return name_; }
  bool one_pass() const override { return false; }
  void SetSink(traj::SegmentSink sink) override { sink_ = std::move(sink); }
  void Push(const geo::Point& p) override {
    buffer_.AppendUnchecked(p);  // order is the caller's contract
  }
  void Push(std::span<const geo::Point> points) override {
    for (const geo::Point& p : points) buffer_.AppendUnchecked(p);
  }
  void Finish() override {
    if (buffer_.size() < 2) return;  // fewer than two points: no segment
    for (const traj::RepresentedSegment& s : fn_(buffer_, zeta_)) {
      if (sink_) sink_(s);
    }
  }
  void Reset() override { buffer_.clear(); }

  void Serialize(std::vector<std::uint8_t>* out) const override {
    const std::size_t start =
        baselines::BeginState(kBufferedStateMagic, zeta_, out);
    serial::PutU64(buffer_.size(), out);
    for (const geo::Point& p : buffer_.points()) {
      serial::PutF64(p.x, out);
      serial::PutF64(p.y, out);
      serial::PutF64(p.t, out);
    }
    baselines::EndState(start, out);
  }

  Status Deserialize(std::span<const std::uint8_t> in,
                     std::size_t* pos) override {
    const std::size_t start = *pos;
    OPERB_RETURN_IF_ERROR(baselines::CheckStateHeader(
        kBufferedStateMagic, name_, zeta_, in, pos));
    std::uint64_t count = 0;
    if (!serial::GetU64(in, pos, &count)) {
      return Status::Corruption("truncated buffered simplifier state");
    }
    buffer_.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
      geo::Point p;
      if (!serial::GetF64(in, pos, &p.x) || !serial::GetF64(in, pos, &p.y) ||
          !serial::GetF64(in, pos, &p.t)) {
        return Status::Corruption("truncated buffered simplifier state");
      }
      buffer_.AppendUnchecked(p);
    }
    return baselines::VerifyStateChecksum(in, start, pos);
  }

 private:
  std::string_view name_;
  FreeFunction fn_;
  double zeta_;
  traj::SegmentSink sink_;
  traj::Trajectory buffer_;
};

// ---------------------------------------------------------------------
// Family registration blocks.
// ---------------------------------------------------------------------

traj::PiecewiseRepresentation SimplifyOpwEuclid(const traj::Trajectory& t,
                                                double zeta) {
  return baselines::SimplifyOpw(t, zeta, baselines::OpwDistance::kEuclidean);
}

traj::PiecewiseRepresentation SimplifyOpwSed(const traj::Trajectory& t,
                                             double zeta) {
  return baselines::SimplifyOpw(t, zeta, baselines::OpwDistance::kSynchronous);
}

/// Registers one function-style batch baseline: its product buffers the
/// trajectory and runs the free function at Finish().
void RegisterFunctionAlgorithm(AlgorithmRegistry& registry, const char* name,
                               const char* summary, FreeFunction fn) {
  AlgorithmRegistry::Entry entry;
  entry.name = name;
  entry.summary = summary;
  // `name` is a string literal, so adapters can hold a view of it.
  entry.streaming = [name, fn](const SimplifierSpec& spec) {
    return std::make_unique<BufferedStreaming>(name, fn, spec.zeta);
  };
  OPERB_CHECK_MSG(registry.Register(std::move(entry)).ok(),
                  "builtin registration failed");
}

/// Spec -> core::OperbOptions, shared by the factories and option
/// validators of both OPERB variants. `optimized` selects
/// Optimized()/Raw(); the fidelity switch only applies to the optimized
/// variant — Raw-OPERB has no heuristics for the guard to guard.
core::OperbOptions OperbOptionsFrom(const SimplifierSpec& spec,
                                    bool optimized) {
  core::OperbOptions o = optimized ? core::OperbOptions::Optimized(spec.zeta)
                                   : core::OperbOptions::Raw(spec.zeta);
  if (optimized) {
    o.strict_bound_guard =
        spec.fidelity == baselines::OperbFidelity::kGuarded;
  }
  o.step_length_factor = spec.Option("step_length", o.step_length_factor);
  o.activation_slack_factor =
      spec.Option("activation_slack", o.activation_slack_factor);
  return o;
}

core::OperbAOptions OperbAOptionsFrom(const SimplifierSpec& spec,
                                      bool optimized) {
  core::OperbAOptions o;
  o.base = OperbOptionsFrom(spec, optimized);
  o.gamma_m = spec.Option("gamma_m", o.gamma_m);
  return o;
}

void RegisterOperbVariant(AlgorithmRegistry& registry, const char* name,
                          const char* summary, bool optimized) {
  AlgorithmRegistry::Entry entry;
  entry.name = name;
  entry.summary = summary;
  entry.option_keys = {"step_length", "activation_slack"};
  entry.streaming = [name, optimized](const SimplifierSpec& spec) {
    return std::make_unique<core::OperbStream>(
        OperbOptionsFrom(spec, optimized), name);
  };
  entry.validate_options = [optimized](const SimplifierSpec& spec) {
    return OperbOptionsFrom(spec, optimized).Validate();
  };
  OPERB_CHECK_MSG(registry.Register(std::move(entry)).ok(),
                  "builtin registration failed");
}

void RegisterOperbAVariant(AlgorithmRegistry& registry, const char* name,
                           const char* summary, bool optimized) {
  AlgorithmRegistry::Entry entry;
  entry.name = name;
  entry.summary = summary;
  entry.option_keys = {"step_length", "activation_slack", "gamma_m"};
  entry.streaming = [name, optimized](const SimplifierSpec& spec) {
    return std::make_unique<core::OperbAStream>(
        OperbAOptionsFrom(spec, optimized), name);
  };
  entry.validate_options = [optimized](const SimplifierSpec& spec) {
    return OperbAOptionsFrom(spec, optimized).Validate();
  };
  OPERB_CHECK_MSG(registry.Register(std::move(entry)).ok(),
                  "builtin registration failed");
}

}  // namespace

void RegisterBuiltinAlgorithms(AlgorithmRegistry& registry) {
  // Registration order == Names() == the order the paper's figures list
  // the algorithms.
  RegisterFunctionAlgorithm(registry, "DP",
                            "batch Douglas-Peucker, Euclidean distance",
                            &baselines::SimplifyDp);
  RegisterFunctionAlgorithm(registry, "DP-SED",
                            "top-down DP with synchronous Euclidean distance",
                            &baselines::SimplifyDpSed);
  RegisterFunctionAlgorithm(registry, "OPW",
                            "open-window online algorithm, Euclidean distance",
                            &SimplifyOpwEuclid);
  RegisterFunctionAlgorithm(registry, "OPW-SED",
                            "open window with synchronous Euclidean distance",
                            &SimplifyOpwSed);
  RegisterFunctionAlgorithm(registry, "BQS", "bounded quadrant system",
                            &baselines::SimplifyBqs);
  RegisterFunctionAlgorithm(registry, "FBQS", "fast (buffer-free) BQS",
                            &baselines::SimplifyFbqs);
  RegisterOperbVariant(registry, "Raw-OPERB",
                       "OPERB without the five optimizations (Figure 7)",
                       /*optimized=*/false);
  RegisterOperbVariant(registry, "OPERB",
                       "one-pass error-bounded simplification, optimized",
                       /*optimized=*/true);
  RegisterOperbAVariant(registry, "Raw-OPERB-A",
                        "Raw-OPERB plus patch-point interpolation",
                        /*optimized=*/false);
  RegisterOperbAVariant(registry, "OPERB-A",
                        "OPERB plus patch-point interpolation (aggressive)",
                        /*optimized=*/true);
}

}  // namespace operb::api

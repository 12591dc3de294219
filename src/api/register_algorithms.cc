// Registration of the library's 10 built-in algorithms, one block per
// algorithm family. Each algorithm has exactly one factory, which builds
// its resettable StreamingSimplifier from a SimplifierSpec; the golden
// equivalence suite pins the products' output.
//
// Registration is explicit — RegisterBuiltinAlgorithms() is called from
// AlgorithmRegistry::Global() on first use — rather than via static
// initializer objects: these modules build as static libraries, where the
// linker is free to drop a translation unit nothing references, which
// silently unregisters algorithms. See DESIGN.md §7.

#include <bit>
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

// ---------------------------------------------------------------------
// State-blob framing shared by the streaming adapters' Serialize /
// Deserialize: 4-byte family magic, version byte, payload, trailing
// FNV-1a64 over everything from the magic (see StreamingSimplifier).
// ---------------------------------------------------------------------

constexpr std::uint8_t kStateVersion = 1;
constexpr std::uint32_t kOperbStateMagic = 0x5342'504Fu;     // "OPBS"
constexpr std::uint32_t kOperbAStateMagic = 0x5341'504Fu;    // "OPAS"
constexpr std::uint32_t kBufferedStateMagic = 0x5346'5542u;  // "BUFS"

void AppendStateChecksum(std::size_t start, std::vector<std::uint8_t>* out) {
  const std::uint64_t sum = serial::Fnv1a64(std::span<const std::uint8_t>(
      out->data() + start, out->size() - start));
  serial::PutU64(sum, out);
}

Status CheckStateHeader(std::uint32_t magic, std::string_view name,
                        std::span<const std::uint8_t> in, std::size_t* pos) {
  std::uint32_t m = 0;
  std::uint8_t version = 0;
  if (!serial::GetU32(in, pos, &m) || !serial::GetU8(in, pos, &version)) {
    return Status::Corruption("truncated simplifier state header");
  }
  if (m != magic) {
    return Status::Corruption("simplifier state magic mismatch for " +
                              std::string(name));
  }
  if (version != kStateVersion) {
    return Status::InvalidArgument("unsupported simplifier state version " +
                                   std::to_string(version));
  }
  return Status::OK();
}

/// The serialized zeta is a configuration cross-check, not restored
/// state: a blob written under one error bound must never resume a state
/// constructed under another.
Status CheckStateZeta(double zeta, std::span<const std::uint8_t> in,
                      std::size_t* pos) {
  double stored = 0.0;
  if (!serial::GetF64(in, pos, &stored)) {
    return Status::Corruption("truncated simplifier state header");
  }
  if (std::bit_cast<std::uint64_t>(stored) !=
      std::bit_cast<std::uint64_t>(zeta)) {
    return Status::InvalidArgument(
        "simplifier state zeta " + std::to_string(stored) +
        " does not match the configured zeta " + std::to_string(zeta));
  }
  return Status::OK();
}

Status VerifyStateChecksum(std::span<const std::uint8_t> in,
                           std::size_t start, std::size_t* pos) {
  const std::size_t payload_end = *pos;
  std::uint64_t expect = 0;
  if (!serial::GetU64(in, pos, &expect)) {
    return Status::Corruption("truncated simplifier state checksum");
  }
  const std::uint64_t got =
      serial::Fnv1a64(in.subspan(start, payload_end - start));
  if (got != expect) {
    return Status::Corruption("simplifier state checksum mismatch");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Adapters (resettable per-object states) over the concrete algorithms.
// ---------------------------------------------------------------------

/// One-pass wrapper over core::OperbStream.
class OperbStreaming final : public baselines::StreamingSimplifier {
 public:
  OperbStreaming(std::string_view name, const core::OperbOptions& options)
      : name_(name), stream_(options) {}

  std::string_view name() const override { return name_; }
  bool one_pass() const override { return true; }
  void SetSink(traj::SegmentSink sink) override {
    stream_.SetSink(std::move(sink));
  }
  void Push(const geo::Point& p) override { stream_.Push(p); }
  void Push(std::span<const geo::Point> points) override {
    stream_.Push(points);
  }
  void Finish() override { stream_.Finish(); }
  void Reset() override { stream_.Reset(); }

  void Serialize(std::vector<std::uint8_t>* out) const override {
    const std::size_t start = out->size();
    serial::PutU32(kOperbStateMagic, out);
    serial::PutU8(kStateVersion, out);
    serial::PutF64(stream_.options().zeta, out);
    stream_.Serialize(out);
    AppendStateChecksum(start, out);
  }

  Status Deserialize(std::span<const std::uint8_t> in,
                     std::size_t* pos) override {
    const std::size_t start = *pos;
    OPERB_RETURN_IF_ERROR(CheckStateHeader(kOperbStateMagic, name_, in, pos));
    OPERB_RETURN_IF_ERROR(CheckStateZeta(stream_.options().zeta, in, pos));
    OPERB_RETURN_IF_ERROR(stream_.Deserialize(in, pos));
    return VerifyStateChecksum(in, start, pos);
  }

 private:
  std::string_view name_;
  core::OperbStream stream_;
};

/// One-pass wrapper over core::OperbAStream.
class OperbAStreaming final : public baselines::StreamingSimplifier {
 public:
  OperbAStreaming(std::string_view name, const core::OperbAOptions& options)
      : name_(name), stream_(options) {}

  std::string_view name() const override { return name_; }
  bool one_pass() const override { return true; }
  void SetSink(traj::SegmentSink sink) override {
    stream_.SetSink(std::move(sink));
  }
  void Push(const geo::Point& p) override { stream_.Push(p); }
  void Push(std::span<const geo::Point> points) override {
    stream_.Push(points);
  }
  void Finish() override { stream_.Finish(); }
  void Reset() override { stream_.Reset(); }

  void Serialize(std::vector<std::uint8_t>* out) const override {
    const std::size_t start = out->size();
    serial::PutU32(kOperbAStateMagic, out);
    serial::PutU8(kStateVersion, out);
    serial::PutF64(stream_.options().base.zeta, out);
    stream_.Serialize(out);
    AppendStateChecksum(start, out);
  }

  Status Deserialize(std::span<const std::uint8_t> in,
                     std::size_t* pos) override {
    const std::size_t start = *pos;
    OPERB_RETURN_IF_ERROR(CheckStateHeader(kOperbAStateMagic, name_, in, pos));
    OPERB_RETURN_IF_ERROR(
        CheckStateZeta(stream_.options().base.zeta, in, pos));
    OPERB_RETURN_IF_ERROR(stream_.Deserialize(in, pos));
    return VerifyStateChecksum(in, start, pos);
  }

 private:
  std::string_view name_;
  core::OperbAStream stream_;
};

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
    const std::size_t start = out->size();
    serial::PutU32(kBufferedStateMagic, out);
    serial::PutU8(kStateVersion, out);
    serial::PutF64(zeta_, out);
    serial::PutU64(buffer_.size(), out);
    for (const geo::Point& p : buffer_.points()) {
      serial::PutF64(p.x, out);
      serial::PutF64(p.y, out);
      serial::PutF64(p.t, out);
    }
    AppendStateChecksum(start, out);
  }

  Status Deserialize(std::span<const std::uint8_t> in,
                     std::size_t* pos) override {
    const std::size_t start = *pos;
    OPERB_RETURN_IF_ERROR(
        CheckStateHeader(kBufferedStateMagic, name_, in, pos));
    OPERB_RETURN_IF_ERROR(CheckStateZeta(zeta_, in, pos));
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
    return VerifyStateChecksum(in, start, pos);
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
  o.max_patch_extension_zeta =
      spec.Option("max_patch_extension", o.max_patch_extension_zeta);
  return o;
}

void RegisterOperbVariant(AlgorithmRegistry& registry, const char* name,
                          const char* summary, bool optimized) {
  AlgorithmRegistry::Entry entry;
  entry.name = name;
  entry.summary = summary;
  entry.option_keys = {"step_length", "activation_slack"};
  entry.streaming = [name, optimized](const SimplifierSpec& spec) {
    return std::make_unique<OperbStreaming>(name,
                                            OperbOptionsFrom(spec, optimized));
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
  entry.option_keys = {"step_length", "activation_slack", "gamma_m",
                       "max_patch_extension"};
  entry.streaming = [name, optimized](const SimplifierSpec& spec) {
    return std::make_unique<OperbAStreaming>(
        name, OperbAOptionsFrom(spec, optimized));
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

#ifndef OPERB_BASELINES_STREAMING_H_
#define OPERB_BASELINES_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "geo/point.h"
#include "traj/piecewise.h"

namespace operb::baselines {

/// How the OPERB-family simplifiers treat the heuristic optimizations'
/// error bound (see core::OperbOptions::strict_bound_guard):
///  - kGuarded (library default): the O(1) drift guard enforces a hard
///    zeta guarantee, at a small compression cost;
///  - kPaperFaithful: the paper's heuristics verbatim — what the paper's
///    figures measured. No worst-case guarantee: bench_fig18_average_error
///    measures a worst per-point distance of 1.48·zeta on the Taxi
///    profile (14.80 m at zeta = 10) and up to 1.39·zeta on GeoLife.
/// Non-OPERB algorithms are unaffected.
enum class OperbFidelity { kGuarded, kPaperFaithful };

/// The one simplifier interface of this library, for the paper's
/// algorithms and every baseline alike: points go in one at a time,
/// segments come out through a sink. OPERB and OPERB-A look at each point
/// once, so this state *is* the algorithm; a whole-trajectory run is the
/// same state fed one span (SimplifyAll below). It is also the per-object
/// state the sharded StreamEngine keeps resident for every live
/// trajectory. Instances are built by api::AlgorithmRegistry::
/// MakeStreaming from a SimplifierSpec.
///
/// Contract (all implementations):
///  - SetSink() installs the emission callback; call it before the first
///    Push() of a trajectory. The sink survives Reset(), so a pooled state
///    is wired up exactly once.
///  - Push()/Finish() emit the same segment sequence however the points
///    are split into spans — bit-identical to the fixtures under
///    tests/golden/. Fewer than two points emit nothing.
///  - Reset() returns the state to "fresh trajectory" condition while
///    keeping its buffers' capacity, so pooled reuse performs no heap
///    allocation (asserted by allocation_test for the one-pass family).
///
/// The sink is the only output: with none installed, segments are
/// dropped. The OPERB-family implementations (core::OperbStream and
/// core::OperbAStream, the registry products themselves) are truly
/// one-pass (O(1) state, allocation-free per point). The batch baselines
/// (DP, DP-SED, OPW, OPW-SED, BQS, FBQS) buffer the trajectory and run
/// their batch algorithm at Finish() — same output, but O(n) state; they
/// exist so the engine can serve any of the 10 algorithms uniformly.
class StreamingSimplifier {
 public:
  virtual ~StreamingSimplifier() = default;

  /// Paper-style algorithm name ("OPERB", "DP", ...).
  virtual std::string_view name() const = 0;

  /// True for the algorithms with O(1) per-object state (OPERB family);
  /// false for the buffering batch adapters.
  virtual bool one_pass() const = 0;

  /// Installs the emission callback (before the first Push of a
  /// trajectory).
  virtual void SetSink(traj::SegmentSink sink) = 0;

  /// Feeds the next point. Timestamps must be strictly increasing per
  /// trajectory (not re-validated here).
  virtual void Push(const geo::Point& p) = 0;

  /// Feeds a batch (same semantics as point-wise Push).
  virtual void Push(std::span<const geo::Point> points) = 0;

  /// End-of-trajectory: flushes pending state into the sink. Push() must
  /// not be called again until Reset().
  virtual void Finish() = 0;

  /// Ready the state for the next trajectory, keeping capacity.
  virtual void Reset() = 0;

  /// Appends a versioned, checksummed, byte-stable encoding of the
  /// complete dynamic state: a 4-byte family magic, a version byte, the
  /// configured zeta, the field payload, and a trailing FNV-1a64 over all
  /// of it — the same discipline as the store's block footer (framing
  /// helpers below). Options and the sink are configuration, not state:
  /// Deserialize() must run on an instance created from the identical
  /// SimplifierSpec, which then resumes mid-trajectory bit-identically
  /// (the engine checkpoint contract; see DESIGN.md §9).
  virtual void Serialize(std::vector<std::uint8_t>* out) const = 0;

  /// Inverse of Serialize(), advancing `*pos` past the consumed blob.
  /// Corruption for a wrong magic, failed checksum or truncation;
  /// InvalidArgument for a version or configuration (zeta) mismatch.
  virtual Status Deserialize(std::span<const std::uint8_t> in,
                             std::size_t* pos) = 0;
};

/// State-blob framing shared by every StreamingSimplifier's Serialize /
/// Deserialize (the layout documented there). A writer brackets its
/// payload with BeginState/EndState; a reader runs CheckStateHeader,
/// decodes the payload, then VerifyStateChecksum. The framed zeta is a
/// configuration cross-check, not restored state: a blob written under
/// one error bound must never resume a state built under another.
/// Version 2 dropped the OPERB family's buffered-emission fields; older
/// blobs are refused as InvalidArgument.
inline constexpr std::uint8_t kStateVersion = 2;

/// Appends the header (magic, kStateVersion, zeta) and returns the blob's
/// start offset for EndState.
std::size_t BeginState(std::uint32_t magic, double zeta,
                       std::vector<std::uint8_t>* out);

/// Appends the trailing FNV-1a64 over everything from `start`.
void EndState(std::size_t start, std::vector<std::uint8_t>* out);

/// Reads the header at `*pos`. Corruption for truncation or a magic other
/// than `magic` (named after `name`); InvalidArgument for another version
/// or a zeta that is not bit-equal to `zeta`.
Status CheckStateHeader(std::uint32_t magic, std::string_view name,
                        double zeta, std::span<const std::uint8_t> in,
                        std::size_t* pos);

/// Reads the trailing checksum at `*pos` and checks it against the bytes
/// from `start`. Corruption on truncation or mismatch.
Status VerifyStateChecksum(std::span<const std::uint8_t> in,
                           std::size_t start, std::size_t* pos);

/// Whole-trajectory run: installs a collecting sink, feeds `points` as one
/// span, finishes, and Reset()s `simplifier` for the next trajectory.
/// `simplifier` must be fresh (built or Reset(), nothing pushed since).
/// The collecting sink is uninstalled again, so re-install a sink before
/// streaming through `simplifier` by hand afterwards.
inline traj::PiecewiseRepresentation SimplifyAll(
    StreamingSimplifier& simplifier, std::span<const geo::Point> points) {
  traj::PiecewiseRepresentation out;
  simplifier.SetSink(
      [&out](const traj::RepresentedSegment& s) { out.Append(s); });
  simplifier.Push(points);
  simplifier.Finish();
  simplifier.Reset();
  simplifier.SetSink(nullptr);
  return out;
}

}  // namespace operb::baselines

#endif  // OPERB_BASELINES_STREAMING_H_

#ifndef OPERB_CORE_OPERB_A_H_
#define OPERB_CORE_OPERB_A_H_

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "baselines/streaming.h"
#include "core/operb.h"
#include "core/options.h"
#include "geo/point.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb::core {

/// Counters describing one OPERB-A run.
struct OperbAStats {
  OperbStats base;
  /// The paper's N_a: anomalous line segments produced before
  /// interpolation (segments representing only their own two endpoints).
  std::size_t anomalous_segments = 0;
  /// The paper's N_p: patch points successfully interpolated.
  std::size_t patches_applied = 0;

  /// The paper's patching ratio N_p / N_a (0 when no anomalies occurred).
  double PatchingRatio() const {
    return anomalous_segments == 0
               ? 0.0
               : static_cast<double>(patches_applied) /
                     static_cast<double>(anomalous_segments);
  }
};

/// The lazy output policy of Section 5.2, as a segment-stream filter.
///
/// Determined segments enter via Accept(); at most two are buffered (the
/// candidate predecessor X and an anomalous segment Y awaiting its
/// successor). When the successor S arrives, a patch point G is attempted
/// for Y: on success X is extended to G and emitted, and G->S.end becomes
/// the new pending candidate; otherwise X and Y are emitted unchanged.
class LazyPatcher {
 public:
  explicit LazyPatcher(const OperbAOptions& options);

  /// Installs the output (same contract as OperbStream::SetSink): must
  /// be called before the first Accept(). Without a sink, released
  /// segments are dropped.
  void SetSink(traj::SegmentSink sink);

  /// Feeds the next determined segment; released segments go to the sink.
  void Accept(traj::RepresentedSegment segment);

  /// Flushes the buffer (trailing anomalous segments are emitted as-is).
  void Finish();

  /// Clears the lazy buffer and the counters so a pooled instance can
  /// filter another segment stream. Keeps the options and the sink;
  /// performs no heap allocation.
  void Reset();

  std::size_t anomalous_segments() const { return anomalous_segments_; }
  std::size_t patches_applied() const { return patches_applied_; }

  /// Appends the dynamic state (lazy buffer, counters) as byte-stable
  /// fields; options and sink are configuration and not written (same
  /// contract as OperbStream's fields).
  void Serialize(std::vector<std::uint8_t>* out) const;

  /// Overwrites the dynamic state from `in`, advancing `*pos`.
  Status Deserialize(std::span<const std::uint8_t> in, std::size_t* pos);

 private:
  static bool IsAnomalous(const traj::RepresentedSegment& s) {
    return s.PointCount() == 2;
  }
  void Emit(const traj::RepresentedSegment& s) {
    if (sink_) sink_(s);
  }

  OperbAOptions options_;
  traj::SegmentSink sink_;
  std::optional<traj::RepresentedSegment> x_;  ///< pending predecessor
  std::optional<traj::RepresentedSegment> y_;  ///< pending anomalous segment
  std::size_t anomalous_segments_ = 0;
  std::size_t patches_applied_ = 0;
};

/// One-pass streaming OPERB-A (Section 5): OPERB's segment stream piped
/// through the lazy patching policy — the registry product for "OPERB-A"
/// and "Raw-OPERB-A". Same contract as OperbStream; output segments are
/// delayed by at most two segments (the lazy buffer), and the working
/// state remains O(1).
class OperbAStream final : public baselines::StreamingSimplifier {
 public:
  /// Precondition: options.Validate().ok(). `name` as for OperbStream.
  explicit OperbAStream(const OperbAOptions& options,
                        std::string_view name = "OPERB-A");

  // The inner OPERB stream's sink captures `this`; moving would dangle it.
  OperbAStream(const OperbAStream&) = delete;
  OperbAStream& operator=(const OperbAStream&) = delete;

  std::string_view name() const override { return name_; }
  bool one_pass() const override { return true; }

  /// Must be called before the first Push() of a trajectory.
  void SetSink(traj::SegmentSink sink) override;

  void Push(const geo::Point& p) override;
  void Push(std::span<const geo::Point> points) override;
  void Finish() override;

  /// Resets the inner OPERB stream and the patcher for the next
  /// trajectory (same contract as OperbStream::Reset: options and sink
  /// survive; no heap allocation).
  void Reset() override;

  /// The "OPAS" state blob: the shared framing around the inner OPERB
  /// stream's fields followed by the patcher state.
  void Serialize(std::vector<std::uint8_t>* out) const override;
  Status Deserialize(std::span<const std::uint8_t> in,
                     std::size_t* pos) override;

  OperbAStats stats() const;
  const OperbAOptions& options() const { return options_; }

 private:
  std::string_view name_;
  OperbAOptions options_;
  OperbStream inner_;
  LazyPatcher patcher_;
};

/// Batch convenience wrapper. Precondition: options.Validate().ok().
traj::PiecewiseRepresentation SimplifyOperbA(
    const traj::Trajectory& trajectory, const OperbAOptions& options,
    OperbAStats* stats = nullptr);

}  // namespace operb::core

#endif  // OPERB_CORE_OPERB_A_H_

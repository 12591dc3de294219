#ifndef OPERB_CORE_OPERB_H_
#define OPERB_CORE_OPERB_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "baselines/streaming.h"
#include "common/status.h"
#include "core/fitting.h"
#include "core/options.h"
#include "geo/point.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb::core {

/// Counters describing one OPERB run (all O(1) state).
struct OperbStats {
  std::size_t points_processed = 0;
  std::size_t segments_emitted = 0;
  /// Points consumed by optimization (5) after their segment was
  /// determined.
  std::size_t points_absorbed = 0;
  /// Segment breaks forced by the 4x10^5 per-segment cap.
  std::size_t cap_breaks = 0;
};

/// One-pass streaming OPERB (Section 4.3 with the Section 4.4
/// optimizations) — the registry product for "OPERB" and "Raw-OPERB".
///
///   OperbStream stream(OperbOptions::Optimized(40.0));
///   stream.SetSink([](const traj::RepresentedSegment& seg) { Send(seg); });
///   for (const geo::Point& p : samples) stream.Push(p);   // or Push(span)
///   stream.Finish();
///
/// The sink is the only output: every determined segment is handed to it
/// the moment it is determined, and with no sink installed segments are
/// dropped (only stats() sees them). Each pushed point is examined once
/// (one distance check against the fitted line L plus one against the
/// current candidate segment R_a), giving O(n) total time and O(1)
/// working state — the properties Theorem 5 claims. Steady-state Push()
/// performs no heap allocation.
///
/// Deviations from the paper's pseudocode (documented in DESIGN.md):
///  - Figure 7 line 3 also updates P_e (required for Example 5's output);
///  - when the input ends on trailing inactive points, a closing segment
///    to the final sample is appended, so the representation always ends
///    at the last sample.
class OperbStream final : public baselines::StreamingSimplifier {
 public:
  /// Precondition: options.Validate().ok(). `name` is the registered
  /// algorithm name name() reports; the view must outlive the stream
  /// (the registry passes a string literal).
  explicit OperbStream(const OperbOptions& options,
                       std::string_view name = "OPERB");

  std::string_view name() const override { return name_; }
  bool one_pass() const override { return true; }

  /// Must be called before the first Push() of a trajectory.
  void SetSink(traj::SegmentSink sink) override;

  /// Feeds the next trajectory point. Timestamps must be strictly
  /// increasing (not re-validated here; see traj::StreamCleaner).
  void Push(const geo::Point& p) override;

  /// Feeds a batch of points. Bit-identical to point-wise Push over the
  /// same span, but runs the three "point fits, keep going" run types
  /// (absorb, seek, inactive-extend) through the SoA-staged geo::simd
  /// batch kernels with speculative multi-point advance, falling back to
  /// the scalar per-point path at every mode change (DESIGN.md §12).
  void Push(std::span<const geo::Point> points) override;

  /// Declares end-of-input and flushes the pending state. Push() must not
  /// be called afterwards.
  void Finish() override;

  /// Returns the stream to its freshly-constructed state so a pooled
  /// instance can simplify another trajectory: the options and the
  /// installed sink survive, everything else is cleared. Performs no heap
  /// allocation (the engine's state pool relies on this; see
  /// allocation_test).
  void Reset() override;

  /// The "OPBS" state blob: the shared framing around the fields of
  /// SerializeFields().
  void Serialize(std::vector<std::uint8_t>* out) const override;
  Status Deserialize(std::span<const std::uint8_t> in,
                     std::size_t* pos) override;

  const OperbStats& stats() const { return stats_; }
  const OperbOptions& options() const { return options_; }

 private:
  friend class OperbAStream;  // frames these fields inside its own blob

  /// Appends the complete dynamic state (mode, counters, current-segment
  /// geometry, the fitting function, the pending segment) as byte-stable
  /// fields — everything Reset() clears, nothing it keeps: options and
  /// the sink are configuration, re-established at construction.
  /// Restoring into a stream built with identical options resumes
  /// mid-trajectory bit-identically.
  void SerializeFields(std::vector<std::uint8_t>* out) const;

  /// Overwrites the dynamic state from `in`, advancing `*pos`.
  /// Corruption on truncation or out-of-range enum/flag bytes.
  Status DeserializeFields(std::span<const std::uint8_t> in,
                           std::size_t* pos);

  enum class Mode {
    kIdle,       ///< nothing pushed yet
    kSeek,       ///< collecting points before the first active point
    kExtend,     ///< fitted line has a direction; combining active points
    kAbsorb,     ///< optimization (5): feeding a determined segment
    kFinished,
  };

  void ProcessPoint(geo::Vec2 pos, std::size_t idx);

  // Batched fast paths of Push(span). Each stages a window of upcoming
  // points into thread-local SoA buffers, runs the geo::simd batch
  // kernels, and consumes the maximal prefix the scalar state machine
  // would have consumed on its cheap no-mode-change path — bit-identical
  // bookkeeping, zero allocations. They return the number of points
  // consumed; the first unconsumed point (if any) is re-processed by the
  // scalar Push, which recomputes the same IEEE values and takes the
  // mode-changing branch.
  //
  // AbsorbRun / SeekRun run to the first non-fitting point or span end.
  // ExtendRun processes one speculation window per call; `*blocked` is
  // set when it stopped at a point that needs the scalar path (active,
  // bound violation, or segment cap) rather than at the window edge.
  std::size_t AbsorbRun(std::span<const geo::Point> points);
  std::size_t SeekRun(std::span<const geo::Point> points);
  std::size_t ExtendRun(std::span<const geo::Point> points, bool* blocked);

  void SetActive(geo::Vec2 pos, std::size_t idx, double radius);
  /// Determines the current segment (anchor -> active point) covering
  /// everything consumed so far and transitions to kAbsorb or restarts.
  void BreakSegment();
  void EmitPending();
  /// Hands one determined segment to the sink (if installed) and tracks
  /// it as the latest emission for Finish().
  void Emit(const traj::RepresentedSegment& s);
  /// Starts a fresh segment whose geometric start is `anchor` and whose
  /// covered range chains at `chain_index`.
  void StartSegment(geo::Vec2 anchor, std::size_t chain_index, bool detached);

  std::string_view name_;
  OperbOptions options_;
  bool guard_engaged_ = false;
  Mode mode_ = Mode::kIdle;
  traj::SegmentSink sink_;
  OperbStats stats_;
  /// Latest emission (valid when any_emitted_): Finish() chains its
  /// closing segment off it.
  traj::RepresentedSegment last_emitted_;
  bool any_emitted_ = false;

  // Current segment state.
  std::optional<FittingFunction> fitting_;
  geo::Vec2 anchor_pos_;
  std::size_t segment_first_index_ = 0;
  bool anchor_detached_ = false;
  std::size_t points_in_segment_ = 0;

  // Last active point (valid in kExtend). `ra_unit_` caches the unit
  // direction of the candidate chord R_a = anchor -> active so the
  // per-point distance check is a single cross product.
  geo::Vec2 active_pos_;
  std::size_t active_index_ = 0;
  geo::Vec2 ra_unit_;

  // Determined segment being extended by absorption (valid in kAbsorb);
  // `pending_unit_` caches its line direction.
  traj::RepresentedSegment pending_;
  std::size_t pending_end_index_ = 0;
  geo::Vec2 pending_unit_;

  // Coverage/bookkeeping.
  std::size_t covered_index_ = 0;  ///< last consumed original index
  std::size_t next_index_ = 0;
  geo::Vec2 last_pos_;
  std::size_t last_index_ = 0;

  // Speculation hints for the batched extend path (performance state
  // only — never serialized, has no effect on output). The window grows
  // while inactive runs fill it and shrinks when they end early; after
  // consecutive zero-length runs (activation-dominated traffic) the next
  // 2^streak extend points skip staging entirely, so profiles where
  // every point rotates the line pay (almost) no kernel waste.
  std::uint32_t extend_window_ = kExtendWindowMin;
  std::uint32_t extend_zero_streak_ = 0;
  std::uint32_t extend_skip_ = 0;

  static constexpr std::uint32_t kExtendWindowMin = 8;

 public:
  /// Capacity of the thread-local SoA staging buffers (the maximum batch
  /// the geo::simd kernels see per call); exposed for tests and benches.
  static constexpr std::size_t kStageCapacity = 64;
};

/// Batch convenience wrapper: runs OperbStream over `trajectory`.
/// Precondition: options.Validate().ok().
traj::PiecewiseRepresentation SimplifyOperb(const traj::Trajectory& trajectory,
                                            const OperbOptions& options,
                                            OperbStats* stats = nullptr);

}  // namespace operb::core

#endif  // OPERB_CORE_OPERB_H_

#ifndef OPERB_CORE_OPERB_H_
#define OPERB_CORE_OPERB_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

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
/// optimizations).
///
/// Usage (zero-allocation sink path — preferred):
///
///   OperbStream stream(OperbOptions::Optimized(40.0));
///   stream.SetSink([](const traj::RepresentedSegment& seg) { Send(seg); });
///   for (const geo::Point& p : samples) stream.Push(p);   // or Push(span)
///   stream.Finish();
///
/// Usage (buffered path):
///
///   OperbStream stream(OperbOptions::Optimized(40.0));
///   std::vector<traj::RepresentedSegment> batch;
///   for (const geo::Point& p : samples) {
///     stream.Push(p);
///     stream.TakeEmitted(&batch);   // reuses `batch`'s capacity
///     for (const auto& seg : batch) Send(seg);
///   }
///   stream.Finish();
///   stream.TakeEmitted(&batch);
///   for (const auto& seg : batch) Send(seg);
///
/// Each pushed point is examined once (one distance check against the
/// fitted line L plus one against the current candidate segment R_a),
/// giving O(n) total time and O(1) working state — the properties
/// Theorem 5 claims. Segments become available as soon as they are
/// determined, so a sensor can transmit them immediately.
///
/// Deviations from the paper's pseudocode (documented in DESIGN.md):
///  - Figure 7 line 3 also updates P_e (required for Example 5's output);
///  - when the input ends on trailing inactive points, a closing segment
///    to the final sample is appended unless
///    `options.emit_closing_segment` is false.
class OperbStream {
 public:
  /// Precondition: options.Validate().ok().
  explicit OperbStream(const OperbOptions& options);

  /// Installs the zero-allocation emission path: every determined segment
  /// is handed to `sink` immediately instead of being buffered in
  /// emitted(). With a sink installed, steady-state Push() performs no
  /// heap allocation. Must be called before the first Push(); passing an
  /// empty function restores the buffered path.
  void SetSink(traj::SegmentSink sink);

  /// Feeds the next trajectory point. Timestamps must be strictly
  /// increasing (not re-validated here; see traj::StreamCleaner).
  void Push(const geo::Point& p);

  /// Feeds a batch of points. Bit-identical to point-wise Push over the
  /// same span, but runs the three "point fits, keep going" run types
  /// (absorb, seek, inactive-extend) through the SoA-staged geo::simd
  /// batch kernels with speculative multi-point advance, falling back to
  /// the scalar per-point path at every mode change (DESIGN.md §12).
  void Push(std::span<const geo::Point> points);

  /// Declares end-of-input and flushes the pending state. Push() must not
  /// be called afterwards.
  void Finish();

  /// Returns the stream to its freshly-constructed state so a pooled
  /// instance can simplify another trajectory without reallocation: the
  /// options, the installed sink and the emitted-buffer capacity survive,
  /// everything else is cleared. Performs no heap allocation (the engine's
  /// state pool relies on this; see allocation_test).
  void Reset();

  /// Returns the segments emitted since the previous call and clears the
  /// internal buffer. Prefer the out-parameter overload in loops (it
  /// recycles the caller's capacity) or SetSink() (no buffer at all).
  std::vector<traj::RepresentedSegment> TakeEmitted();

  /// Swap-based TakeEmitted: `*out` receives the emitted segments and the
  /// internal buffer inherits `out`'s old capacity, so a caller polling in
  /// a loop stops paying an allocation per drained batch.
  void TakeEmitted(std::vector<traj::RepresentedSegment>* out);

  /// Emitted-but-not-yet-taken segments (no transfer; always empty while
  /// a sink is installed).
  const std::vector<traj::RepresentedSegment>& emitted() const {
    return emitted_;
  }

  const OperbStats& stats() const { return stats_; }
  const OperbOptions& options() const { return options_; }

  /// Appends the complete dynamic state (mode, counters, current-segment
  /// geometry, the fitting function, pending/undrained segments) as
  /// byte-stable fields — everything Reset() clears, nothing it keeps:
  /// options and the sink are configuration, re-established at
  /// construction. Serializing then Deserializing into a stream built
  /// with identical options resumes mid-trajectory bit-identically.
  void Serialize(std::vector<std::uint8_t>* out) const;

  /// Overwrites the dynamic state from `in`, advancing `*pos`.
  /// Corruption on truncation or out-of-range enum/flag bytes.
  Status Deserialize(std::span<const std::uint8_t> in, std::size_t* pos);

 private:
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
  /// Routes one determined segment to the sink (if installed) or the
  /// emitted_ buffer, and tracks it as the latest emission for Finish().
  void Emit(const traj::RepresentedSegment& s);
  /// Starts a fresh segment whose geometric start is `anchor` and whose
  /// covered range chains at `chain_index`.
  void StartSegment(geo::Vec2 anchor, std::size_t chain_index, bool detached);

  OperbOptions options_;
  bool guard_engaged_ = false;
  Mode mode_ = Mode::kIdle;
  traj::SegmentSink sink_;
  std::vector<traj::RepresentedSegment> emitted_;
  /// Size of the last drained batch — sizing hint for emitted_ when the
  /// caller's swap left it without capacity.
  std::size_t last_take_size_ = 0;
  OperbStats stats_;
  /// Latest emission (valid when any_emitted_): Finish() chains its
  /// closing segment off this instead of peeking at emitted_, which the
  /// sink path never fills.
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

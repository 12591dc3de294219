#ifndef OPERB_CORE_OPTIONS_H_
#define OPERB_CORE_OPTIONS_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "geo/angle.h"

namespace operb::core {

/// Options controlling OPERB (Section 4 of the paper).
///
/// `zeta` is the error bound in meters. The five `opt_*` flags correspond
/// one-to-one to the five optimization techniques of Section 4.4; all on
/// reproduces the paper's "OPERB", all off its "Raw-OPERB".
struct OperbOptions {
  /// Error bound zeta in meters. Must be > 0.
  double zeta = 40.0;

  /// (1) Choose the first active point at radius > zeta instead of zeta/4.
  bool opt_first_active = true;
  /// (2) Replace the per-point d <= zeta/2 test by d+max + d-max <= zeta.
  bool opt_adjusted_distance = true;
  /// (3) Rotate L using the side's historical max distance (dx), capped by
  ///     the full alignment angle toward the current point.
  bool opt_closer_line = true;
  /// (4) Compensate skipped zones: scale the rotation by delta-j when
  ///     consecutive active points are more than one zone apart.
  bool opt_missing_active = true;
  /// (5) Absorb subsequent points into an already determined segment while
  ///     they stay within zeta of its line.
  bool opt_absorb = true;

  /// --- Alternative fitting functions (paper Section 7 future work) ---
  ///
  /// The paper fixes the fitting function's step length at zeta/2 and the
  /// activation slack at zeta/4. These generalize both: the zone width is
  /// `zeta * step_length_factor` and a point is active when its radius
  /// gain over |L| exceeds `zeta * activation_slack_factor`. The paper's
  /// Theorem 2 is proven only for (0.5, 0.25); other values rely on the
  /// strict_bound_guard below to stay error-bounded (the guard is sound
  /// for any parameterization). Swept by bench_ablation_fitting.
  double step_length_factor = 0.5;
  double activation_slack_factor = 0.25;

  /// Error-bound guard for the heuristic optimizations (see DESIGN.md).
  ///
  /// Theorem 2 proves the zeta bound only for the *raw* checks
  /// (d <= zeta/2, unit-step rotations); optimizations (2)-(4) relax them
  /// and the paper asserts without proof that the bound survives. On
  /// adversarial inputs (e.g. large-step random walks) it does not —
  /// violations of up to ~20% of zeta occur. With this flag on (default)
  /// OPERB additionally tracks an O(1) drift budget: a conservative upper
  /// bound on the distance of every consumed point to the evolving line,
  /// charged `rotation * max_radius` per activation. An activation that
  /// could push any represented point beyond zeta breaks the segment
  /// instead, restoring a hard guarantee at a small compression cost.
  /// Off reproduces the paper's heuristics verbatim. Ignored when
  /// optimizations (2)-(4) are all off (the raw algorithm is proven).
  bool strict_bound_guard = true;

  /// Paper's per-segment cap k <= 4x10^5 (Theorem 2 / Lemma 4 constant);
  /// reaching it forces a segment break.
  std::size_t max_points_per_segment = 400000;

  /// All five optimizations disabled (the paper's Raw-OPERB).
  static OperbOptions Raw(double zeta_in) {
    OperbOptions o;
    o.zeta = zeta_in;
    o.opt_first_active = false;
    o.opt_adjusted_distance = false;
    o.opt_closer_line = false;
    o.opt_missing_active = false;
    o.opt_absorb = false;
    return o;
  }

  /// All five optimizations enabled (the paper's OPERB).
  static OperbOptions Optimized(double zeta_in) {
    OperbOptions o;
    o.zeta = zeta_in;
    return o;
  }

  /// Validates parameter ranges.
  Status Validate() const;

  std::string ToString() const;
};

/// Options for OPERB-A (Section 5): OPERB plus patch-point interpolation.
struct OperbAOptions {
  OperbOptions base;

  /// The included-angle restriction gamma_m in [0, pi] (condition (3) of
  /// the patching method): a patch is allowed only when the absolute turn
  /// from R_{i-1} to R_{i+1} is at most pi - gamma_m. Default pi/3 as in
  /// the paper.
  double gamma_m = geo::kPi / 3.0;

  static OperbAOptions Raw(double zeta_in) {
    OperbAOptions o;
    o.base = OperbOptions::Raw(zeta_in);
    return o;
  }

  static OperbAOptions Optimized(double zeta_in) {
    OperbAOptions o;
    o.base = OperbOptions::Optimized(zeta_in);
    return o;
  }

  Status Validate() const;
};

}  // namespace operb::core

#endif  // OPERB_CORE_OPTIONS_H_

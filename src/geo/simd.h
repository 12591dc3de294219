#ifndef OPERB_GEO_SIMD_H_
#define OPERB_GEO_SIMD_H_

#include <cstddef>
#include <string_view>

#include "geo/point.h"

namespace operb::geo::simd {

/// ---- Level surface (benchmark compatibility only) ------------------
///
/// The batch kernels below have a single implementation: plain scalar
/// loops. These names remain only because the repository benchmark
/// (perfbench) compiles against them for its `geo.simd_fit_speedup`
/// layer metric, which times a fit at Detect() against a fit pinned to
/// kScalar; both run the same code, so the metric reads about 1.0.
/// There is nothing to select: Detect() always returns kScalar and the
/// pins do nothing.
enum class Level : int {
  kScalar = 0,  ///< the one kernel path
};

/// Display name of `level` ("scalar").
constexpr std::string_view LevelName(Level /*level*/) { return "scalar"; }

/// The level the kernels run at: always kScalar.
constexpr Level Detect() { return Level::kScalar; }

/// No-op pin, kept for the benchmark's scalar-pinned fit pass.
inline void ForceLevel(Level /*level*/) {}

/// No-op, the counterpart of ForceLevel().
inline void ClearForcedLevel() {}

/// ---- Batch kernels ------------------------------------------------
///
/// Element-wise maps of the scalar hot-path kernels in geo/distance.h,
/// bit-identical to them per element: they call the same functions in
/// the same order (see DESIGN.md §12). Inputs are SoA coordinate arrays
/// staged by core/operb.cc; `anchor` and `unit_dir` are the per-call
/// line parameters the scalar kernels take. xs/ys/out may not alias.

/// out[i] = Distance({xs[i], ys[i]}, anchor) = |p_i - anchor|.
void Radii(const double* xs, const double* ys, std::size_t n, Vec2 anchor,
           double* out);

/// Length of the leading run with
///   fabs(unit_dir.Cross(p_i - anchor)) <= bound,
/// i.e. how many consecutive points the absorb test accepts before the
/// first failure. NaN offsets fail the test, exactly like the scalar
/// `d <= zeta` comparison.
std::size_t CountWithin(const double* xs, const double* ys, std::size_t n,
                        Vec2 anchor, Vec2 unit_dir, double bound);

/// Fused extend-mode staging: one pass over xs/ys producing every
/// intermediate the extend consume test reads. Per element:
///   r[i]   = |p_i - anchor|                               (Radii)
///   off[i] = SignedPointToLineOffsetDir(p_i, anchor, unit_dir)
///   ra[i]  = SignedPointToLineOffsetDir(p_i, anchor, ra_unit)
///   dot[i] = unit_dir.Dot(p_i - anchor)   (only when want_dot — `dot`
///                                          may be null otherwise)
void StageExtend(const double* xs, const double* ys, std::size_t n,
                 Vec2 anchor, Vec2 unit_dir, Vec2 ra_unit, bool want_dot,
                 double* r, double* off, double* ra, double* dot);

/// Frozen fitting-function state for CountExtendAccept: the scalar
/// parameters OPERB's extend-mode consume test reads, captured at the
/// start of a run. See core/operb.cc ExtendRun for how the caller
/// refreshes them whenever a consumed point mutates the state.
struct ExtendAcceptParams {
  double length = 0.0;       ///< |L| (the activity test's base)
  double slack = 0.0;        ///< activation slack (zeta/4)
  double d_plus_max = 0.0;   ///< historical left-side offset max
  double d_minus_max = 0.0;  ///< historical right-side offset max
  double zeta = 0.0;         ///< error bound (the R_a distance test)
  double drift_plus = 0.0;   ///< drift budgets (guard engaged only)
  double drift_minus = 0.0;
  double drift_back = 0.0;
  bool guard = false;    ///< drift-budget guard engaged
  bool sum_ok = false;   ///< d_plus_max + d_minus_max <= zeta, precomputed
};

/// Length of the leading run of *no-op consumes*: points the extend-mode
/// state machine would consume without changing any fitting state —
/// inactive (r - length <= slack), offsets inside both historical side
/// maxima (so the adjusted-distance sum equals the precomputed constant
/// and ObserveOffset would not move a maximum), within `zeta` of the
/// candidate chord, and (when the guard is engaged) inside the drift
/// budgets. Inputs are the per-point intermediates StageExtend
/// produced: radii `r`, offsets vs L `off`, offsets vs R_a `ra`,
/// projections `dot` (may be null when !guard). A point that fails any
/// test ends the run — the caller's scalar loop re-decides that point
/// with full semantics, so this kernel only needs to be conservative,
/// never creative. NaN fails every test, like every scalar comparison;
/// !sum_ok returns 0.
std::size_t CountExtendAccept(const double* r, const double* off,
                              const double* ra, const double* dot,
                              std::size_t n, const ExtendAcceptParams& params);

}  // namespace operb::geo::simd

#endif  // OPERB_GEO_SIMD_H_

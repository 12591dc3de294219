#include "geo/simd.h"

#include <cmath>

#include "geo/distance.h"

namespace operb::geo::simd {

// Each loop calls the exact geo/distance.h kernels the per-point path
// calls, so a staged value cannot drift from the one per-point Push
// computes. GCC/Clang may auto-vectorize these loops, but only with
// transformations that preserve per-element IEEE semantics at the
// default -fno-fast-math, so the result stays bit-identical.

void Radii(const double* xs, const double* ys, std::size_t n, Vec2 anchor,
           double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = Distance({xs[i], ys[i]}, anchor);
  }
}

std::size_t CountWithin(const double* xs, const double* ys, std::size_t n,
                        Vec2 anchor, Vec2 unit_dir, double bound) {
  for (std::size_t i = 0; i < n; ++i) {
    const double d =
        PointToLineDistanceDir({xs[i], ys[i]}, anchor, unit_dir);
    if (!(d <= bound)) return i;  // NaN fails, like the scalar absorb test
  }
  return n;
}

void StageExtend(const double* xs, const double* ys, std::size_t n,
                 Vec2 anchor, Vec2 unit_dir, Vec2 ra_unit, bool want_dot,
                 double* r, double* off, double* ra, double* dot) {
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 p{xs[i], ys[i]};
    r[i] = Distance(p, anchor);
    off[i] = SignedPointToLineOffsetDir(p, anchor, unit_dir);
    ra[i] = SignedPointToLineOffsetDir(p, anchor, ra_unit);
    if (want_dot) dot[i] = unit_dir.Dot(p - anchor);
  }
}

std::size_t CountExtendAccept(const double* r, const double* off,
                              const double* ra, const double* dot,
                              std::size_t n, const ExtendAcceptParams& p) {
  if (!p.sum_ok) return 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(r[i] - p.length <= p.slack)) return i;  // active (or NaN radius)
    const double o = off[i];
    const bool off_ok =
        o >= 0.0 ? o <= p.d_plus_max : -o <= p.d_minus_max;
    if (!off_ok) return i;  // would move a side maximum
    if (!(std::fabs(ra[i]) <= p.zeta)) return i;  // outside the chord band
    if (p.guard) {
      const double d = dot[i];
      const bool drift_ok =
          d >= 0.0 ? (o >= 0.0 ? o <= p.drift_plus : -o <= p.drift_minus)
                   : r[i] <= p.drift_back;
      if (!drift_ok) return i;  // would move a drift budget
    }
  }
  return n;
}

}  // namespace operb::geo::simd

#include "core/patch.h"

#include <cmath>

#include "geo/angle.h"
#include "geo/line.h"

namespace operb::core {

std::optional<geo::Vec2> ComputePatchPoint(
    const traj::RepresentedSegment& prev,
    const traj::RepresentedSegment& next, const OperbAOptions& options) {
  const geo::Vec2 dir_prev = prev.end - prev.start;
  const geo::Vec2 dir_next = next.end - next.start;
  const double len_prev = dir_prev.Norm();
  const double len_next = dir_next.Norm();
  if (len_prev == 0.0 || len_next == 0.0) return std::nullopt;

  // Condition (3): the turn from R_{i-1} to R_{i+1} must not approach a
  // U-turn; |normalized included angle| <= pi - gamma_m.
  const double turn =
      geo::AbsoluteTurnAngle(dir_prev.Angle(), dir_next.Angle());
  if (turn > geo::kPi - options.gamma_m) return std::nullopt;

  const auto isect = geo::IntersectLines(prev.start, dir_prev, next.start,
                                         dir_next);
  if (!isect.has_value()) return std::nullopt;

  // Condition (1), directional part: Ps->G must keep prev's direction
  // (G strictly forward of Ps) and G->P_{s+i} must keep next's direction
  // (G at or behind next's start).
  if (isect->s <= 0.0) return std::nullopt;
  if (isect->t > 0.0) return std::nullopt;

  // Condition (2): |Ps G| >= |Ps P_{s+i-1}| - zeta/2, i.e. the retraction
  // of prev's endpoint is at most zeta/2.
  const double zeta = options.base.zeta;
  if (isect->s * len_prev < len_prev - zeta / 2.0) return std::nullopt;
  return isect->point;
}

}  // namespace operb::core

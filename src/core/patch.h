#ifndef OPERB_CORE_PATCH_H_
#define OPERB_CORE_PATCH_H_

#include <optional>

#include "core/options.h"
#include "geo/point.h"
#include "traj/piecewise.h"

namespace operb::core {

/// Computes the patch point G w.r.t. an anomalous segment lying between
/// `prev` (the paper's R_{i-1}) and `next` (R_{i+1}), per Section 5.1:
///
///  (1) G lies on the line of `prev` (same direction from its start) and
///      on the line of `next` (ahead of G, same direction);
///  (2) |Ps G| >= |Ps P_{s+i-1}| - zeta/2 — G may retract at most zeta/2
///      behind prev's end, otherwise extends it forward;
///  (3) the included angle from prev to next has absolute normalized value
///      at most pi - gamma_m.
///
/// Returns nullopt when any condition fails (including parallel or
/// degenerate lines).
std::optional<geo::Vec2> ComputePatchPoint(
    const traj::RepresentedSegment& prev,
    const traj::RepresentedSegment& next, const OperbAOptions& options);

}  // namespace operb::core

#endif  // OPERB_CORE_PATCH_H_

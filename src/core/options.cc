#include "core/options.h"

#include <cstdio>

namespace operb::core {

Status OperbOptions::Validate() const {
  if (!(zeta > 0.0)) {
    return Status::InvalidArgument("zeta must be positive");
  }
  if (max_points_per_segment < 2) {
    return Status::InvalidArgument("max_points_per_segment must be >= 2");
  }
  if (!(step_length_factor > 0.0) || step_length_factor > 1.0) {
    return Status::InvalidArgument("step_length_factor must be in (0, 1]");
  }
  if (!(activation_slack_factor > 0.0) || activation_slack_factor > 1.0) {
    return Status::InvalidArgument(
        "activation_slack_factor must be in (0, 1]");
  }
  const bool paper_fitting =
      step_length_factor == 0.5 && activation_slack_factor == 0.25;
  if (!paper_fitting && !strict_bound_guard) {
    return Status::InvalidArgument(
        "non-default fitting parameters require strict_bound_guard (the "
        "paper's bound proof covers only step=zeta/2, slack=zeta/4)");
  }
  return Status::OK();
}

std::string OperbOptions::ToString() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "OperbOptions{zeta=%.2f, opts=%d%d%d%d%d, cap=%zu}", zeta,
                opt_first_active, opt_adjusted_distance, opt_closer_line,
                opt_missing_active, opt_absorb, max_points_per_segment);
  return buf;
}

Status OperbAOptions::Validate() const {
  OPERB_RETURN_IF_ERROR(base.Validate());
  if (gamma_m < 0.0 || gamma_m > geo::kPi) {
    return Status::InvalidArgument("gamma_m must lie in [0, pi]");
  }
  return Status::OK();
}

}  // namespace operb::core

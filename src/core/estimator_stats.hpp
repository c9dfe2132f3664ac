// Stochastic-trace estimator diagnostics.
//
// The KPM's accuracy knob is the instance count S*R (paper Eq. 16): the
// estimator's standard error falls as 1/sqrt(S R D).  These helpers expose
// the per-moment spread across instances so users can size R and S for a
// target accuracy instead of guessing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "linalg/operator.hpp"

namespace kpm::core {

/// Mean and standard error of each moment across instances.
struct MomentStatistics {
  std::vector<double> mean;            ///< = the usual mu_n
  std::vector<double> standard_error;  ///< sigma_n / sqrt(instances)
  std::size_t instances = 0;
};

/// Runs instances [0, `instances`) through the CPU reference engines' group
/// recursion (groups of params.block_r, metered like the engines) and
/// reports per-moment statistics across them.  Intended for small
/// exploratory runs (cost = instances full recursions).
[[nodiscard]] MomentStatistics estimate_moment_statistics(const linalg::MatrixOperator& h_tilde,
                                                          const MomentParams& params,
                                                          std::size_t instances);

}  // namespace kpm::core

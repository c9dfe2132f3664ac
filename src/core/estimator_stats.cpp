#include "core/estimator_stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "core/moments_cpu.hpp"

namespace kpm::core {

MomentStatistics estimate_moment_statistics(const linalg::MatrixOperator& h_tilde,
                                            const MomentParams& params, std::size_t instances) {
  params.validate();
  KPM_REQUIRE(instances >= 2, "estimate_moment_statistics: need at least two instances");
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;

  // Per-instance normalized moments mu_n^(k) = <r0|r_n> / D, from the
  // reference engines' own group recursion (and metered like it); the
  // driver folds them in instance order, so blocking changes nothing.
  std::vector<double> sum(n, 0.0), sum_sq(n, 0.0);
  const std::size_t block = params.block_r;
  run_groups(
      instances, block, n, 1, nullptr,
      [&] {
        return [&, ws = GroupWorkspace(d, block)](std::size_t first, std::size_t b,
                                                  std::span<double> rows) mutable {
          accumulate_group(h_tilde, params, first, b, ws, rows);
        };
      },
      [&](std::span<const double> row) {
        for (std::size_t k = 0; k < n; ++k) {
          const double v = row[k] / static_cast<double>(d);
          sum[k] += v;
          sum_sq[k] += v * v;
        }
      });

  MomentStatistics stats;
  stats.instances = instances;
  stats.mean.resize(n);
  stats.standard_error.resize(n);
  const auto m = static_cast<double>(instances);
  for (std::size_t k = 0; k < n; ++k) {
    stats.mean[k] = sum[k] / m;
    const double var = std::max(0.0, sum_sq[k] / m - stats.mean[k] * stats.mean[k]);
    // Unbiased sample variance, then standard error of the mean.
    stats.standard_error[k] = std::sqrt(var * m / (m - 1.0)) / std::sqrt(m);
  }
  return stats;
}

}  // namespace kpm::core

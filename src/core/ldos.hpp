// Local density of states (LDOS) via deterministic KPM moments.
//
// The LDOS at site i replaces the stochastic trace by a single unit start
// vector |i>:  mu_n^i = <i| T_n(H~) |i>.  No averaging, no stochastic
// error — just one Chebyshev recursion per site.  Useful for impurity /
// disorder studies (the anderson_disorder example) and as a deterministic
// validation path for the recursion machinery.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/reconstruct.hpp"
#include "linalg/operator.hpp"
#include "linalg/spectral_transform.hpp"

namespace kpm::core {

/// Computes the N deterministic moments mu_n^site = <site|T_n(H~)|site>.
/// A one-site call of `ldos_moments_sites`.
[[nodiscard]] std::vector<double> ldos_moments(const linalg::MatrixOperator& h_tilde,
                                               std::size_t site, std::size_t num_moments);

/// Computes the LDOS moments of every site in `sites` as ONE blocked group:
/// each recursion step streams the matrix once for all of them (SpMMV).
/// Returns the rows back to back; row j, mu[j*N, j*N + N), belongs to
/// sites[j] and is bitwise equal to ldos_moments(h_tilde, sites[j], N) at
/// any group size.  Sites may repeat; an empty span is an error.
[[nodiscard]] std::vector<double> ldos_moments_sites(const linalg::MatrixOperator& h_tilde,
                                                     std::span<const std::size_t> sites,
                                                     std::size_t num_moments);

/// Convenience: reconstructs the LDOS curve at `site`.
[[nodiscard]] DosCurve ldos_curve(const linalg::MatrixOperator& h_tilde,
                                  const linalg::SpectralTransform& transform, std::size_t site,
                                  std::size_t num_moments, const ReconstructOptions& options = {});

/// Deterministic full-trace moments: mu_n = (1/D) sum_i <i|T_n(H~)|i>,
/// exact (up to roundoff) but O(D) recursions — the "R = D basis vectors"
/// limit of the stochastic estimator.  Ground truth for estimator tests.
/// `block` > 1 advances that many basis vectors per matrix pass (blocked
/// SpMMV recursion; bit-identical to the per-vector sweep).
[[nodiscard]] std::vector<double> deterministic_trace_moments(const linalg::MatrixOperator& h_tilde,
                                                              std::size_t num_moments,
                                                              std::size_t block = 1);

}  // namespace kpm::core

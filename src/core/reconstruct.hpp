// DoS reconstruction from Chebyshev moments (paper Eq. 6).
//
//   rho(x) = 1 / (pi sqrt(1 - x^2)) * [ g_0 mu_0 + 2 sum_{n>=1} g_n mu_n T_n(x) ]
//
// on the Chebyshev interval; mapped back to physical energies with the
// spectral transform, rho(omega) = rho(x(omega)) / a-.
#pragma once

#include <span>
#include <vector>

#include "core/damping.hpp"
#include "linalg/spectral_transform.hpp"

namespace kpm::core {

/// A reconstructed density of states: energies and densities, plus the grid
/// kind used.
struct DosCurve {
  std::vector<double> energy;   ///< physical energies omega (ascending)
  std::vector<double> density;  ///< rho(omega), normalized to unit integral
};

/// Options of the reconstruction.
struct ReconstructOptions {
  DampingKernel kernel = DampingKernel::Jackson;
  double lorentz_lambda = 4.0;  ///< used when kernel == Lorentz
  std::size_t points = 512;     ///< evaluation points
};

/// Evaluates the damped series at one Chebyshev coordinate x in (-1, 1).
/// `damped` are the products g_n mu_n.
[[nodiscard]] double evaluate_dos_series(std::span<const double> damped, double x);

/// Points evaluate_dos_gamma runs through the recurrence together (five
/// four-point packs on AVX2 hosts, two runs of five two-point packs
/// elsewhere).  A partial last batch runs zero-padded, so a span whose size
/// is a multiple of it wastes no lanes.
inline constexpr std::size_t kDosGammaBatch = 20;

/// gamma(x_j) = g_0 mu_0 + 2 sum_{n>=1} g_n mu_n T_n(x_j) at every x_j:
/// the bracket of Eq. 6, without the 1 / (pi sqrt(1 - x^2)) weight.
/// Batched Clenshaw over kDosGammaBatch points at once, bitwise equal
/// point for point to the one-point scalar recurrence.
/// `gamma` must have x's size and may be x itself (evaluation in place).
void evaluate_dos_gamma(std::span<const double> damped, std::span<const double> x,
                        std::span<double> gamma);

/// Reconstructs rho(omega) on the Chebyshev-Gauss grid (the canonical KPM
/// evaluation grid: uniform resolution in arccos x, integrates exactly).
[[nodiscard]] DosCurve reconstruct_dos(std::span<const double> mu,
                                       const linalg::SpectralTransform& transform,
                                       const ReconstructOptions& options = {});

/// FFT-accelerated reconstruction on the same Chebyshev-Gauss grid:
/// O(M log M) via one zero-padded 2M-point complex FFT (the DCT-III
/// evaluation Weisse et al. recommend) instead of O(M N) Clenshaw sums.
/// Requires options.points to be a power of two >= mu.size(); the result
/// matches reconstruct_dos to roundoff.
[[nodiscard]] DosCurve reconstruct_dos_fft(std::span<const double> mu,
                                           const linalg::SpectralTransform& transform,
                                           const ReconstructOptions& options = {});

/// Reconstructs rho at caller-provided physical energies (each must map
/// inside (-1, 1)).
[[nodiscard]] DosCurve reconstruct_dos_at(std::span<const double> mu,
                                          const linalg::SpectralTransform& transform,
                                          std::span<const double> energies,
                                          const ReconstructOptions& options = {});

/// Integral of a DoS curve over its grid via the trapezoidal rule; ~1 for a
/// properly normalized curve sampled densely enough.
[[nodiscard]] double dos_integral(const DosCurve& curve);

/// Integral of omega * rho(omega) (the spectral mean); handy invariant:
/// equals a- * mu_1 + a+ for exact moments.
[[nodiscard]] double dos_mean_energy(const DosCurve& curve);

}  // namespace kpm::core

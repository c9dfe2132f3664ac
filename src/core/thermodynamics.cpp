#include "core/thermodynamics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "core/chebyshev.hpp"
#include "core/reconstruct.hpp"

namespace kpm::core {

double fermi_dirac(double energy, double mu, double temperature) {
  KPM_REQUIRE(temperature >= 0.0, "fermi_dirac: negative temperature");
  const double x = energy - mu;
  if (temperature == 0.0) {
    if (x < 0.0) return 1.0;
    if (x > 0.0) return 0.0;
    return 0.5;
  }
  // Overflow-safe logistic.
  const double z = x / temperature;
  if (z > 40.0) return 0.0;
  if (z < -40.0) return 1.0;
  return 1.0 / (1.0 + std::exp(z));
}

double spectral_average(std::span<const double> mu, const linalg::SpectralTransform& transform,
                        const std::function<double(double)>& f,
                        const QuadratureOptions& options) {
  KPM_REQUIRE(!mu.empty(), "spectral_average: no moments");
  KPM_REQUIRE(options.points >= mu.size(),
              "spectral_average: quadrature needs at least as many points as moments");

  const auto g = damping_coefficients(options.kernel, mu.size(), options.lorentz_lambda);
  std::vector<double> damped(mu.size());
  for (std::size_t k = 0; k < mu.size(); ++k) damped[k] = g[k] * mu[k];

  // Chebyshev-Gauss: integral rho(x) f(x) dx = (1/M) sum_j gamma(x_j) f(x_j)
  // where rho(x) = gamma(x) / (pi sqrt(1-x^2)); the weight cancels exactly.
  // gamma is evaluated a slice of the grid at a time into a stack buffer.
  const auto grid = chebyshev_gauss_grid(options.points);
  std::array<double, 12 * kDosGammaBatch> gamma{};
  double acc = 0.0;
  for (std::size_t j0 = 0; j0 < grid.size(); j0 += gamma.size()) {
    const auto x = std::span(grid).subspan(j0, std::min(gamma.size(), grid.size() - j0));
    evaluate_dos_gamma(damped, x, std::span(gamma).first(x.size()));
    for (std::size_t j = 0; j < x.size(); ++j) acc += gamma[j] * f(transform.to_physical(x[j]));
  }
  return acc / static_cast<double>(options.points);
}

double electron_filling(std::span<const double> mu_moments,
                        const linalg::SpectralTransform& transform, double chemical_potential,
                        double temperature, const QuadratureOptions& options) {
  return spectral_average(
      mu_moments, transform,
      [&](double e) { return fermi_dirac(e, chemical_potential, temperature); }, options);
}

double internal_energy(std::span<const double> mu_moments,
                       const linalg::SpectralTransform& transform, double chemical_potential,
                       double temperature, const QuadratureOptions& options) {
  return spectral_average(
      mu_moments, transform,
      [&](double e) { return e * fermi_dirac(e, chemical_potential, temperature); }, options);
}

double electronic_entropy(std::span<const double> mu_moments,
                          const linalg::SpectralTransform& transform, double chemical_potential,
                          double temperature, const QuadratureOptions& options) {
  return spectral_average(
      mu_moments, transform,
      [&](double e) {
        const double f = fermi_dirac(e, chemical_potential, temperature);
        double s = 0.0;
        if (f > 1e-300 && f < 1.0) s -= f * std::log(f);
        const double g = 1.0 - f;
        if (g > 1e-300 && g < 1.0) s -= g * std::log(g);
        return s;
      },
      options);
}

double find_chemical_potential(std::span<const double> mu_moments,
                               const linalg::SpectralTransform& transform, double target_filling,
                               double temperature, const QuadratureOptions& options) {
  KPM_REQUIRE(target_filling > 0.0 && target_filling < 1.0,
              "find_chemical_potential: target filling must be in (0, 1)");
  double lo = transform.to_physical(-1.0);
  double hi = transform.to_physical(1.0);
  double f_lo = electron_filling(mu_moments, transform, lo, temperature, options);
  double f_hi = electron_filling(mu_moments, transform, hi, temperature, options);
  KPM_REQUIRE(f_lo <= target_filling && target_filling <= f_hi,
              "find_chemical_potential: target not bracketed by the spectral window");
  for (int iter = 0; iter < 200 && hi - lo > 1e-12 * (std::abs(hi) + std::abs(lo) + 1.0);
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double f_mid = electron_filling(mu_moments, transform, mid, temperature, options);
    if (f_mid < target_filling)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace kpm::core

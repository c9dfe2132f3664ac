#include "core/reconstruct.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <numbers>

#include "common/double2.hpp"
#include "common/error.hpp"
#include "common/fft.hpp"
#include "core/chebyshev.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace kpm::core {
namespace {

// Counters for one reconstruction: `points` evaluations of an N-term
// Clenshaw recurrence (4 flops per term per point).
void meter_reconstruct(std::size_t points, std::size_t num_moments) {
  obs::add(obs::Counter::ReconstructPoints, static_cast<double>(points));
  obs::add(obs::Counter::Flops,
           4.0 * static_cast<double>(points) * static_cast<double>(num_moments));
}

std::vector<double> damp_moments(std::span<const double> mu, const ReconstructOptions& options) {
  const auto g = damping_coefficients(options.kernel, mu.size(), options.lorentz_lambda);
  std::vector<double> damped(mu.size());
  for (std::size_t k = 0; k < mu.size(); ++k) damped[k] = g[k] * mu[k];
  return damped;
}

// gamma(x) at kDosGammaBatch points by Clenshaw on the coefficients
// a_0 = g0 mu0, a_n = 2 g_n mu_n: b_k = 2 d_k + 2x b_{k+1} - b_{k+2}, then
// gamma = d_0 + x b_1 - b_2.  Grid points are independent recurrences, but
// each one is a serial mul -> add -> sub chain per term, so one point at a
// time runs at the chain's latency.  This runs the points side by side in
// P packs of two per Double2, with b1 and b2 of every pack held in
// registers.  At P = 5 the ten b1/b2 packs and the broadcast coefficient
// stay in registers and GCC reads four of the five loop-invariant 2x packs
// from the stack, off the dependency chain; P = 6 spills the recurrence
// itself and measured slower.  Each lane evaluates the scalar expressions
// in their scalar order, (2 d_k + (2x) b1) - b2 and (d_0 + x b1) - b2, so
// every point's gamma is bitwise the one-point recurrence's.
void series_gamma_packs(std::span<const double> damped, const double* x, double* gamma) {
  static_assert(kDosGammaBatch % 2 == 0, "points pack two per Double2");
  constexpr std::size_t P = kDosGammaBatch / 2;
  Double2 two_x[P], b1[P], b2[P];
  for_each_index<P>([&](std::size_t j) {
    two_x[j] = 2.0 * load_pack<Double2>(x + 2 * j);
    b1[j] = Double2{};
    b2[j] = Double2{};
  });
  for (std::size_t k = damped.size(); k-- > 1;) {
    const double two_d = 2.0 * damped[k];
    for_each_index<P>([&](std::size_t j) {
      const Double2 b0 = two_d + two_x[j] * b1[j] - b2[j];
      b2[j] = b1[j];
      b1[j] = b0;
    });
  }
  for_each_index<P>([&](std::size_t j) {
    const Double2 xj = load_pack<Double2>(x + 2 * j);
    store_pack(gamma + 2 * j, damped[0] + xj * b1[j] - b2[j]);
  });
}

// rho(x) = gamma(x) / (pi sqrt(1 - x^2)) on the Chebyshev interval.
double density_from_gamma(double gamma, double x) {
  return gamma / (std::numbers::pi * std::sqrt(1.0 - x * x));
}

}  // namespace

void evaluate_dos_gamma(std::span<const double> damped, std::span<const double> x,
                        std::span<double> gamma) {
  KPM_REQUIRE(!damped.empty(), "evaluate_dos_gamma: no moments");
  KPM_REQUIRE(gamma.size() == x.size(), "evaluate_dos_gamma: x/gamma size mismatch");
  std::size_t j = 0;
  for (; j + kDosGammaBatch <= x.size(); j += kDosGammaBatch)
    series_gamma_packs(damped, x.data() + j, gamma.data() + j);
  if (j == x.size()) return;
  // The last partial batch runs on a zero-padded copy; lanes are
  // independent, so the padding changes no valid point and is dropped.
  const std::size_t tail = x.size() - j;
  std::array<double, kDosGammaBatch> x_tail{}, gamma_tail{};
  std::copy_n(x.data() + j, tail, x_tail.data());
  series_gamma_packs(damped, x_tail.data(), gamma_tail.data());
  std::copy_n(gamma_tail.data(), tail, gamma.data() + j);
}

double evaluate_dos_series(std::span<const double> damped, double x) {
  KPM_REQUIRE(x > -1.0 && x < 1.0, "evaluate_dos_series: x must lie strictly inside (-1, 1)");
  double gamma = 0.0;
  evaluate_dos_gamma(damped, std::span(&x, 1), std::span(&gamma, 1));
  return density_from_gamma(gamma, x);
}

DosCurve reconstruct_dos(std::span<const double> mu, const linalg::SpectralTransform& transform,
                         const ReconstructOptions& options) {
  KPM_REQUIRE(!mu.empty(), "reconstruct_dos: no moments");
  KPM_REQUIRE(options.points > 0, "reconstruct_dos: need at least one point");
  obs::ScopedSpan span("reconstruct.dos");
  meter_reconstruct(options.points, mu.size());
  const auto damped = damp_moments(mu, options);
  const auto grid = chebyshev_gauss_grid(options.points);

  DosCurve curve;
  curve.energy.resize(grid.size());
  curve.density.resize(grid.size());
  evaluate_dos_gamma(damped, grid, curve.density);
  const double jac = transform.density_jacobian();
  for (std::size_t j = 0; j < grid.size(); ++j) {
    curve.energy[j] = transform.to_physical(grid[j]);
    curve.density[j] = density_from_gamma(curve.density[j], grid[j]) * jac;
  }
  return curve;
}

DosCurve reconstruct_dos_fft(std::span<const double> mu,
                             const linalg::SpectralTransform& transform,
                             const ReconstructOptions& options) {
  KPM_REQUIRE(!mu.empty(), "reconstruct_dos_fft: no moments");
  const std::size_t m = options.points;
  KPM_REQUIRE(is_power_of_two(m), "reconstruct_dos_fft: points must be a power of two");
  KPM_REQUIRE(m >= mu.size(), "reconstruct_dos_fft: points must be >= the moment count");
  obs::ScopedSpan span("reconstruct.dos-fft");
  obs::add(obs::Counter::ReconstructPoints, static_cast<double>(m));
  // Radix-2 FFT of length 2M: ~5 * 2M * log2(2M) real flops.
  obs::add(obs::Counter::Flops, 5.0 * 2.0 * static_cast<double>(m) *
                                    (std::log2(2.0 * static_cast<double>(m))));
  const auto damped = damp_moments(mu, options);

  // gamma(theta_j) = a_0 + 2 sum_{n>=1} a_n cos(n theta_j) with
  // theta_j = pi (j + 1/2) / M.  Writing cos via e^{i n theta_j} and
  // absorbing the half-sample shift into b_n = a~_n e^{i pi n / 2M}, the
  // values are the real part of the inverse-sign FFT of b zero-padded to
  // 2M: gamma_j = Re sum_n b_n e^{i pi n j / M} = Re FFT^{+}_{2M}(b)[j].
  std::vector<std::complex<double>> b(2 * m, {0.0, 0.0});
  for (std::size_t n = 0; n < damped.size(); ++n) {
    const double scale = (n == 0 ? 1.0 : 2.0) * damped[n];
    const double phase = std::numbers::pi * static_cast<double>(n) / (2.0 * static_cast<double>(m));
    b[n] = scale * std::complex<double>(std::cos(phase), std::sin(phase));
  }
  fft_radix2(b, +1);

  DosCurve curve;
  curve.energy.resize(m);
  curve.density.resize(m);
  const double jac = transform.density_jacobian();
  for (std::size_t j = 0; j < m; ++j) {
    const double theta = std::numbers::pi * (static_cast<double>(j) + 0.5) /
                         static_cast<double>(m);
    const double x = std::cos(theta);
    // chebyshev_gauss_grid orders ascending in x = descending in j.
    const std::size_t out = m - 1 - j;
    curve.energy[out] = transform.to_physical(x);
    curve.density[out] = b[j].real() / (std::numbers::pi * std::sin(theta)) * jac;
  }
  return curve;
}

DosCurve reconstruct_dos_at(std::span<const double> mu,
                            const linalg::SpectralTransform& transform,
                            std::span<const double> energies,
                            const ReconstructOptions& options) {
  KPM_REQUIRE(!mu.empty(), "reconstruct_dos_at: no moments");
  obs::ScopedSpan span("reconstruct.dos-at");
  meter_reconstruct(energies.size(), mu.size());
  const auto damped = damp_moments(mu, options);

  // The density row holds x, then gamma(x) in place, then rho.
  DosCurve curve;
  curve.energy.assign(energies.begin(), energies.end());
  curve.density.resize(energies.size());
  for (std::size_t j = 0; j < energies.size(); ++j) {
    const double x = transform.to_unit(energies[j]);
    KPM_REQUIRE(x > -1.0 && x < 1.0,
                "reconstruct_dos_at: energy outside the rescaled spectrum interval");
    curve.density[j] = x;
  }
  evaluate_dos_gamma(damped, curve.density, curve.density);
  const double jac = transform.density_jacobian();
  for (std::size_t j = 0; j < energies.size(); ++j)
    curve.density[j] = density_from_gamma(curve.density[j], transform.to_unit(energies[j])) * jac;
  return curve;
}

double dos_integral(const DosCurve& curve) {
  KPM_REQUIRE(curve.energy.size() == curve.density.size() && curve.energy.size() >= 2,
              "dos_integral: need a sampled curve");
  double acc = 0.0;
  for (std::size_t j = 1; j < curve.energy.size(); ++j)
    acc += 0.5 * (curve.density[j] + curve.density[j - 1]) *
           (curve.energy[j] - curve.energy[j - 1]);
  return acc;
}

double dos_mean_energy(const DosCurve& curve) {
  KPM_REQUIRE(curve.energy.size() == curve.density.size() && curve.energy.size() >= 2,
              "dos_mean_energy: need a sampled curve");
  double acc = 0.0;
  for (std::size_t j = 1; j < curve.energy.size(); ++j) {
    const double fa = curve.energy[j - 1] * curve.density[j - 1];
    const double fb = curve.energy[j] * curve.density[j];
    acc += 0.5 * (fa + fb) * (curve.energy[j] - curve.energy[j - 1]);
  }
  return acc;
}

}  // namespace kpm::core

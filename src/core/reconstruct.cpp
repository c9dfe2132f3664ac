#include "core/reconstruct.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <numbers>

#include "common/error.hpp"
#include "common/fft.hpp"
#include "common/packs.hpp"
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

// gamma(x) at kGammaPacks packs of points by Clenshaw on the coefficients
// a_0 = g0 mu0, a_n = 2 g_n mu_n: b_k = 2 d_k + 2x b_{k+1} - b_{k+2}, then
// gamma = d_0 + x b_1 - b_2.  Grid points are independent recurrences, but
// each one is a serial mul -> add -> sub chain per term, so one point at a
// time runs at the chain's latency.  This runs the points side by side,
// one per lane of kGammaPacks packs, with b1 and b2 of every pack held in
// registers.  At five packs, of either width, the ten b1/b2 packs and the
// broadcast coefficient stay in registers and GCC reads four of the five
// loop-invariant 2x packs from the stack, off the dependency chain; six
// Double2 packs spill the recurrence itself and measured slower, and five
// Double4 packs (20 points) beat three or four.  Each lane evaluates the
// scalar expressions in their scalar order, (2 d_k + (2x) b1) - b2 and
// (d_0 + x b1) - b2, so every point's gamma is bitwise the one-point
// recurrence's.
constexpr std::size_t kGammaPacks = 5;

template <typename Pack>
void series_gamma_packs(std::span<const double> damped, const double* x, double* gamma) {
  constexpr std::size_t L = sizeof(Pack) / sizeof(double);
  Pack two_x[kGammaPacks], b1[kGammaPacks], b2[kGammaPacks];
  for_each_index<kGammaPacks>([&](std::size_t j) {
    load_pack(two_x[j], x + L * j);
    two_x[j] = 2.0 * two_x[j];
    b1[j] = Pack{};
    b2[j] = Pack{};
  });
  for (std::size_t k = damped.size(); k-- > 1;) {
    const double two_d = 2.0 * damped[k];
    for_each_index<kGammaPacks>([&](std::size_t j) {
      const Pack b0 = two_d + two_x[j] * b1[j] - b2[j];
      b2[j] = b1[j];
      b1[j] = b0;
    });
  }
  for_each_index<kGammaPacks>([&](std::size_t j) {
    Pack xj{};
    load_pack(xj, x + L * j);
    store_pack(gamma + L * j, damped[0] + xj * b1[j] - b2[j]);
  });
}

// One kDosGammaBatch-point batch in Double2 packs: two runs of five.
void series_gamma_sse2(std::span<const double> damped, const double* x, double* gamma) {
  static_assert(kDosGammaBatch == 2 * kGammaPacks * 2, "a batch is two runs of Double2 packs");
  series_gamma_packs<Double2>(damped, x, gamma);
  series_gamma_packs<Double2>(damped, x + 2 * kGammaPacks, gamma + 2 * kGammaPacks);
}

#if KPM_AVX2_PACKS
// One batch in five Double4 packs, compiled for AVX2: flatten inlines the
// recurrence here, so its Double4 operations are compiled under this
// function's target alone.  "avx2" without "fma": a contracted
// two_x * b1 + ... would round once instead of twice.
[[gnu::target("avx2"), gnu::flatten]] void series_gamma_avx2(std::span<const double> damped,
                                                              const double* x, double* gamma) {
  static_assert(kDosGammaBatch == 4 * kGammaPacks, "a batch is one run of Double4 packs");
  series_gamma_packs<Double4>(damped, x, gamma);
}
#endif

// gamma at every point of x, kDosGammaBatch points per call of `batch`.
// The last partial batch runs on a zero-padded copy; lanes are
// independent, so the padding changes no valid point and is dropped.
void evaluate_batches(void (*batch)(std::span<const double>, const double*, double*),
                      std::span<const double> damped, std::span<const double> x,
                      std::span<double> gamma) {
  std::size_t j = 0;
  for (; j + kDosGammaBatch <= x.size(); j += kDosGammaBatch)
    batch(damped, x.data() + j, gamma.data() + j);
  if (j == x.size()) return;
  const std::size_t tail = x.size() - j;
  std::array<double, kDosGammaBatch> x_tail{}, gamma_tail{};
  std::copy_n(x.data() + j, tail, x_tail.data());
  batch(damped, x_tail.data(), gamma_tail.data());
  std::copy_n(gamma_tail.data(), tail, gamma.data() + j);
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
#if KPM_AVX2_PACKS
  if (avx2_packs()) return evaluate_batches(series_gamma_avx2, damped, x, gamma);
#endif
  evaluate_batches(series_gamma_sse2, damped, x, gamma);
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

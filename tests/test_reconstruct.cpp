// Tests for the DoS reconstruction (paper Eq. 6 and Fig. 6's physics).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/packs.hpp"
#include "core/chebyshev.hpp"
#include "core/reconstruct.hpp"
#include "diag/spectrum_utils.hpp"
#include "linalg/spectral_transform.hpp"

namespace {

using namespace kpm::core;
using kpm::diag::exact_chebyshev_moments;
using kpm::linalg::SpectralTransform;

/// Moments of a single delta function at x0: mu_n = T_n(x0).
std::vector<double> delta_moments(double x0, std::size_t n) {
  std::vector<double> mu(n);
  const double theta = std::acos(x0);
  for (std::size_t k = 0; k < n; ++k) mu[k] = std::cos(static_cast<double>(k) * theta);
  return mu;
}

TEST(Reconstruct, DeltaFunctionIntegratesToOne) {
  const SpectralTransform t({-1.0, 1.0}, 0.0);
  const auto mu = delta_moments(0.3, 128);
  const auto curve = reconstruct_dos(mu, t, {.points = 2048});
  EXPECT_NEAR(dos_integral(curve), 1.0, 1e-3);
}

TEST(Reconstruct, DeltaPeakSitsAtItsEnergy) {
  const SpectralTransform t({-2.0, 2.0}, 0.0);
  const double e0 = 0.8;  // physical energy; x0 = 0.4
  const auto mu = delta_moments(t.to_unit(e0), 256);
  const auto curve = reconstruct_dos(mu, t, {.points = 1024});
  const auto it = std::max_element(curve.density.begin(), curve.density.end());
  const auto peak = curve.energy[static_cast<std::size_t>(it - curve.density.begin())];
  EXPECT_NEAR(peak, e0, 0.02);
}

TEST(Reconstruct, JacksonDeltaWidthShrinksWithN) {
  // The Jackson-kernel delta approximation has width ~ pi/N: doubling N
  // must raise the peak height by ~2x.
  const SpectralTransform t({-1.0, 1.0}, 0.0);
  auto peak_height = [&](std::size_t n) {
    const auto curve = reconstruct_dos(delta_moments(0.0, n), t, {.points = 4096});
    return *std::max_element(curve.density.begin(), curve.density.end());
  };
  const double h128 = peak_height(128);
  const double h256 = peak_height(256);
  EXPECT_NEAR(h256 / h128, 2.0, 0.1);
}

TEST(Reconstruct, DirichletShowsGibbsRingingJacksonDoesNot) {
  const SpectralTransform t({-1.0, 1.0}, 0.0);
  const auto mu = delta_moments(0.0, 64);
  const auto raw = reconstruct_dos(mu, t, {.kernel = DampingKernel::Dirichlet, .points = 1024});
  const auto damped = reconstruct_dos(mu, t, {.kernel = DampingKernel::Jackson, .points = 1024});
  const double raw_min = *std::min_element(raw.density.begin(), raw.density.end());
  const double damped_min = *std::min_element(damped.density.begin(), damped.density.end());
  EXPECT_LT(raw_min, -0.01) << "truncated series must oscillate below zero";
  EXPECT_GT(damped_min, -1e-9) << "Jackson kernel must keep the DoS non-negative";
}

TEST(Reconstruct, MatchesEigenvalueHistogram) {
  // Flat-ish spectrum: 64 eigenvalues uniform in [-0.8, 0.8].
  std::vector<double> eig;
  for (int k = 0; k < 64; ++k) eig.push_back(-0.8 + 1.6 * (k + 0.5) / 64.0);
  const SpectralTransform t({-1.0, 1.0}, 0.0);
  const auto mu = exact_chebyshev_moments(eig, t, 128);
  const auto curve = reconstruct_dos(mu, t, {.points = 512});
  // Density inside the support should be ~1/1.6 = 0.625, near zero outside.
  for (std::size_t j = 0; j < curve.energy.size(); ++j) {
    if (std::abs(curve.energy[j]) < 0.6) EXPECT_NEAR(curve.density[j], 0.625, 0.08);
    if (std::abs(curve.energy[j]) > 0.95) EXPECT_LT(curve.density[j], 0.05);
  }
}

TEST(Reconstruct, PhysicalRescalingKeepsNormalization) {
  // Same spectrum expressed on a wide physical axis: integral stays 1.
  const SpectralTransform t({-7.0, 5.0}, 0.01);
  std::vector<double> eig{-3.0, -1.0, 0.0, 2.0, 4.0};
  const auto mu = exact_chebyshev_moments(eig, t, 256);
  const auto curve = reconstruct_dos(mu, t, {.points = 2048});
  EXPECT_NEAR(dos_integral(curve), 1.0, 2e-3);
  EXPECT_NEAR(dos_mean_energy(curve), 0.4, 0.05);  // mean of the eigenvalues
}

TEST(Reconstruct, AtArbitraryEnergiesAgreesWithGridPath) {
  const SpectralTransform t({-1.0, 1.0}, 0.0);
  const auto mu = delta_moments(0.25, 64);
  std::vector<double> energies{-0.5, 0.0, 0.25, 0.7};
  const auto curve = reconstruct_dos_at(mu, t, energies);
  const auto damped = damping_coefficients(DampingKernel::Jackson, 64);
  std::vector<double> prod(64);
  for (std::size_t k = 0; k < 64; ++k) prod[k] = damped[k] * mu[k];
  for (std::size_t j = 0; j < energies.size(); ++j)
    EXPECT_NEAR(curve.density[j], evaluate_dos_series(prod, energies[j]), 1e-12);
}

TEST(Reconstruct, RejectsEnergiesOutsideInterval) {
  const SpectralTransform t({-1.0, 1.0}, 0.0);
  const auto mu = delta_moments(0.0, 16);
  std::vector<double> bad{1.5};
  EXPECT_THROW((void)reconstruct_dos_at(mu, t, bad), kpm::Error);
  EXPECT_THROW((void)evaluate_dos_series(mu, 1.0), kpm::Error);
}

TEST(Reconstruct, EmptyMomentsThrow) {
  const SpectralTransform t({-1.0, 1.0}, 0.0);
  EXPECT_THROW((void)reconstruct_dos({}, t), kpm::Error);
}

// ---------------------------------------------------------------------------
// Bitwise contract of the batched Clenshaw evaluator: every reconstructed
// density equals, bit for bit, the scalar per-point loop below.  The moment
// counts cover the empty, one- and two-term recurrences.

constexpr DampingKernel kAllKernels[] = {DampingKernel::Jackson, DampingKernel::Lorentz,
                                         DampingKernel::Fejer, DampingKernel::Dirichlet};
constexpr std::size_t kMomentCounts[] = {1, 2, 3, 64, 129, 256};

/// Every tail length behind zero, one and two packed batches, then
/// serve-sized grids.
std::vector<std::size_t> point_counts() {
  std::vector<std::size_t> m;
  for (std::size_t k = 1; k <= 3 * kDosGammaBatch; ++k) m.push_back(k);
  m.insert(m.end(), {1024, 4097});
  return m;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Moments of three weighted delta functions: terms of both signs at every
/// order, so the recurrence does not settle into a trivial pattern.
std::vector<double> mixed_moments(std::size_t n) {
  std::vector<double> mu(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double kk = static_cast<double>(k);
    mu[k] = 0.5 * std::cos(kk * std::acos(-0.61)) + 0.3 * std::cos(kk * std::acos(0.07)) +
            0.2 * std::cos(kk * std::acos(0.83));
  }
  return mu;
}

std::vector<double> damped_moments(const std::vector<double>& mu, DampingKernel kernel) {
  const auto g = damping_coefficients(kernel, mu.size(), ReconstructOptions{}.lorentz_lambda);
  std::vector<double> damped(mu.size());
  for (std::size_t k = 0; k < mu.size(); ++k) damped[k] = g[k] * mu[k];
  return damped;
}

/// The scalar per-point loop the reconstruction ran before batching:
/// Clenshaw for gamma(x), then the Chebyshev weight, then the jacobian.
double scalar_density(const std::vector<double>& damped, double x, double jac) {
  double b1 = 0.0, b2 = 0.0;
  for (std::size_t k = damped.size(); k-- > 1;) {
    const double b0 = 2.0 * damped[k] + 2.0 * x * b1 - b2;
    b2 = b1;
    b1 = b0;
  }
  const double series = damped[0] + x * b1 - b2;
  return series / (std::numbers::pi * std::sqrt(1.0 - x * x)) * jac;
}

/// `m` physical energies spread over the inside of t's interval.
std::vector<double> interior_energies(const SpectralTransform& t, std::size_t m) {
  std::vector<double> e(m);
  for (std::size_t j = 0; j < m; ++j)
    e[j] = t.to_physical(-0.999 + 1.998 * (static_cast<double>(j) + 0.5) /
                                      static_cast<double>(m));
  return e;
}

TEST(Reconstruct, BatchedCurvesMatchScalarClenshawBitwise) {
  const SpectralTransform t({-2.5, 3.5}, 0.01);
  const double jac = t.density_jacobian();
  // The Double2 body, then the host's choice (Double4 on an AVX2 host).
  for (const bool avx2 : {false, true}) {
    const kpm::detail::ScopedAvx2Packs packs(avx2);
    SCOPED_TRACE(kpm::avx2_packs() ? "avx2 body" : "sse2 body");
    for (const DampingKernel kernel : kAllKernels) {
      for (const std::size_t n : kMomentCounts) {
        const auto mu = mixed_moments(n);
        const auto damped = damped_moments(mu, kernel);
        for (const std::size_t m : point_counts()) {
          SCOPED_TRACE(std::string(to_string(kernel)) + " N=" + std::to_string(n) +
                       " M=" + std::to_string(m));
          const ReconstructOptions options{.kernel = kernel, .points = m};

          const auto grid = chebyshev_gauss_grid(m);
          const auto curve = reconstruct_dos(mu, t, options);
          ASSERT_EQ(curve.density.size(), m);
          std::size_t grid_mismatches = 0;
          for (std::size_t j = 0; j < m; ++j)
            grid_mismatches +=
                bits(curve.energy[j]) != bits(t.to_physical(grid[j])) ||
                bits(curve.density[j]) != bits(scalar_density(damped, grid[j], jac));
          EXPECT_EQ(grid_mismatches, 0u);

          const auto energies = interior_energies(t, m);
          const auto at = reconstruct_dos_at(mu, t, energies, options);
          ASSERT_EQ(at.density.size(), m);
          std::size_t at_mismatches = 0;
          for (std::size_t j = 0; j < m; ++j)
            at_mismatches +=
                bits(at.energy[j]) != bits(energies[j]) ||
                bits(at.density[j]) != bits(scalar_density(damped, t.to_unit(energies[j]), jac));
          EXPECT_EQ(at_mismatches, 0u);
        }
      }
    }
  }
}

TEST(Reconstruct, GammaEvaluatesInPlaceAndChecksSizes) {
  const auto damped = damped_moments(mixed_moments(64), DampingKernel::Jackson);
  auto x = chebyshev_gauss_grid(17);
  std::vector<double> gamma(x.size());
  evaluate_dos_gamma(damped, x, gamma);
  evaluate_dos_gamma(damped, x, x);
  for (std::size_t j = 0; j < x.size(); ++j) EXPECT_EQ(bits(x[j]), bits(gamma[j])) << j;

  std::vector<double> short_gamma(x.size() - 1);
  EXPECT_THROW(evaluate_dos_gamma(damped, x, short_gamma), kpm::Error);
  EXPECT_THROW(evaluate_dos_gamma({}, x, gamma), kpm::Error);
}

TEST(Reconstruct, RejectsAnOutOfRangeEnergyAnywhereInTheBatch) {
  const SpectralTransform t({-1.0, 1.0}, 0.0);
  const auto mu = mixed_moments(32);
  for (const std::size_t bad_at : {std::size_t{0}, std::size_t{5}, std::size_t{8}, std::size_t{16}}) {
    auto energies = interior_energies(t, 17);
    energies[bad_at] = bad_at % 2 == 0 ? 1.0 : -1.25;
    EXPECT_THROW((void)reconstruct_dos_at(mu, t, energies), kpm::Error) << bad_at;
  }
}

}  // namespace

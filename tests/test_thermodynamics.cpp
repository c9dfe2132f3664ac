// Tests for the thermodynamic observables (spectral averages from moments).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/packs.hpp"
#include "core/chebyshev.hpp"
#include "core/ldos.hpp"
#include "core/reconstruct.hpp"
#include "core/thermodynamics.hpp"
#include "diag/tridiag.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/spectral_transform.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

TEST(FermiDirac, LimitsAndSymmetry) {
  EXPECT_DOUBLE_EQ(fermi_dirac(-1.0, 0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fermi_dirac(1.0, 0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fermi_dirac(0.0, 0.0, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(fermi_dirac(0.0, 0.0, 0.5), 0.5);
  // Particle-hole symmetry: f(e) + f(-e) = 1.
  for (double e : {0.1, 0.7, 3.0})
    EXPECT_NEAR(fermi_dirac(e, 0.0, 0.4) + fermi_dirac(-e, 0.0, 0.4), 1.0, 1e-14);
  // Extreme arguments are finite.
  EXPECT_DOUBLE_EQ(fermi_dirac(1e6, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(fermi_dirac(-1e6, 0.0, 1.0), 1.0);
  EXPECT_THROW((void)fermi_dirac(0.0, 0.0, -1.0), kpm::Error);
}

/// Fixture: exact moments of a small lattice so quadrature error is the
/// only error source.
struct Fixture {
  std::vector<double> mu;
  std::vector<double> spectrum;
  linalg::SpectralTransform transform;

  explicit Fixture(std::size_t edge = 4, std::size_t n_moments = 256)
      : transform({-1.0, 1.0}, 0.0) {
    const auto lat = lattice::HypercubicLattice::cubic(edge, edge, edge);
    const auto h = lattice::build_tight_binding_crs(lat);
    linalg::MatrixOperator op(h);
    transform = linalg::make_spectral_transform(op);
    const auto ht = linalg::rescale(h, transform);
    linalg::MatrixOperator op_t(ht);
    mu = deterministic_trace_moments(op_t, n_moments);
    spectrum = lattice::periodic_tight_binding_spectrum(lat);
  }

  /// Exact (1/D) sum_k f(E_k).
  [[nodiscard]] double exact_average(const std::function<double(double)>& f) const {
    double acc = 0.0;
    for (double e : spectrum) acc += f(e);
    return acc / static_cast<double>(spectrum.size());
  }
};

TEST(Thermo, AverageOfOneIsOne) {
  Fixture f;
  const double avg = spectral_average(f.mu, f.transform, [](double) { return 1.0; });
  EXPECT_NEAR(avg, 1.0, 1e-10);
}

TEST(Thermo, AverageOfEnergyMatchesTrace) {
  Fixture f;
  const double avg = spectral_average(f.mu, f.transform, [](double e) { return e; });
  EXPECT_NEAR(avg, f.exact_average([](double e) { return e; }), 1e-6);
}

TEST(Thermo, FillingMatchesExactSpectrumAtFiniteT) {
  Fixture f;
  for (double mu_c : {-2.0, 0.0, 1.5}) {
    for (double t : {0.5, 1.0}) {
      const double kpm_n = electron_filling(f.mu, f.transform, mu_c, t);
      const double exact_n =
          f.exact_average([&](double e) { return fermi_dirac(e, mu_c, t); });
      EXPECT_NEAR(kpm_n, exact_n, 5e-3) << "mu=" << mu_c << " T=" << t;
    }
  }
}

TEST(Thermo, HalfFillingAtParticleHoleSymmetricPoint) {
  // Bipartite lattice (even extents), mu = 0: filling is exactly 1/2.
  Fixture f;
  EXPECT_NEAR(electron_filling(f.mu, f.transform, 0.0, 0.7), 0.5, 1e-6);
}

TEST(Thermo, FillingMonotoneInChemicalPotential) {
  Fixture f;
  double prev = -1.0;
  for (double mu_c = -7.0; mu_c <= 7.0; mu_c += 1.0) {
    const double n = electron_filling(f.mu, f.transform, mu_c, 0.4);
    EXPECT_GE(n, prev - 1e-9);
    prev = n;
  }
  EXPECT_NEAR(electron_filling(f.mu, f.transform, -6.5, 0.1), 0.0, 1e-3);
  EXPECT_NEAR(electron_filling(f.mu, f.transform, 6.5, 0.1), 1.0, 1e-3);
}

TEST(Thermo, InternalEnergyBelowBandCenterAtHalfFilling) {
  // Filling the lower half of a symmetric band gives negative energy.
  Fixture f;
  const double u = internal_energy(f.mu, f.transform, 0.0, 0.2);
  EXPECT_LT(u, -0.5);
  const double exact =
      f.exact_average([&](double e) { return e * fermi_dirac(e, 0.0, 0.2); });
  EXPECT_NEAR(u, exact, 5e-3);
}

TEST(Thermo, EntropyPositiveAndVanishesAtLowT) {
  Fixture f;
  const double s_hot = electronic_entropy(f.mu, f.transform, 0.0, 2.0);
  const double s_cold = electronic_entropy(f.mu, f.transform, 0.0, 0.05);
  EXPECT_GT(s_hot, 0.1);
  EXPECT_LT(s_cold, s_hot);
  EXPECT_GE(s_cold, -1e-9);
}

TEST(Thermo, ChemicalPotentialSearchInvertsFilling) {
  Fixture f;
  for (double target : {0.25, 0.5, 0.8}) {
    const double mu_c = find_chemical_potential(f.mu, f.transform, target, 0.6);
    EXPECT_NEAR(electron_filling(f.mu, f.transform, mu_c, 0.6), target, 1e-8);
  }
  // Bipartite half filling must land at mu = 0.
  EXPECT_NEAR(find_chemical_potential(f.mu, f.transform, 0.5, 0.6), 0.0, 1e-6);
}

TEST(Thermo, RejectsBadInput) {
  Fixture f;
  EXPECT_THROW((void)find_chemical_potential(f.mu, f.transform, 1.5, 0.5), kpm::Error);
  EXPECT_THROW((void)spectral_average({}, f.transform, [](double) { return 1.0; }),
               kpm::Error);
  QuadratureOptions q;
  q.points = 4;  // fewer than moments
  EXPECT_THROW((void)spectral_average(f.mu, f.transform, [](double) { return 1.0; }, q),
               kpm::Error);
}

/// spectral_average as it ran before batching: one scalar Clenshaw
/// recurrence per Chebyshev-Gauss point, accumulated in grid order.
double scalar_spectral_average(const std::vector<double>& mu,
                               const linalg::SpectralTransform& transform,
                               const std::function<double(double)>& f,
                               const QuadratureOptions& options) {
  const auto g = damping_coefficients(options.kernel, mu.size(), options.lorentz_lambda);
  std::vector<double> damped(mu.size());
  for (std::size_t k = 0; k < mu.size(); ++k) damped[k] = g[k] * mu[k];
  double acc = 0.0;
  for (double x : chebyshev_gauss_grid(options.points)) {
    double b1 = 0.0, b2 = 0.0;
    for (std::size_t k = damped.size(); k-- > 1;) {
      const double b0 = 2.0 * damped[k] + 2.0 * x * b1 - b2;
      b2 = b1;
      b1 = b0;
    }
    const double gamma = damped[0] + x * b1 - b2;
    acc += gamma * f(transform.to_physical(x));
  }
  return acc / static_cast<double>(options.points);
}

TEST(Thermo, SpectralAverageMatchesScalarClenshawBitwise) {
  // Every kernel, moment count and tail length behind zero, one and two
  // packed batches, then grids that span several of spectral_average's
  // slices; the quadrature needs M >= N, so smaller grids are skipped.
  const Fixture f(4, 256);
  const auto energy_weight = [](double e) { return e * fermi_dirac(e, 0.3, 0.2); };
  std::vector<std::size_t> point_counts;
  for (std::size_t k = 1; k <= 3 * kDosGammaBatch; ++k) point_counts.push_back(k);
  point_counts.insert(point_counts.end(), {1024, 4097});
  // The Double2 body, then the host's choice (Double4 on an AVX2 host).
  for (const bool avx2 : {false, true}) {
    const kpm::detail::ScopedAvx2Packs packs(avx2);
    SCOPED_TRACE(kpm::avx2_packs() ? "avx2 body" : "sse2 body");
    for (const DampingKernel kernel : {DampingKernel::Jackson, DampingKernel::Lorentz,
                                       DampingKernel::Fejer, DampingKernel::Dirichlet}) {
      for (const std::size_t n : {1u, 2u, 3u, 64u, 129u, 256u}) {
        const std::vector<double> mu(f.mu.begin(),
                                     f.mu.begin() + static_cast<std::ptrdiff_t>(n));
        for (const std::size_t m : point_counts) {
          if (m < n) continue;
          SCOPED_TRACE(std::string(to_string(kernel)) + " N=" + std::to_string(n) +
                       " M=" + std::to_string(m));
          const QuadratureOptions q{.kernel = kernel, .points = m};
          const double batched = spectral_average(mu, f.transform, energy_weight, q);
          const double scalar = scalar_spectral_average(mu, f.transform, energy_weight, q);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(batched), std::bit_cast<std::uint64_t>(scalar));
        }
      }
    }
  }
}

}  // namespace

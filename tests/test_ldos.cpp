// Tests for the local DoS and the deterministic trace.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "core/ldos.hpp"
#include "core/moments_cpu.hpp"
#include "diag/jacobi.hpp"
#include "diag/spectrum_utils.hpp"
#include "diag/tridiag.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/sell_matrix.hpp"
#include "linalg/spectral_transform.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

struct Fixture {
  linalg::DenseMatrix h_tilde;
  linalg::SpectralTransform transform;

  Fixture() : h_tilde(1, 1), transform({-1.0, 1.0}, 0.0) {
    const auto lat = lattice::HypercubicLattice::cubic(3, 3, 3);
    const auto h = lattice::build_tight_binding_dense(lat);
    linalg::MatrixOperator op(h);
    transform = linalg::make_spectral_transform(op);
    h_tilde = linalg::rescale(h, transform);
  }
};

TEST(Ldos, MomentsMatchEigenvectorExpansion) {
  // mu_n^i = sum_k |<i|k>|^2 T_n(E~_k) from the exact eigendecomposition.
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const std::size_t site = 5, n_mom = 24;
  const auto mu = ldos_moments(op, site, n_mom);

  diag::JacobiOptions jopts;
  jopts.compute_vectors = true;
  const auto d = diag::jacobi_eigensolve(f.h_tilde, jopts);
  for (std::size_t n = 0; n < n_mom; ++n) {
    double expected = 0.0;
    for (std::size_t k = 0; k < d.eigenvalues.size(); ++k) {
      const double w = d.eigenvectors(site, k) * d.eigenvectors(site, k);
      expected += w * std::cos(static_cast<double>(n) * std::acos(std::clamp(d.eigenvalues[k], -1.0, 1.0)));
    }
    EXPECT_NEAR(mu[n], expected, 1e-9) << "moment " << n;
  }
}

TEST(Ldos, Mu0IsOne) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto mu = ldos_moments(op, 0, 4);
  EXPECT_DOUBLE_EQ(mu[0], 1.0);  // <i|i> = 1
}

TEST(Ldos, TranslationInvarianceOnCleanPeriodicLattice) {
  // Every site of the clean periodic lattice has the same LDOS.
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto mu_a = ldos_moments(op, 0, 16);
  const auto mu_b = ldos_moments(op, 13, 16);
  for (std::size_t n = 0; n < 16; ++n) EXPECT_NEAR(mu_a[n], mu_b[n], 1e-12);
}

TEST(Ldos, CurveIntegratesToOne) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto curve = ldos_curve(op, f.transform, 3, 64, {.points = 1024});
  double integral = 0.0;
  for (std::size_t j = 1; j < curve.energy.size(); ++j)
    integral += 0.5 * (curve.density[j] + curve.density[j - 1]) *
                (curve.energy[j] - curve.energy[j - 1]);
  EXPECT_NEAR(integral, 1.0, 2e-3);
}

TEST(Ldos, SiteOutOfRangeThrows) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  EXPECT_THROW((void)ldos_moments(op, 27, 8), kpm::Error);
}

/// Sites of one b-wide group over dim d: site 0, site d - 1 (from b = 2),
/// distinct interior sites, and from b = 3 a repeat of site 0 last.
std::vector<std::size_t> group_sites(std::size_t b, std::size_t d) {
  std::vector<std::size_t> sites(b);
  for (std::size_t j = 0; j < b; ++j) sites[j] = (j * 11) % d;
  if (b >= 2) sites[1] = d - 1;
  if (b >= 3) sites[b - 1] = 0;
  return sites;
}

TEST(Ldos, SiteGroupRowsMatchSingleSiteBitwise) {
  // Row j of a site group must be bitwise ldos_moments(sites[j]) at every
  // width (the kernels' table widths 1, 2, 8, 16 and generic widths between
  // and beyond them) and on every storage.  Disorder makes every site's row
  // different, so a row landing in the wrong slot would show.
  const auto lat = lattice::HypercubicLattice::cubic(3, 3, 4);
  const auto h = lattice::build_tight_binding_crs(lat, {}, lattice::anderson_disorder(1.0, 5));
  const auto crs = linalg::rescale(h, linalg::make_spectral_transform(linalg::MatrixOperator(h)));
  const auto sell = linalg::SellMatrix::from_crs(crs, 4, 8);
  const auto dense = crs.to_dense();
  const std::size_t d = crs.rows(), n = 20;
  const char* names[] = {"crs", "sell", "dense"};
  const linalg::MatrixOperator ops[] = {linalg::MatrixOperator(crs), linalg::MatrixOperator(sell),
                                        linalg::MatrixOperator(dense)};
  for (std::size_t s = 0; s < 3; ++s) {
    for (const std::size_t b : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 16u, 17u}) {
      const auto sites = group_sites(b, d);
      const auto rows = ldos_moments_sites(ops[s], sites, n);
      ASSERT_EQ(rows.size(), b * n);
      for (std::size_t j = 0; j < b; ++j) {
        const auto single = ldos_moments(ops[s], sites[j], n);
        for (std::size_t k = 0; k < n; ++k)
          EXPECT_EQ(std::bit_cast<std::uint64_t>(rows[j * n + k]),
                    std::bit_cast<std::uint64_t>(single[k]))
              << names[s] << " b=" << b << " member " << j << " site " << sites[j] << " k=" << k;
      }
    }
  }
}

TEST(Ldos, SiteGroupRejectsAnEmptySpan) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  EXPECT_THROW((void)ldos_moments_sites(op, {}, 8), kpm::Error);
}

TEST(Ldos, SiteGroupRejectsAnOutOfRangeSite) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const std::vector<std::size_t> sites{0, 26, 27, 3};  // D = 27: only 27 is out of range
  EXPECT_THROW((void)ldos_moments_sites(op, sites, 8), kpm::Error);
  const std::vector<std::size_t> in_range{0, 26, 3};
  EXPECT_NO_THROW((void)ldos_moments_sites(op, in_range, 8));
}

TEST(DeterministicTrace, MatchesExactMoments) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto mu = deterministic_trace_moments(op, 20);
  const auto eig = diag::symmetric_eigenvalues(f.h_tilde);
  const linalg::SpectralTransform unit({-1.0, 1.0}, 0.0);
  const auto exact = diag::exact_chebyshev_moments(eig, unit, 20);
  for (std::size_t n = 0; n < 20; ++n) EXPECT_NEAR(mu[n], exact[n], 1e-9) << "moment " << n;
}

TEST(DeterministicTrace, AveragesLdosOverSites) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  const auto trace = deterministic_trace_moments(op, 12);
  std::vector<double> avg(12, 0.0);
  for (std::size_t site = 0; site < op.dim(); ++site) {
    const auto mu = ldos_moments(op, site, 12);
    for (std::size_t n = 0; n < 12; ++n) avg[n] += mu[n];
  }
  for (std::size_t n = 0; n < 12; ++n)
    EXPECT_NEAR(trace[n], avg[n] / static_cast<double>(op.dim()), 1e-12);
}

}  // namespace

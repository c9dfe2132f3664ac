// Tests for next-nearest-neighbour hoppings and the GPU LDOS-map engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "core/ldos.hpp"
#include "core/ldos_gpu.hpp"
#include "diag/tridiag.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/spectral_transform.hpp"

namespace {

using namespace kpm;
using namespace kpm::lattice;

TEST(NextNearest, CountsPerGeometry) {
  EXPECT_EQ(HypercubicLattice::chain(8).next_nearest_neighbours(3).size(), 2u);
  EXPECT_EQ(HypercubicLattice::square(5, 5).next_nearest_neighbours(7).size(), 4u);
  EXPECT_EQ(HypercubicLattice::cubic(4, 4, 4).next_nearest_neighbours(21).size(), 12u);
}

TEST(NextNearest, OpenBoundaryCornersLoseDiagonals) {
  const auto lat = HypercubicLattice::square(5, 5, Boundary::Open);
  EXPECT_EQ(lat.next_nearest_neighbours(lat.site_index(0, 0, 0)).size(), 1u);
  EXPECT_EQ(lat.next_nearest_neighbours(lat.site_index(2, 0, 0)).size(), 2u);
  EXPECT_EQ(lat.next_nearest_neighbours(lat.site_index(2, 2, 0)).size(), 4u);
}

TEST(NextNearest, ChainDistanceTwo) {
  const auto lat = HypercubicLattice::chain(6);
  const auto nn = lat.next_nearest_neighbours(0);
  const std::set<std::size_t> got(nn.begin(), nn.end());
  EXPECT_EQ(got, (std::set<std::size_t>{2, 4}));
}

TEST(NextNearest, MutualityOnPeriodicSquare) {
  const auto lat = HypercubicLattice::square(6, 5);
  for (std::size_t i = 0; i < lat.sites(); ++i)
    for (std::size_t j : lat.next_nearest_neighbours(i)) {
      const auto back = lat.next_nearest_neighbours(j);
      EXPECT_NE(std::find(back.begin(), back.end(), i), back.end());
    }
}

TEST(NextNearest, SpectrumMatchesClosedFormWithTPrime) {
  TightBindingParams p;
  p.hopping_nnn = 0.3;
  for (const auto& lat : {HypercubicLattice::chain(12), HypercubicLattice::square(4, 5),
                          HypercubicLattice::cubic(3, 4, 5)}) {
    const auto h = build_tight_binding_dense(lat, p);
    auto eig = diag::symmetric_eigenvalues(h);
    auto expected = periodic_tight_binding_spectrum(lat, p);
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(eig.size(), expected.size());
    for (std::size_t i = 0; i < eig.size(); ++i)
      EXPECT_NEAR(eig[i], expected[i], 1e-10) << lat.describe() << " level " << i;
  }
}

TEST(NextNearest, TPrimeBreaksParticleHoleSymmetry) {
  const auto lat = HypercubicLattice::square(6, 6);
  TightBindingParams p;
  p.hopping_nnn = 0.4;
  auto eig = diag::symmetric_eigenvalues(build_tight_binding_dense(lat, p));
  // A particle-hole-symmetric spectrum satisfies E_k = -E_{D-1-k}.
  double asym = 0.0;
  for (std::size_t k = 0; k < eig.size(); ++k)
    asym = std::max(asym, std::abs(eig[k] + eig[eig.size() - 1 - k]));
  EXPECT_GT(asym, 0.5);
}

TEST(GpuLdos, BitwiseEqualToCpuLdosMoments) {
  const auto lat = HypercubicLattice::square(6, 6);
  const auto h = build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto t = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, t);
  linalg::MatrixOperator op_t(ht);

  const std::vector<std::size_t> sites{0, 7, 17, 35};
  core::GpuLdosEngine engine;
  const auto map = engine.compute(op_t, sites, 24);
  ASSERT_EQ(map.sites.size(), 4u);
  EXPECT_GT(engine.last_model_seconds(), 0.0);
  for (std::size_t k = 0; k < sites.size(); ++k) {
    const auto expected = core::ldos_moments(op_t, sites[k], 24);
    const auto got = map.site_moments(k);
    for (std::size_t n = 0; n < 24; ++n)
      EXPECT_EQ(got[n], expected[n]) << "site " << sites[k] << " moment " << n;
  }
}

TEST(GpuLdos, RejectsBadInput) {
  const auto lat = HypercubicLattice::chain(8);
  const auto h = build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  core::GpuLdosEngine engine;
  const std::vector<std::size_t> none;
  EXPECT_THROW((void)engine.compute(op, none, 8), kpm::Error);
  const std::vector<std::size_t> bad{99};
  EXPECT_THROW((void)engine.compute(op, bad, 8), kpm::Error);
  const std::vector<std::size_t> ok{1};
  EXPECT_THROW((void)engine.compute(op, ok, 1), kpm::Error);
}

TEST(GpuLdos, RejectsBadConfig) {
  core::GpuEngineConfig cfg;
  cfg.block_size = 48;
  EXPECT_THROW(core::GpuLdosEngine{cfg}, kpm::Error);
  cfg.block_size = 0;
  EXPECT_THROW(core::GpuLdosEngine{cfg}, kpm::Error);
  cfg = core::GpuEngineConfig{};
  cfg.context_setup_seconds = -1.0;
  EXPECT_THROW(core::GpuLdosEngine{cfg}, kpm::Error);
  cfg = core::GpuEngineConfig{};
  cfg.device.sm_count = 0;
  EXPECT_THROW(core::GpuLdosEngine{cfg}, kpm::Error);
}

}  // namespace

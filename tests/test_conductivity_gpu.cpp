// Tests for the GPU-mapped Kubo-Greenwood moment engine.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/conductivity.hpp"
#include "core/conductivity_gpu.hpp"
#include "lattice/current.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/spectral_transform.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

struct Fixture {
  linalg::CrsMatrix h_tilde;
  linalg::CrsMatrix a_op;
  linalg::SpectralTransform transform{{-1.0, 1.0}, 0.0};

  explicit Fixture(std::size_t edge = 8) {
    const auto lat = lattice::HypercubicLattice::square(edge, edge);
    const auto h = lattice::build_tight_binding_crs(lat);
    linalg::MatrixOperator op(h);
    transform = linalg::make_spectral_transform(op);
    h_tilde = linalg::rescale(h, transform);
    a_op = lattice::build_current_operator_crs(lat, 0);
  }
};

MomentParams small_params(std::size_t n = 12) {
  MomentParams p;
  p.num_moments = n;
  p.random_vectors = 4;
  p.realizations = 2;
  return p;
}

TEST(GpuConductivity, BitwiseEqualToCpuPath) {
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  const auto p = small_params();
  const auto cpu = conductivity_moments(h, a, p);
  GpuConductivityEngine gpu;
  const auto dev = gpu.compute(h, a, p);
  ASSERT_EQ(cpu.mu.size(), dev.mu.size());
  for (std::size_t i = 0; i < cpu.mu.size(); ++i)
    EXPECT_EQ(cpu.mu[i], dev.mu[i]) << "entry " << i;
}

TEST(GpuConductivity, SampledRunMatchesCpu) {
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  const auto p = small_params();
  const auto cpu = conductivity_moments(h, a, p, 3);
  GpuConductivityEngine gpu;
  const auto dev = gpu.compute(h, a, p, 3);
  EXPECT_EQ(dev.instances_executed, 3u);
  for (std::size_t i = 0; i < cpu.mu.size(); ++i) EXPECT_EQ(cpu.mu[i], dev.mu[i]);
}

TEST(GpuConductivity, TimelineIsPopulatedAndSamplingIsCostNeutral) {
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  const auto p = small_params();
  GpuConductivityEngine gpu;
  (void)gpu.compute(h, a, p);
  const double full = gpu.last_model_seconds();
  EXPECT_GT(full, 0.0);
  EXPECT_EQ(gpu.last_timeline().launches, 3u);
  (void)gpu.compute(h, a, p, 2);
  EXPECT_NEAR(gpu.last_model_seconds(), full, 1e-9 * std::max(1.0, full));
}

TEST(GpuConductivity, ReconstructionIsNonNegative) {
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  GpuConductivityEngine gpu;
  const auto m = gpu.compute(h, a, small_params(16));
  const auto curve = reconstruct_conductivity(m, f.transform);
  for (double s : curve.sigma) EXPECT_GE(s, -1e-10);
}

TEST(GpuConductivity, CostsMoreThanDosMoments) {
  // The 2D engine must model more kernel time than the DoS engine on the
  // same workload (the N^2 D dot-product term).  Needs a workload heavy
  // enough that launch-overhead floors do not dominate.
  Fixture f(16);  // D = 256
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  MomentParams p = small_params(64);
  GpuEngineConfig cfg;
  cfg.context_setup_seconds = 0.0;
  GpuConductivityEngine sigma_engine(cfg);
  (void)sigma_engine.compute(h, a, p, 2);
  const double sigma_s = sigma_engine.last_timeline().kernel_seconds;
  GpuMomentEngine dos_engine(cfg);
  const auto dos = dos_engine.compute(h, p, 2);
  EXPECT_GT(sigma_s, 2.0 * dos.compute_seconds);
}

TEST(GpuConductivity, VramExhaustionSurfaces) {
  // beta storage = instances * N * D doubles: push it past 3 GB.
  Fixture f(16);  // D = 256
  linalg::MatrixOperator h(f.h_tilde), a(f.a_op);
  MomentParams p;
  p.num_moments = 512;
  p.random_vectors = 512;
  p.realizations = 8;  // 4096 * 512 * 256 * 8 B = 4.3 TB of beta vectors
  GpuConductivityEngine gpu;
  EXPECT_THROW((void)gpu.compute(h, a, p, 1), kpm::Error);
}

TEST(GpuConductivity, DimensionMismatchThrows) {
  Fixture f;
  linalg::MatrixOperator h(f.h_tilde);
  const auto lat = lattice::HypercubicLattice::chain(10);
  const auto wrong = lattice::build_current_operator_crs(lat, 0);
  linalg::MatrixOperator w(wrong);
  GpuConductivityEngine gpu;
  EXPECT_THROW((void)gpu.compute(h, w, small_params()), kpm::Error);
}

TEST(GpuConductivity, RejectsBadConfig) {
  GpuEngineConfig cfg;
  cfg.block_size = 17;
  EXPECT_THROW(GpuConductivityEngine{cfg}, kpm::Error);
  cfg.block_size = 0;
  EXPECT_THROW(GpuConductivityEngine{cfg}, kpm::Error);
  cfg = GpuEngineConfig{};
  cfg.context_setup_seconds = -1.0;
  EXPECT_THROW(GpuConductivityEngine{cfg}, kpm::Error);
  cfg = GpuEngineConfig{};
  cfg.device.sm_count = 0;
  EXPECT_THROW(GpuConductivityEngine{cfg}, kpm::Error);
}

}  // namespace

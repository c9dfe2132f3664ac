// Parameterized property sweeps across lattices, kernels, block sizes and
// engines: invariants that must hold for every configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <tuple>

#include "core/kpm.hpp"
#include "core/moments_cluster.hpp"
#include "core/moments_f32.hpp"
#include "lattice/decompose.hpp"
#include "linalg/shard.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

// ---------------------------------------------------------------------------
// Sweep 1: DoS invariants across lattice geometries and boundaries.
// ---------------------------------------------------------------------------

struct LatticeCase {
  const char* label;
  lattice::HypercubicLattice lat;
};

// Both lattice sweeps are indexed by position in this table.  gtest lists a
// struct parameter without a printer as a raw byte dump, and for LatticeCase
// that dump holds the address of `label`, which ASLR moves on every run; an
// integer parameter is listed the same way every time.
const LatticeCase kGeometries[] = {
    {"chain16_periodic", lattice::HypercubicLattice::chain(16)},
    {"chain16_open", lattice::HypercubicLattice::chain(16, lattice::Boundary::Open)},
    {"square6x5", lattice::HypercubicLattice::square(6, 5)},
    {"square4x4_open", lattice::HypercubicLattice::square(4, 4, lattice::Boundary::Open)},
    {"cubic4", lattice::HypercubicLattice::cubic(4, 4, 4)},
    {"cubic3_open", lattice::HypercubicLattice::cubic(3, 3, 3, lattice::Boundary::Open)},
};

std::string geometry_label(const ::testing::TestParamInfo<std::size_t>& info) {
  return kGeometries[info.param].label;
}

class LatticeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LatticeSweep, DosIntegratesToOneAndIsNonNegative) {
  const auto& lat = kGeometries[GetParam()].lat;
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto t = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, t);
  linalg::MatrixOperator op_t(ht);

  MomentParams p;
  p.num_moments = 48;
  p.random_vectors = 8;
  p.realizations = 4;
  CpuMomentEngine engine;
  const auto r = engine.compute(op_t, p);
  EXPECT_DOUBLE_EQ(r.mu[0], 1.0);
  const auto curve = reconstruct_dos(r.mu, t, {.points = 512});
  EXPECT_NEAR(dos_integral(curve), 1.0, 0.01);
  for (double d : curve.density) EXPECT_GT(d, -1e-9);
}

INSTANTIATE_TEST_SUITE_P(Geometries, LatticeSweep,
                         ::testing::Range<std::size_t>(0, std::size(kGeometries)),
                         geometry_label);

class LatticeBoundsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LatticeBoundsSweep, GershgorinContainsSpectrum) {
  const auto& lat = kGeometries[GetParam()].lat;
  const auto h = lattice::build_tight_binding_dense(lat);
  const auto b = linalg::gershgorin_bounds(h);
  const auto eig = diag::symmetric_eigenvalues(h);
  EXPECT_GE(eig.front(), b.lower - 1e-10);
  EXPECT_LE(eig.back(), b.upper + 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Geometries, LatticeBoundsSweep,
                         ::testing::Range<std::size_t>(0, std::size(kGeometries)),
                         geometry_label);

// ---------------------------------------------------------------------------
// Sweep 2: damping kernels preserve normalization.
// ---------------------------------------------------------------------------

class KernelSweep : public ::testing::TestWithParam<DampingKernel> {};

TEST_P(KernelSweep, NormalizationSurvivesDamping) {
  // g_0 = 1 for every kernel, so the integral of the reconstructed DoS is
  // exactly mu_0 = 1 in Chebyshev-Gauss quadrature regardless of kernel.
  const auto lat = lattice::HypercubicLattice::cubic(3, 3, 3);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto t = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, t);
  linalg::MatrixOperator op_t(ht);

  MomentParams p;
  p.num_moments = 64;
  p.random_vectors = 4;
  p.realizations = 4;
  CpuMomentEngine engine;
  const auto r = engine.compute(op_t, p);
  const auto curve = reconstruct_dos(r.mu, t, {.kernel = GetParam(), .points = 1024});
  EXPECT_NEAR(dos_integral(curve), 1.0, 0.02) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::Values(DampingKernel::Jackson, DampingKernel::Lorentz,
                                           DampingKernel::Fejer, DampingKernel::Dirichlet),
                         [](const auto& info) { return to_string(info.param); });

// ---------------------------------------------------------------------------
// Sweep 3: GPU/CPU equivalence across block sizes and mappings.
// ---------------------------------------------------------------------------

using BlockCase = std::tuple<GpuMapping, std::uint32_t>;

class BlockSweep : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockSweep, BlockSizeNeverChangesTheMoments) {
  const auto [mapping, block_size] = GetParam();
  const auto lat = lattice::HypercubicLattice::cubic(3, 3, 3);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto t = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, t);
  linalg::MatrixOperator op_t(ht);

  MomentParams p;
  p.num_moments = 12;
  p.random_vectors = 5;
  p.realizations = 1;
  CpuMomentEngine cpu;
  const auto reference = cpu.compute(op_t, p);

  GpuEngineConfig cfg;
  cfg.mapping = mapping;
  cfg.block_size = block_size;
  GpuMomentEngine gpu(cfg);
  const auto r = gpu.compute(op_t, p);
  for (std::size_t n = 0; n < r.mu.size(); ++n)
    EXPECT_EQ(r.mu[n], reference.mu[n]) << "moment " << n;
}

INSTANTIATE_TEST_SUITE_P(
    MappingsAndBlocks, BlockSweep,
    ::testing::Combine(::testing::Values(GpuMapping::InstancePerBlock,
                                         GpuMapping::InstancePerThread),
                       ::testing::Values(32u, 64u, 128u, 256u, 512u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == GpuMapping::InstancePerBlock ? "block"
                                                                                 : "thread") +
             "_" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Sweep 4: moment-count scaling of the estimator (N never changes mu_n for
// n < N, engines are prefix-consistent).
// ---------------------------------------------------------------------------

class PrefixSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrefixSweep, MomentsArePrefixStableInN) {
  // Computing more moments must not change the earlier ones.
  const std::size_t n_small = GetParam();
  const auto lat = lattice::HypercubicLattice::square(4, 4);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto t = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, t);
  linalg::MatrixOperator op_t(ht);

  MomentParams p;
  p.random_vectors = 2;
  p.realizations = 2;
  CpuMomentEngine engine;
  p.num_moments = n_small;
  const auto a = engine.compute(op_t, p);
  p.num_moments = 2 * n_small;
  const auto b = engine.compute(op_t, p);
  for (std::size_t n = 0; n < n_small; ++n) EXPECT_DOUBLE_EQ(a.mu[n], b.mu[n]);
}

INSTANTIATE_TEST_SUITE_P(Prefixes, PrefixSweep, ::testing::Values(4u, 8u, 16u, 32u, 64u),
                         [](const auto& info) { return "N" + std::to_string(info.param); });

// ---------------------------------------------------------------------------
// Sweep 5: disorder strength raises the band width monotonically.
// ---------------------------------------------------------------------------

class DisorderSweep : public ::testing::TestWithParam<double> {};

TEST_P(DisorderSweep, GershgorinWindowGrowsWithDisorder) {
  const double w = GetParam();
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  const auto clean = lattice::build_tight_binding_crs(lat);
  const auto dirty =
      lattice::build_tight_binding_crs(lat, {}, lattice::anderson_disorder(w, 99));
  const auto bc = linalg::gershgorin_bounds(clean);
  const auto bd = linalg::gershgorin_bounds(dirty);
  EXPECT_GE(bd.upper - bd.lower, bc.upper - bc.lower);
  if (w > 0.0) EXPECT_GT(bd.upper - bd.lower, bc.upper - bc.lower);
}

INSTANTIATE_TEST_SUITE_P(Widths, DisorderSweep, ::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0),
                         [](const auto& info) {
                           return "W" + std::to_string(static_cast<int>(info.param * 10));
                         });

// ---------------------------------------------------------------------------
// Sweep 6: differential engine sweep on random sparse Hamiltonians — every
// engine must agree on the moments AND report the same functional work
// (instances executed, moments produced) through the obs counter registry.
// ---------------------------------------------------------------------------

struct RandomHamiltonianCase {
  const char* label;
  double disorder;
  std::uint64_t seed;
};

class EngineDifferentialSweep : public ::testing::TestWithParam<RandomHamiltonianCase> {};

TEST_P(EngineDifferentialSweep, EnginesAgreeOnMomentsAndReportedWork) {
  const auto& c = GetParam();
  const auto lat = lattice::HypercubicLattice::square(5, 5);
  const auto h =
      lattice::build_tight_binding_crs(lat, {}, lattice::anderson_disorder(c.disorder, c.seed));
  linalg::MatrixOperator op(h);
  const auto t = linalg::make_spectral_transform(op);
  const auto ht = linalg::rescale(h, t);
  linalg::MatrixOperator op_t(ht);

  MomentParams p;
  p.num_moments = 16;
  p.random_vectors = 3;
  p.realizations = 2;
  p.seed = c.seed;

  // Runs an engine under a fresh counter sink; returns (result, counters).
  const auto run = [&](MomentEngine& engine) {
    obs::CounterSet counters;
    MomentResult result;
    {
      obs::CounterScope scope(counters);
      result = engine.compute(op_t, p);
    }
    return std::pair{std::move(result), counters};
  };

  CpuMomentEngine serial;
  const auto [ref, ref_counts] = run(serial);
  ASSERT_EQ(ref.mu.size(), p.num_moments);
  EXPECT_EQ(ref_counts[obs::Counter::InstancesExecuted],
            static_cast<double>(p.instances()));
  EXPECT_EQ(ref_counts[obs::Counter::MomentsProduced],
            static_cast<double>(p.num_moments));

  CpuParallelMomentEngine parallel(3);
  CpuPairedMomentEngine paired;
  CpuMomentEngineF32 f32;
  GpuMomentEngine gpu;
  struct Row {
    MomentEngine* engine;
    double tol;  // 0 = bitwise
  };
  for (const auto& row : {Row{&parallel, 0.0}, Row{&paired, 1e-9}, Row{&f32, 5e-3},
                          Row{&gpu, 0.0}}) {
    const auto [r, counts] = run(*row.engine);
    // Identical functional work reported, whatever the execution strategy.
    EXPECT_EQ(counts[obs::Counter::InstancesExecuted],
              ref_counts[obs::Counter::InstancesExecuted])
        << row.engine->name();
    EXPECT_EQ(counts[obs::Counter::MomentsProduced],
              ref_counts[obs::Counter::MomentsProduced])
        << row.engine->name();
    EXPECT_EQ(r.instances_executed, ref.instances_executed) << row.engine->name();
    ASSERT_EQ(r.mu.size(), ref.mu.size()) << row.engine->name();
    for (std::size_t n = 0; n < ref.mu.size(); ++n) {
      if (row.tol == 0.0) {
        EXPECT_EQ(r.mu[n], ref.mu[n]) << row.engine->name() << " moment " << n;
      } else {
        EXPECT_NEAR(r.mu[n], ref.mu[n], row.tol) << row.engine->name() << " moment " << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomHamiltonians, EngineDifferentialSweep,
    ::testing::Values(RandomHamiltonianCase{"clean", 0.0, 11},
                      RandomHamiltonianCase{"weak_disorder", 1.0, 23},
                      RandomHamiltonianCase{"strong_disorder", 3.0, 47},
                      RandomHamiltonianCase{"strong_disorder_reseeded", 3.0, 48}),
    [](const auto& info) { return info.param.label; });

// ---------------------------------------------------------------------------
// Sweep 7: decomposition invariance.  ANY valid partition geometry and halo
// width must yield identical moments, Gershgorin bounds and counter totals
// — only the modeled communication time may move.
// ---------------------------------------------------------------------------

struct DecompositionCase {
  const char* label;
  linalg::Decomposition dec;  // partitions the cubic-4 operator (dim 64)
};

class DecompositionSweep : public ::testing::TestWithParam<DecompositionCase> {};

TEST_P(DecompositionSweep, PartitionNeverChangesValuesBoundsOrCounters) {
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto ht = linalg::rescale(h, linalg::make_spectral_transform(op));
  const linalg::MatrixOperator op_t(ht);

  MomentParams p;
  p.num_moments = 24;
  p.random_vectors = 4;
  p.realizations = 2;

  obs::Report ref_report;
  MomentResult ref;
  {
    obs::Collect scope(ref_report);
    CpuMomentEngine cpu;
    ref = cpu.compute(op_t, p);
  }

  const auto& dec = GetParam().dec;
  obs::Report report;
  MomentResult got;
  ClusterEngineConfig cfg;
  cfg.decomposition = dec;
  ClusterMomentEngine cluster(cfg);
  {
    obs::Collect scope(report);
    got = cluster.compute(op_t, p);
  }

  // Moments: bitwise.
  ASSERT_EQ(got.mu.size(), ref.mu.size());
  for (std::size_t n = 0; n < ref.mu.size(); ++n)
    EXPECT_EQ(got.mu[n], ref.mu[n]) << "moment " << n;

  // Gershgorin bounds assembled shard-by-shard: bitwise.
  const linalg::ShardedMatrix sm(op_t, dec, linalg::Storage::Crs);
  const auto sharded = sm.gershgorin_bounds();
  const auto global = linalg::gershgorin_bounds(ht);
  EXPECT_EQ(sharded.lower, global.lower);
  EXPECT_EQ(sharded.upper, global.upper);

  // Counter totals: the partition must not change the accounted work.
  EXPECT_EQ(report.counters, ref_report.counters);
}

TEST_P(DecompositionSweep, ModeledCommTimeIsMonotoneInHaloBytes) {
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto ht = linalg::rescale(h, linalg::make_spectral_transform(op));
  const linalg::MatrixOperator op_t(ht);

  MomentParams p;
  p.num_moments = 24;
  p.random_vectors = 4;
  p.realizations = 2;

  const auto& base = GetParam().dec;
  if (base.nodes() == 1) return;  // one node never communicates

  // Same partition at growing halo width: wider exchange windows never move
  // FEWER bytes (the w-hop neighbourhood can saturate on a small periodic
  // box), modeled halo seconds follow the bytes exactly, and no computed
  // value may change.
  double prev_bytes = -1.0, prev_seconds = -1.0;
  std::vector<double> first_mu;
  for (std::size_t width = 1; width <= std::min<std::size_t>(base.min_shard_rows(), 3); ++width) {
    std::vector<linalg::ShardRange> ranges(base.ranges());
    ClusterEngineConfig cfg;
    cfg.decomposition = linalg::Decomposition(base.dim(), std::move(ranges), width);
    ClusterMomentEngine cluster(cfg);
    const auto got = cluster.compute(op_t, p);
    if (first_mu.empty()) {
      first_mu = got.mu;
    } else {
      for (std::size_t n = 0; n < first_mu.size(); ++n)
        EXPECT_EQ(got.mu[n], first_mu[n]) << "halo width changed moment " << n;
    }
    const auto& s = cluster.last_scaling();
    if (prev_bytes >= 0.0) {
      EXPECT_GE(s.halo_bytes_per_step, prev_bytes) << "width " << width;
      if (s.halo_bytes_per_step > prev_bytes) {
        EXPECT_GT(s.halo_seconds, prev_seconds) << "width " << width;
      } else {
        EXPECT_EQ(s.halo_seconds, prev_seconds) << "width " << width;
      }
    }
    prev_bytes = s.halo_bytes_per_step;
    prev_seconds = s.halo_seconds;
  }
}

// On a long chain the w-hop neighbourhood genuinely widens with every extra
// ghost layer, so the byte count — and with it the modeled comm time — must
// grow STRICTLY.
TEST(DecompositionComm, HaloSecondsGrowStrictlyOnAChain) {
  const auto lat = lattice::HypercubicLattice::chain(64);
  const auto h = lattice::build_tight_binding_crs(lat);
  linalg::MatrixOperator op(h);
  const auto ht = linalg::rescale(h, linalg::make_spectral_transform(op));
  const linalg::MatrixOperator op_t(ht);

  MomentParams p;
  p.num_moments = 16;
  p.random_vectors = 2;
  p.realizations = 2;

  double prev_bytes = 0.0, prev_seconds = 0.0;
  for (std::size_t width = 1; width <= 4; ++width) {
    ClusterEngineConfig cfg;
    cfg.decomposition = linalg::Decomposition::uniform(64, 4, width);
    ClusterMomentEngine cluster(cfg);
    (void)cluster.compute(op_t, p);
    const auto& s = cluster.last_scaling();
    EXPECT_GT(s.halo_bytes_per_step, prev_bytes) << "width " << width;
    EXPECT_GT(s.halo_seconds, prev_seconds) << "width " << width;
    prev_bytes = s.halo_bytes_per_step;
    prev_seconds = s.halo_seconds;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, DecompositionSweep,
    ::testing::Values(
        DecompositionCase{"uniform1", linalg::Decomposition::uniform(64, 1)},
        DecompositionCase{"uniform2", linalg::Decomposition::uniform(64, 2)},
        DecompositionCase{"uniform3", linalg::Decomposition::uniform(64, 3)},
        DecompositionCase{"uniform8", linalg::Decomposition::uniform(64, 8)},
        DecompositionCase{"uneven", linalg::Decomposition(64, {{0, 5}, {5, 40}, {40, 64}})},
        DecompositionCase{"lopsided",
                          linalg::Decomposition(64, {{0, 56}, {56, 60}, {60, 64}})},
        DecompositionCase{"slab4",
                          lattice::slab_decomposition(
                              lattice::HypercubicLattice::cubic(4, 4, 4), 4)}),
    [](const auto& info) { return info.param.label; });

}  // namespace

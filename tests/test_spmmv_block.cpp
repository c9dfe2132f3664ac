// Blocked (SpMMV) recursion tests: every kernel and every engine must be
// BIT-identical to its per-vector twin for any block width, on CRS and
// SELL-C-sigma storage, at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/error.hpp"
#include "core/conductivity.hpp"
#include "core/estimator_stats.hpp"
#include "core/ldos.hpp"
#include "core/moments_cpu.hpp"
#include "core/moments_f32.hpp"
#include "core/moments_hermitian.hpp"
#include "lattice/current.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "lattice/peierls.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/decomposition.hpp"
#include "linalg/operator.hpp"
#include "linalg/sell_matrix.hpp"
#include "linalg/shard.hpp"
#include "linalg/spectral_transform.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"

namespace {

using kpm::core::MomentParams;
using kpm::linalg::CrsMatrix;
using kpm::linalg::MatrixOperator;
using kpm::linalg::SellMatrix;
using kpm::linalg::TripletBuilder;

double wiggle(std::size_t i) {
  return std::sin(static_cast<double>(i) * 2.414213562373095 + 0.5) * 1.25;
}

/// Sparse square matrix with irregular row lengths (some rows empty).
CrsMatrix sparse_example(std::size_t d) {
  TripletBuilder b(d, d);
  for (std::size_t r = 0; r < d; ++r) {
    if (r % 5 == 4) continue;
    b.add(r, r, wiggle(r + 1));
    b.add(r, (r * 3 + 1) % d, wiggle(2 * r + 3));
    if (r % 2 == 0) b.add(r, (r + 7) % d, wiggle(4 * r + 1));
  }
  return b.build();
}

CrsMatrix cube_h_tilde(std::size_t edge = 4) {
  const auto lat = kpm::lattice::HypercubicLattice::cubic(edge, edge, edge);
  const auto h = kpm::lattice::build_tight_binding_crs(lat);
  MatrixOperator op(h);
  return kpm::linalg::rescale(h, kpm::linalg::make_spectral_transform(op));
}

/// x_blk[i*B + j] = member_j[i] — the interleaved layout of the kernels.
std::vector<double> interleave(const std::vector<std::vector<double>>& members) {
  const std::size_t b = members.size(), d = members[0].size();
  std::vector<double> blk(d * b);
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = 0; i < d; ++i) blk[i * b + j] = members[j][i];
  return blk;
}

/// Block widths every kernel test sweeps: each compile-time table width
/// (1, 2, 4, 8, 16, 32), runtime widths between them, and the wide blocks
/// 33 (a 32-member tile plus a 1-member rest) and 64 (two 32-member tiles).
constexpr std::size_t kWidths[] = {1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64};

MomentParams small_params(std::size_t n, std::size_t r, std::size_t s) {
  MomentParams p;
  p.num_moments = n;
  p.random_vectors = r;
  p.realizations = s;
  return p;
}

// ---------------------------------------------------------------------------
// Kernel level.

TEST(SpmmvKernels, BlockDotMatchesPerMemberDot) {
  const std::size_t d = 29;
  for (const std::size_t b : kWidths) {
    std::vector<std::vector<double>> xs(b, std::vector<double>(d)), ys = xs;
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < d; ++i) {
        xs[j][i] = wiggle(i * b + j + 1);
        ys[j][i] = wiggle(2 * i * b + 3 * j + 5);
      }
    const auto xb = interleave(xs), yb = interleave(ys);
    std::vector<double> dots(b);
    kpm::linalg::block_dot(xb, yb, b, dots);
    for (std::size_t j = 0; j < b; ++j)
      EXPECT_EQ(dots[j], kpm::linalg::dot(xs[j], ys[j])) << "B=" << b << " member " << j;
  }
}

TEST(SpmmvKernels, MultiplyMatchesPerVectorBitwise) {
  const auto crs = sparse_example(23);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  const auto dense = crs.to_dense();
  const std::size_t d = crs.rows();
  for (const std::size_t b : kWidths) {
    std::vector<std::vector<double>> xs(b, std::vector<double>(d));
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < d; ++i) xs[j][i] = wiggle(i * b + 7 * j + 2);
    const auto xb = interleave(xs);
    std::vector<double> expect(d);
    for (const MatrixOperator& op :
         {MatrixOperator(crs), MatrixOperator(sell), MatrixOperator(dense)}) {
      std::vector<double> yb(d * b);
      kpm::linalg::spmmv_multiply(op, b, xb, yb);
      for (std::size_t j = 0; j < b; ++j) {
        op.multiply(xs[j], expect);
        for (std::size_t i = 0; i < d; ++i)
          EXPECT_EQ(yb[i * b + j], expect[i])
              << kpm::linalg::to_string(op.storage()) << " B=" << b << " member " << j;
      }
    }
  }
}

TEST(SpmmvKernels, CombineDotMatchesPerVectorBitwise) {
  const auto crs = sparse_example(23);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  const auto dense = crs.to_dense();
  const std::size_t d = crs.rows();
  for (const std::size_t b : kWidths) {
    std::vector<std::vector<double>> prevs(b, std::vector<double>(d)), prev2s = prevs,
                                     r0s = prevs;
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < d; ++i) {
        prevs[j][i] = wiggle(i * b + j + 2);
        prev2s[j][i] = wiggle(3 * (i * b + j) + 5);
        r0s[j][i] = wiggle(7 * (i * b + j) + 1);
      }
    const auto prev_b = interleave(prevs), prev2_b = interleave(prev2s), r0_b = interleave(r0s);
    for (const MatrixOperator& op :
         {MatrixOperator(crs), MatrixOperator(sell), MatrixOperator(dense)}) {
      const auto storage = kpm::linalg::to_string(op.storage());
      std::vector<double> next_b(d * b), dots(b), expect_next(d);
      kpm::linalg::spmmv_combine_dot(op, b, prev_b, prev2_b, r0_b, next_b, dots);
      for (std::size_t j = 0; j < b; ++j) {
        const double mu =
            kpm::linalg::spmv_combine_dot(op, prevs[j], prev2s[j], r0s[j], expect_next);
        EXPECT_EQ(dots[j], mu) << storage << " B=" << b << " member " << j;
        for (std::size_t i = 0; i < d; ++i)
          EXPECT_EQ(next_b[i * b + j], expect_next[i]) << storage << " B=" << b << " i=" << i;
      }
    }
  }
}

TEST(SpmmvKernels, CombineDot2MatchesPerVectorBitwise) {
  const auto crs = sparse_example(23);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  const auto dense = crs.to_dense();
  const std::size_t d = crs.rows();
  for (const std::size_t b : kWidths) {
    std::vector<std::vector<double>> prevs(b, std::vector<double>(d)), prev2s = prevs;
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < d; ++i) {
        prevs[j][i] = wiggle(5 * (i * b + j) + 2);
        prev2s[j][i] = wiggle(11 * (i * b + j) + 3);
      }
    const auto prev_b = interleave(prevs), prev2_b = interleave(prev2s);
    for (const MatrixOperator& op :
         {MatrixOperator(crs), MatrixOperator(sell), MatrixOperator(dense)}) {
      const auto storage = kpm::linalg::to_string(op.storage());
      std::vector<double> next_b(d * b), expect_next(d);
      std::vector<kpm::linalg::PairedDots> dots(b);
      kpm::linalg::spmmv_combine_dot2(op, b, prev_b, prev2_b, next_b, dots);
      for (std::size_t j = 0; j < b; ++j) {
        const auto expect =
            kpm::linalg::spmv_combine_dot2(op, prevs[j], prev2s[j], expect_next);
        EXPECT_EQ(dots[j].next_prev, expect.next_prev) << storage << " B=" << b << " member " << j;
        EXPECT_EQ(dots[j].prev_prev, expect.prev_prev) << storage << " B=" << b << " member " << j;
        for (std::size_t i = 0; i < d; ++i)
          EXPECT_EQ(next_b[i * b + j], expect_next[i]) << storage << " B=" << b << " i=" << i;
      }
    }
  }
}

TEST(SpmmvKernels, ComplexCombineDotReMatchesPerVectorBitwise) {
  const auto h = kpm::lattice::build_square_flux_crs(4, 4, 0.25);
  const kpm::linalg::SpectralTransform t(h.gershgorin(), 0.02);
  const auto ht = kpm::linalg::rescale(h, t);
  const std::size_t d = ht.rows();
  using Z = std::complex<double>;
  for (const std::size_t b : kWidths) {
    std::vector<std::vector<Z>> prevs(b, std::vector<Z>(d)), prev2s = prevs, r0s = prevs;
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < d; ++i) {
        prevs[j][i] = Z(wiggle(i * b + j + 2), wiggle(i * b + j + 9));
        prev2s[j][i] = Z(wiggle(3 * (i * b + j) + 5), wiggle(i * b + j + 4));
        r0s[j][i] = Z(wiggle(7 * (i * b + j) + 1), wiggle(i * b + j + 6));
      }
    std::vector<Z> prev_b(d * b), prev2_b(d * b), r0_b(d * b), next_b(d * b), expect_next(d);
    for (std::size_t j = 0; j < b; ++j)
      for (std::size_t i = 0; i < d; ++i) {
        prev_b[i * b + j] = prevs[j][i];
        prev2_b[i * b + j] = prev2s[j][i];
        r0_b[i * b + j] = r0s[j][i];
      }
    std::vector<double> dots(b);
    kpm::linalg::spmmv_combine_dot_re(ht, b, prev_b, prev2_b, r0_b, next_b, dots);
    for (std::size_t j = 0; j < b; ++j) {
      const double mu =
          kpm::linalg::spmv_combine_dot_re(ht, prevs[j], prev2s[j], r0s[j], expect_next);
      EXPECT_EQ(dots[j], mu) << "B=" << b << " member " << j;
      for (std::size_t i = 0; i < d; ++i)
        EXPECT_EQ(next_b[i * b + j], expect_next[i]) << "B=" << b << " i=" << i;
    }
  }
}

// The sharded cluster engine's shard-local blocked multiply runs the same
// row body on each shard's rectangular [ghosts | owned] matrix: its rows
// must equal the unsharded kernel's owned rows bit-for-bit at every width.
TEST(SpmmvKernels, ShardMultiplyBlockMatchesUnshardedKernel) {
  const auto crs = sparse_example(23);
  const std::size_t d = crs.rows();
  const MatrixOperator op(crs);
  for (const auto storage : {kpm::linalg::Storage::Crs, kpm::linalg::Storage::Sell}) {
    const kpm::linalg::ShardedMatrix sm(op, kpm::linalg::Decomposition::uniform(d, 3), storage);
    for (const std::size_t b : kWidths) {
      std::vector<double> x(d * b), y(d * b);
      for (std::size_t i = 0; i < d * b; ++i) x[i] = wiggle(3 * i + 1);
      kpm::linalg::spmmv_multiply(op, b, x, y);
      for (std::size_t p = 0; p < sm.nodes(); ++p) {
        const auto& s = sm.shard(p);
        // Working vector: owned rows after the left ghosts, ghosts at their slots.
        std::vector<double> work(s.working_size() * b), local(s.local_rows() * b);
        for (std::size_t lr = 0; lr < s.local_rows(); ++lr)
          for (std::size_t j = 0; j < b; ++j)
            work[(s.owned_offset() + lr) * b + j] = x[(s.row_begin + lr) * b + j];
        for (std::size_t g = 0; g < s.ghost_rows.size(); ++g)
          for (std::size_t j = 0; j < b; ++j)
            work[s.ghost_position(g) * b + j] =
                x[static_cast<std::size_t>(s.ghost_rows[g]) * b + j];
        sm.shard_multiply_block(p, b, work, local);
        for (std::size_t k = 0; k < local.size(); ++k)
          EXPECT_EQ(local[k], y[s.row_begin * b + k])
              << kpm::linalg::to_string(storage) << " B=" << b << " shard " << p;
      }
    }
  }
}

TEST(SpmmvKernels, RejectsAliasedAndMalformedBlocks) {
  const auto crs = sparse_example(12);
  const std::size_t d = 12, b = 2;
  MatrixOperator op(crs);
  std::vector<double> prev(d * b, 1.0), prev2(d * b, 1.0), r0(d * b, 1.0), next(d * b),
      dots(b);
  // Aliased outputs must throw (KPM_REQUIRE regressions).
  EXPECT_THROW(kpm::linalg::spmmv_combine_dot(op, b, prev, prev2, r0, prev, dots), kpm::Error);
  EXPECT_THROW(kpm::linalg::spmmv_combine_dot(op, b, prev, prev2, r0, prev2, dots), kpm::Error);
  EXPECT_THROW(kpm::linalg::spmmv_multiply(op, b, prev, prev), kpm::Error);
  // Wrong block-span or dots sizes must throw.
  std::vector<double> short_vec(d * b - 1, 1.0), short_dots(b - 1);
  EXPECT_THROW(kpm::linalg::spmmv_combine_dot(op, b, short_vec, prev2, r0, next, dots),
               kpm::Error);
  EXPECT_THROW(kpm::linalg::spmmv_combine_dot(op, b, prev, prev2, r0, next, short_dots),
               kpm::Error);
  EXPECT_THROW(kpm::linalg::spmmv_multiply(op, b, short_vec, next), kpm::Error);
  // block = 0 is invalid.
  EXPECT_THROW(kpm::linalg::spmmv_multiply(op, 0, prev, next), kpm::Error);
}

// ---------------------------------------------------------------------------
// Engine level: params.block_r must not change any result bit.

TEST(BlockedEngines, ReferenceEngineIsBlockInvariant) {
  const auto crs = cube_h_tilde();
  const auto sell = SellMatrix::from_crs(crs, 8, 32);
  // Odd N; 37 instances give full groups at every table width up to 32
  // (4 x 8, 2 x 16, 1 x 32) plus a ragged tail, which runs at a runtime width.
  auto params = small_params(33, 37, 1);
  kpm::core::CpuMomentEngine engine;
  params.block_r = 1;
  const auto reference = engine.compute(MatrixOperator(crs), params);
  for (const std::size_t b : {2u, 3u, 4u, 6u, 8u, 16u, 32u}) {
    params.block_r = b;
    for (const MatrixOperator& op : {MatrixOperator(crs), MatrixOperator(sell)}) {
      const auto blocked = engine.compute(op, params);
      ASSERT_EQ(blocked.mu.size(), reference.mu.size());
      for (std::size_t k = 0; k < reference.mu.size(); ++k)
        EXPECT_EQ(blocked.mu[k], reference.mu[k])
            << kpm::linalg::to_string(op.storage()) << " B=" << b << " k=" << k;
    }
  }
}

TEST(BlockedEngines, PairedEngineIsBlockInvariant) {
  const auto crs = cube_h_tilde();
  auto params = small_params(32, 5, 1);
  kpm::core::CpuPairedMomentEngine engine;
  params.block_r = 1;
  const auto reference = engine.compute(MatrixOperator(crs), params);
  for (const std::size_t b : {2u, 3u, 5u}) {
    params.block_r = b;
    const auto blocked = engine.compute(MatrixOperator(crs), params);
    for (std::size_t k = 0; k < reference.mu.size(); ++k)
      EXPECT_EQ(blocked.mu[k], reference.mu[k]) << "B=" << b << " k=" << k;
  }
}

TEST(BlockedEngines, ParallelEngineIsBlockAndThreadInvariant) {
  const auto crs = cube_h_tilde();
  auto params = small_params(24, 10, 1);
  params.block_r = 1;
  kpm::core::CpuMomentEngine serial;
  const auto reference = serial.compute(MatrixOperator(crs), params);
  params.block_r = 3;  // 10 instances -> groups of 3,3,3,1
  for (const int threads : {1, 2, 4, 7}) {
    kpm::core::CpuParallelMomentEngine engine(threads);
    const auto blocked = engine.compute(MatrixOperator(crs), params);
    for (std::size_t k = 0; k < reference.mu.size(); ++k)
      EXPECT_EQ(blocked.mu[k], reference.mu[k]) << "T=" << threads << " k=" << k;
  }
}

TEST(BlockedEngines, F32EngineIsBlockInvariant) {
  const auto crs = cube_h_tilde();
  auto params = small_params(24, 5, 1);
  kpm::core::CpuMomentEngineF32 engine;
  params.block_r = 1;
  const auto reference = engine.compute(MatrixOperator(crs), params);
  for (const std::size_t b : {2u, 5u}) {
    params.block_r = b;
    const auto blocked = engine.compute(MatrixOperator(crs), params);
    for (std::size_t k = 0; k < reference.mu.size(); ++k)
      EXPECT_EQ(blocked.mu[k], reference.mu[k]) << "B=" << b << " k=" << k;
  }
}

TEST(BlockedEngines, HermitianEngineIsBlockInvariant) {
  const auto h = kpm::lattice::build_square_flux_crs(4, 4, 0.25);
  const kpm::linalg::SpectralTransform t(h.gershgorin(), 0.02);
  const auto ht = kpm::linalg::rescale(h, t);
  auto params = small_params(16, 5, 1);
  kpm::core::HermitianMomentEngine engine;
  params.block_r = 1;
  const auto reference = engine.compute(ht, params);
  for (const std::size_t b : {2u, 5u}) {
    params.block_r = b;
    const auto blocked = engine.compute(ht, params);
    for (std::size_t k = 0; k < reference.mu.size(); ++k)
      EXPECT_EQ(blocked.mu[k], reference.mu[k]) << "B=" << b << " k=" << k;
  }
}

TEST(BlockedEngines, DeterministicTracesAreBlockInvariant) {
  const auto crs = cube_h_tilde(3);
  MatrixOperator op(crs);
  const auto reference = kpm::core::deterministic_trace_moments(op, 12, 1);
  for (const std::size_t b : {2u, 5u, 27u, 32u}) {
    const auto blocked = kpm::core::deterministic_trace_moments(op, 12, b);
    for (std::size_t k = 0; k < reference.size(); ++k)
      EXPECT_EQ(blocked[k], reference[k]) << "B=" << b << " k=" << k;
  }

  const auto h = kpm::lattice::build_square_flux_crs(4, 4, 0.25);
  const kpm::linalg::SpectralTransform t(h.gershgorin(), 0.02);
  const auto ht = kpm::linalg::rescale(h, t);
  const auto ref_z = kpm::core::deterministic_trace_moments_hermitian(ht, 10, 1);
  for (const std::size_t b : {3u, 16u}) {
    const auto blocked = kpm::core::deterministic_trace_moments_hermitian(ht, 10, b);
    for (std::size_t k = 0; k < ref_z.size(); ++k)
      EXPECT_EQ(blocked[k], ref_z[k]) << "B=" << b << " k=" << k;
  }
}

TEST(BlockedEngines, EstimatorStatisticsAreBlockInvariant) {
  const auto crs = cube_h_tilde(3);
  MatrixOperator op(crs);
  auto params = small_params(12, 4, 2);
  params.block_r = 1;
  const auto reference = kpm::core::estimate_moment_statistics(op, params, 7);
  for (const std::size_t b : {2u, 3u, 7u}) {
    params.block_r = b;
    const auto blocked = kpm::core::estimate_moment_statistics(op, params, 7);
    for (std::size_t k = 0; k < reference.mean.size(); ++k) {
      EXPECT_EQ(blocked.mean[k], reference.mean[k]) << "B=" << b << " k=" << k;
      EXPECT_EQ(blocked.standard_error[k], reference.standard_error[k]);
    }
  }
}

TEST(BlockedEngines, ConductivityIsBlockInvariant) {
  const auto lat = kpm::lattice::HypercubicLattice::square(4, 4);
  const auto h = kpm::lattice::build_tight_binding_crs(lat);
  MatrixOperator raw(h);
  const auto ht = kpm::linalg::rescale(h, kpm::linalg::make_spectral_transform(raw));
  const auto a = kpm::lattice::build_current_operator_crs(lat, 0);
  MatrixOperator h_op(ht), a_op(a);
  auto params = small_params(8, 5, 1);
  params.block_r = 1;
  const auto reference = kpm::core::conductivity_moments(h_op, a_op, params);
  for (const std::size_t b : {2u, 3u, 5u}) {
    params.block_r = b;
    const auto blocked = kpm::core::conductivity_moments(h_op, a_op, params);
    for (std::size_t k = 0; k < reference.mu.size(); ++k)
      EXPECT_EQ(blocked.mu[k], reference.mu[k]) << "B=" << b << " k=" << k;
  }
}

// The blocked fused kernels must keep metering the exact fused-step model:
// FusedBytes for one blocked call equals fused_step_workload(op, dots, B)
// bytes (test_golden_metrics checks the scalar path byte-for-byte).
TEST(BlockedEngines, BlockedFusedMeteringMatchesWorkloadModel) {
  const auto crs = cube_h_tilde(3);
  MatrixOperator op(crs);
  const std::size_t d = op.dim(), b = 4;
  std::vector<double> prev(d * b), prev2(d * b), r0(d * b), next(d * b), dots(b);
  for (std::size_t i = 0; i < d * b; ++i) {
    prev[i] = wiggle(i + 1);
    prev2[i] = wiggle(2 * i + 3);
    r0[i] = wiggle(3 * i + 2);
  }
  kpm::obs::Report report;
  {
    kpm::obs::Collect collect(report);
    kpm::linalg::spmmv_combine_dot(op, b, prev, prev2, r0, next, dots);
  }
  const auto step = kpm::core::fused_step_workload(op, 1, b);
  EXPECT_EQ(report.counters.get(kpm::obs::Counter::FusedBytes), step.bytes_streamed);
  EXPECT_EQ(report.counters.get(kpm::obs::Counter::Flops), step.flops);
  EXPECT_EQ(report.counters.get(kpm::obs::Counter::FusedCalls), 1.0);
  EXPECT_EQ(report.counters.get(kpm::obs::Counter::SpmvCalls), static_cast<double>(b));
  EXPECT_EQ(report.counters.get(kpm::obs::Counter::DotCalls), static_cast<double>(b));
}

}  // namespace

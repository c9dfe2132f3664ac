// Blocked (SpMMV) recursion tests: every kernel and every engine must be
// BIT-identical, for any block width B (B = 1 included), on CRS and
// SELL-C-sigma storage and at any thread count, to the unfused per-vector
// sequence: multiply + chebyshev_combine + dot, run one vector at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/packs.hpp"
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

/// Every width of kWidths under each pack body of the real kernels: the
/// Double2 body (avx2 = false), then the host's choice, which is the
/// Double4 body on an AVX2 host.
std::vector<std::pair<bool, std::size_t>> pack_body_widths() {
  std::vector<std::pair<bool, std::size_t>> cases;
  for (const bool avx2 : {false, true})
    for (const std::size_t b : kWidths) cases.emplace_back(avx2, b);
  return cases;
}

/// Names the pack body a ScopedAvx2Packs(avx2) guard selected, after
/// checking that it is the one the guard and the CPU call for.
std::string pack_body(bool avx2) {
#if KPM_AVX2_PACKS
  EXPECT_EQ(kpm::avx2_packs(), avx2 && __builtin_cpu_supports("avx2"));
#else
  EXPECT_FALSE(kpm::avx2_packs());
#endif
  return kpm::avx2_packs() ? "avx2 body" : "sse2 body";
}

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
  for (const auto& [avx2, b] : pack_body_widths()) {
    const kpm::detail::ScopedAvx2Packs packs(avx2);
    SCOPED_TRACE(pack_body(avx2));
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
  for (const auto& [avx2, b] : pack_body_widths()) {
    const kpm::detail::ScopedAvx2Packs packs(avx2);
    SCOPED_TRACE(pack_body(avx2));
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
  for (const auto& [avx2, b] : pack_body_widths()) {
    const kpm::detail::ScopedAvx2Packs packs(avx2);
    SCOPED_TRACE(pack_body(avx2));
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
        op.multiply(prevs[j], expect_next);
        kpm::linalg::chebyshev_combine(expect_next, prev2s[j], expect_next);
        const double mu = kpm::linalg::dot(r0s[j], expect_next);
        EXPECT_EQ(dots[j], mu) << storage << " B=" << b << " member " << j;
        for (std::size_t i = 0; i < d; ++i)
          EXPECT_EQ(next_b[i * b + j], expect_next[i]) << storage << " B=" << b << " i=" << i;
      }
      if (b == 1) {  // the one-vector wrapper is the same B = 1 pass
        std::vector<double> next(d);
        EXPECT_EQ(kpm::linalg::spmv_combine_dot(op, prev_b, prev2_b, r0_b, next), dots[0]);
        EXPECT_EQ(next, next_b) << storage;
      }
    }
  }
}

TEST(SpmmvKernels, CombineDot2MatchesPerVectorBitwise) {
  const auto crs = sparse_example(23);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  const auto dense = crs.to_dense();
  const std::size_t d = crs.rows();
  for (const auto& [avx2, b] : pack_body_widths()) {
    const kpm::detail::ScopedAvx2Packs packs(avx2);
    SCOPED_TRACE(pack_body(avx2));
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
        op.multiply(prevs[j], expect_next);
        kpm::linalg::chebyshev_combine(expect_next, prev2s[j], expect_next);
        const double np = kpm::linalg::dot(expect_next, prevs[j]);
        const double pp = kpm::linalg::dot(prevs[j], prevs[j]);
        EXPECT_EQ(dots[j].next_prev, np) << storage << " B=" << b << " member " << j;
        EXPECT_EQ(dots[j].prev_prev, pp) << storage << " B=" << b << " member " << j;
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
      ht.multiply(prevs[j], expect_next);
      double mu = 0.0;  // Re<r0|r_next>, single-lane left fold
      for (std::size_t i = 0; i < d; ++i) {
        expect_next[i] = 2.0 * expect_next[i] - prev2s[j][i];
        mu += (std::conj(r0s[j][i]) * expect_next[i]).real();
      }
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
// Engine level: at every B, 1 included, each engine must reproduce bit for
// bit the test-local unfused recursions below, which run the paper's Fig. 3
// loop in the engine's scalar type one start vector at a time.

using Z = std::complex<double>;

/// One start vector's moment row mu~_k = <r0|T_k(H~) r0> from multiply +
/// chebyshev_combine + dot.
std::vector<double> unfused_row(const MatrixOperator& op, const std::vector<double>& r0,
                                std::size_t n) {
  std::vector<double> row(n, 0.0), prev2 = r0, prev(r0.size()), next(r0.size());
  row[0] = kpm::linalg::dot(r0, r0);
  op.multiply(r0, prev);
  if (n > 1) row[1] = kpm::linalg::dot(r0, prev);
  for (std::size_t k = 2; k < n; ++k) {
    op.multiply(prev, next);
    kpm::linalg::chebyshev_combine(next, prev2, next);
    row[k] = kpm::linalg::dot(r0, next);
    std::swap(prev2, prev);
    std::swap(prev, next);
  }
  return row;
}

/// The paired row: mu~_{2k} = 2<r_k|r_k> - mu~_0, mu~_{2k+1} = 2<r_{k+1}|r_k> - mu~_1.
std::vector<double> unfused_paired_row(const MatrixOperator& op, const std::vector<double>& r0,
                                       std::size_t n) {
  std::vector<double> row(n, 0.0), prev2 = r0, prev(r0.size()), next(r0.size());
  const double mu0 = kpm::linalg::dot(r0, r0);
  op.multiply(r0, prev);
  const double mu1 = kpm::linalg::dot(r0, prev);
  row[0] = mu0;
  if (n > 1) row[1] = mu1;
  for (std::size_t k = 1; 2 * k < n; ++k) {
    op.multiply(prev, next);
    kpm::linalg::chebyshev_combine(next, prev2, next);
    row[2 * k] = 2.0 * kpm::linalg::dot(prev, prev) - mu0;
    if (2 * k + 1 < n) row[2 * k + 1] = 2.0 * kpm::linalg::dot(next, prev) - mu1;
    std::swap(prev2, prev);
    std::swap(prev, next);
  }
  return row;
}

/// Binary32 row on the narrowed CRS values: float SpMV, combine and
/// left-fold dots, each dot widened to double.
std::vector<double> unfused_row_f32(const CrsMatrix& a, const std::vector<double>& start,
                                    std::size_t n) {
  const std::size_t d = start.size();
  const auto spmv = [&](const std::vector<float>& x, std::vector<float>& y) {
    for (std::size_t r = 0; r < d; ++r) {
      float acc = 0.0f;
      for (auto k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        acc += static_cast<float>(a.values()[kk]) *
               x[static_cast<std::size_t>(a.col_idx()[kk])];
      }
      y[r] = acc;
    }
  };
  const auto dot = [](const std::vector<float>& x, const std::vector<float>& y) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
    return static_cast<double>(acc);
  };
  std::vector<float> r0(d), prev(d), next(d);
  for (std::size_t i = 0; i < d; ++i) r0[i] = static_cast<float>(start[i]);
  std::vector<float> prev2 = r0;
  std::vector<double> row(n, 0.0);
  row[0] = dot(r0, r0);
  spmv(r0, prev);
  if (n > 1) row[1] = dot(r0, prev);
  for (std::size_t k = 2; k < n; ++k) {
    spmv(prev, next);
    for (std::size_t i = 0; i < d; ++i) next[i] = 2.0f * next[i] - prev2[i];
    row[k] = dot(r0, next);
    std::swap(prev2, prev);
    std::swap(prev, next);
  }
  return row;
}

/// Complex row: CrsMatrixZ::multiply, 2 hx - prev2 and a left-fold
/// Re<r0|r_k>.
std::vector<double> unfused_row_z(const kpm::linalg::CrsMatrixZ& h, const std::vector<Z>& r0,
                                  std::size_t n) {
  const auto dot_re = [&](const std::vector<Z>& v) {
    double acc = 0.0;
    for (std::size_t i = 0; i < r0.size(); ++i) acc += (std::conj(r0[i]) * v[i]).real();
    return acc;
  };
  std::vector<double> row(n, 0.0);
  row[0] = dot_re(r0);
  if (n == 1) return row;
  std::vector<Z> prev2 = r0, prev(r0.size()), next(r0.size());
  h.multiply(r0, prev);
  row[1] = dot_re(prev);
  for (std::size_t k = 2; k < n; ++k) {
    h.multiply(prev, next);
    for (std::size_t i = 0; i < r0.size(); ++i) next[i] = 2.0 * next[i] - prev2[i];
    row[k] = dot_re(next);
    std::swap(prev2, prev);
    std::swap(prev, next);
  }
  return row;
}

/// The engines' reduction: rows of start vectors 0 .. count - 1 summed in
/// order, then divided by `denom`.
template <typename RowOf>
std::vector<double> summed_rows(std::size_t count, double denom, RowOf&& row_of) {
  std::vector<double> mu;
  for (std::size_t inst = 0; inst < count; ++inst) {
    const std::vector<double> row = row_of(inst);
    if (mu.empty()) mu.assign(row.size(), 0.0);
    for (std::size_t k = 0; k < row.size(); ++k) mu[k] += row[k];
  }
  for (double& m : mu) m /= denom;
  return mu;
}

std::vector<double> random_start(const MomentParams& p, std::size_t d, std::size_t inst) {
  std::vector<double> r0(d);
  kpm::core::fill_random_vector(p, inst, r0);
  return r0;
}

std::vector<double> unit_start(std::size_t d, std::size_t site) {
  std::vector<double> e(d, 0.0);
  e[site] = 1.0;
  return e;
}

/// Complex copy of a real start vector (the Hermitian paths' start vectors).
std::vector<Z> complex_start(const std::vector<double>& r) {
  return std::vector<Z>(r.begin(), r.end());
}

/// Unfused average over all p.instances() random vectors.
template <typename RowFn>
std::vector<double> unfused_moments(const MomentParams& p, std::size_t d, RowFn&& row_fn) {
  const std::size_t count = p.instances();
  return summed_rows(count, static_cast<double>(d) * static_cast<double>(count),
                     [&](std::size_t inst) { return row_fn(random_start(p, d, inst)); });
}

void expect_same(const std::vector<double>& got, const std::vector<double>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k) EXPECT_EQ(got[k], want[k]) << what << " k=" << k;
}

TEST(BlockedEngines, ReferenceEngineIsBlockInvariant) {
  const auto crs = cube_h_tilde();
  const auto sell = SellMatrix::from_crs(crs, 8, 32);
  // Odd N; 37 instances give full groups at every table width up to 32
  // (4 x 8, 2 x 16, 1 x 32) plus a ragged tail, which runs at a runtime width.
  auto params = small_params(33, 37, 1);
  const MatrixOperator crs_op(crs);
  const auto reference = unfused_moments(
      params, crs.rows(), [&](const auto& r0) { return unfused_row(crs_op, r0, 33); });
  kpm::core::CpuMomentEngine engine;
  for (const std::size_t b : {1u, 2u, 3u, 4u, 6u, 8u, 16u, 32u}) {
    params.block_r = b;
    for (const MatrixOperator& op : {MatrixOperator(crs), MatrixOperator(sell)})
      expect_same(engine.compute(op, params).mu, reference,
                  std::string(kpm::linalg::to_string(op.storage())) + " B=" + std::to_string(b));
  }
}

TEST(BlockedEngines, PairedEngineIsBlockInvariant) {
  const auto crs = cube_h_tilde();
  const MatrixOperator op(crs);
  for (const std::size_t n : {32u, 33u}) {
    auto params = small_params(n, 5, 1);
    const auto reference = unfused_moments(
        params, crs.rows(), [&](const auto& r0) { return unfused_paired_row(op, r0, n); });
    kpm::core::CpuPairedMomentEngine engine;
    for (const std::size_t b : {1u, 2u, 3u, 5u}) {
      params.block_r = b;
      expect_same(engine.compute(op, params).mu, reference,
                  "N=" + std::to_string(n) + " B=" + std::to_string(b));
    }
  }
}

TEST(BlockedEngines, ParallelEngineIsBlockAndThreadInvariant) {
  const auto crs = cube_h_tilde();
  const MatrixOperator op(crs);
  auto params = small_params(24, 10, 1);
  const auto reference = unfused_moments(
      params, crs.rows(), [&](const auto& r0) { return unfused_row(op, r0, 24); });
  for (const std::size_t b : {1u, 3u}) {  // B = 3: 10 instances -> groups of 3,3,3,1
    params.block_r = b;
    for (const int threads : {1, 2, 4, 7}) {
      kpm::core::CpuParallelMomentEngine engine(threads);
      expect_same(engine.compute(op, params).mu, reference,
                  "B=" + std::to_string(b) + " T=" + std::to_string(threads));
    }
  }
}

TEST(BlockedEngines, F32EngineIsBlockInvariant) {
  const auto crs = cube_h_tilde();
  auto params = small_params(24, 5, 1);
  const auto reference = unfused_moments(
      params, crs.rows(), [&](const auto& r0) { return unfused_row_f32(crs, r0, 24); });
  kpm::core::CpuMomentEngineF32 engine;
  for (const std::size_t b : {1u, 2u, 5u}) {
    params.block_r = b;
    expect_same(engine.compute(MatrixOperator(crs), params).mu, reference,
                "B=" + std::to_string(b));
  }
}

TEST(BlockedEngines, HermitianEngineIsBlockInvariant) {
  const auto h = kpm::lattice::build_square_flux_crs(4, 4, 0.25);
  const kpm::linalg::SpectralTransform t(h.gershgorin(), 0.02);
  const auto ht = kpm::linalg::rescale(h, t);
  auto params = small_params(16, 5, 1);
  const auto reference = unfused_moments(params, ht.rows(), [&](const auto& r0) {
    return unfused_row_z(ht, complex_start(r0), 16);
  });
  kpm::core::HermitianMomentEngine engine;
  for (const std::size_t b : {1u, 2u, 5u}) {
    params.block_r = b;
    expect_same(engine.compute(ht, params).mu, reference, "B=" + std::to_string(b));
  }
}

TEST(BlockedEngines, DeterministicTracesAreBlockInvariant) {
  const auto crs = cube_h_tilde(3);
  MatrixOperator op(crs);
  const std::size_t d = crs.rows();
  const auto reference = summed_rows(d, static_cast<double>(d), [&](std::size_t site) {
    return unfused_row(op, unit_start(d, site), 12);
  });
  for (const std::size_t b : {1u, 2u, 5u, 27u, 32u})
    expect_same(kpm::core::deterministic_trace_moments(op, 12, b), reference,
                "B=" + std::to_string(b));
  for (const std::size_t site : {0u, 13u, 26u})
    expect_same(kpm::core::ldos_moments(op, site, 12), unfused_row(op, unit_start(d, site), 12),
                "site " + std::to_string(site));

  const auto h = kpm::lattice::build_square_flux_crs(4, 4, 0.25);
  const kpm::linalg::SpectralTransform t(h.gershgorin(), 0.02);
  const auto ht = kpm::linalg::rescale(h, t);
  const std::size_t dz = ht.rows();
  const auto ref_z = summed_rows(dz, static_cast<double>(dz), [&](std::size_t site) {
    return unfused_row_z(ht, complex_start(unit_start(dz, site)), 10);
  });
  for (const std::size_t b : {1u, 3u, 16u})
    expect_same(kpm::core::deterministic_trace_moments_hermitian(ht, 10, b), ref_z,
                "Hermitian B=" + std::to_string(b));
  expect_same(kpm::core::ldos_moments_hermitian(ht, 5, 10),
              unfused_row_z(ht, complex_start(unit_start(dz, 5)), 10), "Hermitian site 5");
}

TEST(BlockedEngines, EstimatorStatisticsAreBlockInvariant) {
  const auto crs = cube_h_tilde(3);
  MatrixOperator op(crs);
  const std::size_t d = crs.rows(), n = 12, instances = 7;
  auto params = small_params(n, 4, 2);
  // The estimator's own formula over unfused per-instance rows.
  std::vector<double> sum(n, 0.0), sum_sq(n, 0.0);
  for (std::size_t inst = 0; inst < instances; ++inst) {
    const auto row = unfused_row(op, random_start(params, d, inst), n);
    for (std::size_t k = 0; k < n; ++k) {
      const double v = row[k] / static_cast<double>(d);
      sum[k] += v;
      sum_sq[k] += v * v;
    }
  }
  const auto m = static_cast<double>(instances);
  std::vector<double> mean(n), standard_error(n);
  for (std::size_t k = 0; k < n; ++k) {
    mean[k] = sum[k] / m;
    const double var = std::max(0.0, sum_sq[k] / m - mean[k] * mean[k]);
    standard_error[k] = std::sqrt(var * m / (m - 1.0)) / std::sqrt(m);
  }
  for (const std::size_t b : {1u, 2u, 3u, 7u}) {
    params.block_r = b;
    const auto stats = kpm::core::estimate_moment_statistics(op, params, instances);
    expect_same(stats.mean, mean, "mean B=" + std::to_string(b));
    expect_same(stats.standard_error, standard_error, "standard error B=" + std::to_string(b));
  }
}

TEST(BlockedEngines, ConductivityIsBlockInvariant) {
  const auto lat = kpm::lattice::HypercubicLattice::square(4, 4);
  const auto h = kpm::lattice::build_tight_binding_crs(lat);
  MatrixOperator raw(h);
  const auto ht = kpm::linalg::rescale(h, kpm::linalg::make_spectral_transform(raw));
  const auto a = kpm::lattice::build_current_operator_crs(lat, 0);
  MatrixOperator h_op(ht), a_op(a);
  const std::size_t d = ht.rows(), n = 8;
  auto params = small_params(n, 5, 1);
  // Unfused reference per instance: beta_m = T_m(H~) A r stored, psi_k =
  // T_k(H~) r streamed, and mu[k*N + m] += (A psi_k) . beta_m (left fold).
  std::vector<double> reference(n * n, 0.0);
  for (std::size_t inst = 0; inst < params.instances(); ++inst) {
    const auto r0 = random_start(params, d, inst);
    std::vector<std::vector<double>> beta(n, std::vector<double>(d));
    a_op.multiply(r0, beta[0]);
    if (n > 1) h_op.multiply(beta[0], beta[1]);
    for (std::size_t m = 2; m < n; ++m) {
      h_op.multiply(beta[m - 1], beta[m]);
      kpm::linalg::chebyshev_combine(beta[m], beta[m - 2], beta[m]);
    }
    std::vector<double> w(d), prev2 = r0, prev(d), next(d);
    const auto add_row = [&](std::size_t k, const std::vector<double>& psi) {
      a_op.multiply(psi, w);
      for (std::size_t m = 0; m < n; ++m) {
        double acc = 0.0;
        for (std::size_t i = 0; i < d; ++i) acc += w[i] * beta[m][i];
        reference[k * n + m] += acc;
      }
    };
    add_row(0, prev2);
    h_op.multiply(prev2, prev);
    add_row(1, prev);
    for (std::size_t k = 2; k < n; ++k) {
      h_op.multiply(prev, next);
      kpm::linalg::chebyshev_combine(next, prev2, next);
      add_row(k, next);
      std::swap(prev2, prev);
      std::swap(prev, next);
    }
  }
  for (double& v : reference) v /= static_cast<double>(d) * static_cast<double>(params.instances());
  for (const std::size_t b : {1u, 2u, 3u, 5u}) {
    params.block_r = b;
    expect_same(kpm::core::conductivity_moments(h_op, a_op, params).mu, reference,
                "B=" + std::to_string(b));
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

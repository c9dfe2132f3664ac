// Unit tests for SellMatrix (SELL-C-sigma storage): layout invariants,
// CRS round-trips, and the bit-identity of every SELL compute path with
// its CRS twin.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/gershgorin.hpp"
#include "linalg/operator.hpp"
#include "linalg/sell_matrix.hpp"
#include "linalg/spectral_transform.hpp"
#include "linalg/vector_ops.hpp"

namespace {

using kpm::linalg::CrsMatrix;
using kpm::linalg::MatrixOperator;
using kpm::linalg::SellMatrix;
using kpm::linalg::TripletBuilder;

/// Deterministic awkward values so accumulation-order changes show up bitwise.
double wiggle(std::size_t i) {
  return std::sin(static_cast<double>(i) * 2.414213562373095 + 0.5) * 1.25;
}

/// Sparse square matrix with irregular row lengths (some rows empty) — the
/// shape SELL's sorting and padding have to cope with.
CrsMatrix sparse_example(std::size_t d) {
  TripletBuilder b(d, d);
  for (std::size_t r = 0; r < d; ++r) {
    if (r % 5 == 4) continue;  // leave some rows entirely empty
    b.add(r, r, wiggle(r + 1));
    b.add(r, (r * 3 + 1) % d, wiggle(2 * r + 3));
    if (r % 2 == 0) b.add(r, (r + 7) % d, wiggle(4 * r + 1));
    if (r % 7 == 0)
      for (std::size_t k = 0; k < 5; ++k) b.add(r, (r + 11 + k) % d, wiggle(9 * r + k));
  }
  return b.build();
}

CrsMatrix cube_h_tilde() {
  const auto lat = kpm::lattice::HypercubicLattice::cubic(4, 4, 4);
  const auto h = kpm::lattice::build_tight_binding_crs(lat);
  MatrixOperator op(h);
  return kpm::linalg::rescale(h, kpm::linalg::make_spectral_transform(op));
}

TEST(SellMatrix, RoundTripsToCrs) {
  const auto crs = sparse_example(23);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {4, 8}, {8, 8}, {32, 256}, {5, 7} /* C, sigma mutually awkward */, {1, 1}};
  for (const auto& [c, sigma] : shapes) {
    const auto sell = SellMatrix::from_crs(crs, c, sigma);
    const auto back = sell.to_crs();
    ASSERT_EQ(back.nnz(), crs.nnz()) << "C=" << c;
    for (std::size_t r = 0; r < crs.rows(); ++r)
      for (std::size_t j = 0; j < crs.cols(); ++j)
        EXPECT_EQ(back.at(r, j), crs.at(r, j)) << "C=" << c << " at " << r << "," << j;
  }
}

TEST(SellMatrix, LayoutInvariants) {
  const auto crs = sparse_example(23);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  EXPECT_EQ(sell.rows(), crs.rows());
  EXPECT_EQ(sell.nnz(), crs.nnz());
  EXPECT_EQ(sell.chunk_size(), 4u);
  EXPECT_EQ(sell.chunks(), 6u);  // ceil(23 / 4)
  EXPECT_GE(sell.fill_ratio(), 1.0);
  EXPECT_GE(sell.padded_entries(), sell.nnz());

  // perm and slot_of are inverse on logical rows; slots past rows() are
  // padding (perm -1, length 0).
  const auto perm = sell.perm();
  const auto slot_of = sell.slot_of();
  const auto row_len = sell.row_len();
  ASSERT_EQ(perm.size(), sell.chunks() * sell.chunk_size());
  ASSERT_EQ(slot_of.size(), sell.rows());
  for (std::size_t r = 0; r < sell.rows(); ++r) {
    const auto s = static_cast<std::size_t>(slot_of[r]);
    ASSERT_LT(s, perm.size());
    EXPECT_EQ(static_cast<std::size_t>(perm[s]), r);
  }
  for (std::size_t s = sell.rows(); s < perm.size(); ++s) {
    // Padding slots sit at the tail only when the last sort window is the
    // short one; all of them carry no row and no entries.
    if (perm[s] == -1) EXPECT_EQ(row_len[s], 0);
  }

  // Inside each chunk, slot lengths never increase (rows sorted by
  // descending nnz within the sigma window, which is a multiple of C here).
  for (std::size_t chunk = 0; chunk < sell.chunks(); ++chunk) {
    const std::size_t base = chunk * sell.chunk_size();
    for (std::size_t l = 1; l < sell.chunk_size(); ++l)
      EXPECT_LE(row_len[base + l], row_len[base + l - 1]) << "chunk " << chunk;
  }
}

TEST(SellMatrix, AtMatchesCrs) {
  const auto crs = sparse_example(17);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  for (std::size_t r = 0; r < crs.rows(); ++r)
    for (std::size_t c = 0; c < crs.cols(); ++c) EXPECT_EQ(sell.at(r, c), crs.at(r, c));
  EXPECT_EQ(sell.max_row_nnz(), crs.max_row_nnz());
}

TEST(SellMatrix, MultiplyIsBitIdenticalToCrs) {
  for (const auto& crs : {sparse_example(23), cube_h_tilde()}) {
    std::vector<double> x(crs.rows()), y_crs(crs.rows()), y_sell(crs.rows());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = wiggle(3 * i + 1);
    crs.multiply(x, y_crs);
    for (const std::size_t c : {1u, 4u, 7u, 32u}) {
      const auto sell = SellMatrix::from_crs(crs, c, 4 * c);
      sell.multiply(x, y_sell);
      for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(y_sell[i], y_crs[i]) << "C=" << c << " row " << i;
    }
  }
}

TEST(SellMatrix, GershgorinBoundsMatchCrs) {
  const auto crs = sparse_example(23);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  const auto b_crs = kpm::linalg::gershgorin_bounds(crs);
  const auto b_sell = kpm::linalg::gershgorin_bounds(sell);
  EXPECT_EQ(b_sell.lower, b_crs.lower);
  EXPECT_EQ(b_sell.upper, b_crs.upper);
}

TEST(SellMatrix, OperatorDispatch) {
  const auto crs = cube_h_tilde();
  const auto sell = SellMatrix::from_crs(crs, 8, 32);
  MatrixOperator op_crs(crs), op_sell(sell);
  EXPECT_EQ(op_sell.storage(), kpm::linalg::Storage::Sell);
  EXPECT_EQ(op_sell.dim(), op_crs.dim());
  EXPECT_EQ(op_sell.spmv_flops(), op_crs.spmv_flops());  // flops follow nnz, not padding

  std::vector<double> x(crs.rows()), y_crs(crs.rows()), y_sell(crs.rows());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = wiggle(5 * i + 2);
  op_crs.multiply(x, y_crs);
  op_sell.multiply(x, y_sell);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y_sell[i], y_crs[i]);

  // SELL streams the padded entry arrays plus its metadata.
  EXPECT_GE(op_sell.spmv_matrix_bytes(), sell.nnz() * (sizeof(double) + sizeof(SellMatrix::Index)));
}

TEST(SellFusedKernels, CombineDotMatchesCrsBitwise) {
  for (std::size_t d : {1u, 4u, 11u, 23u}) {
    const auto crs = sparse_example(d);
    const auto sell = SellMatrix::from_crs(crs, 4, 8);
    std::vector<double> r_prev(d), r_prev2(d), r0(d);
    for (std::size_t i = 0; i < d; ++i) {
      r_prev[i] = wiggle(i + 2);
      r_prev2[i] = wiggle(3 * i + 5);
      r0[i] = wiggle(7 * i + 1);
    }
    std::vector<double> next_crs(d), next_sell(d), mu_crs(1), mu_sell(1);
    kpm::linalg::spmmv_combine_dot(crs, 1, r_prev, r_prev2, r0, next_crs, mu_crs);
    kpm::linalg::spmmv_combine_dot(sell, 1, r_prev, r_prev2, r0, next_sell, mu_sell);
    EXPECT_EQ(mu_sell[0], mu_crs[0]) << "d=" << d;
    for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(next_sell[i], next_crs[i]);
  }
}

TEST(SellFusedKernels, CombineDot2MatchesCrsBitwise) {
  const std::size_t d = 23;
  const auto crs = sparse_example(d);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  std::vector<double> r_prev(d), r_prev2(d);
  for (std::size_t i = 0; i < d; ++i) {
    r_prev[i] = wiggle(5 * i + 2);
    r_prev2[i] = wiggle(11 * i + 3);
  }
  std::vector<double> next_crs(d), next_sell(d);
  std::vector<kpm::linalg::PairedDots> dots_crs(1), dots_sell(1);
  kpm::linalg::spmmv_combine_dot2(crs, 1, r_prev, r_prev2, next_crs, dots_crs);
  kpm::linalg::spmmv_combine_dot2(sell, 1, r_prev, r_prev2, next_sell, dots_sell);
  EXPECT_EQ(dots_sell[0].next_prev, dots_crs[0].next_prev);
  EXPECT_EQ(dots_sell[0].prev_prev, dots_crs[0].prev_prev);
  for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(next_sell[i], next_crs[i]);
}

TEST(SellMatrix, RejectsBadArguments) {
  const auto crs = sparse_example(8);
  EXPECT_THROW((void)SellMatrix::from_crs(crs, 0, 8), kpm::Error);
  EXPECT_THROW((void)SellMatrix::from_crs(crs, 4, 0), kpm::Error);
  const auto sell = SellMatrix::from_crs(crs, 4, 8);
  std::vector<double> x(8, 1.0), bad(5, 1.0);
  EXPECT_THROW(sell.multiply(x, x), kpm::Error);       // aliasing
  EXPECT_THROW(sell.multiply(bad, x), kpm::Error);     // size mismatch
}

}  // namespace

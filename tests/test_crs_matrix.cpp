// Unit tests for CrsMatrix, TripletBuilder and the fused recursion kernels
// on the CRS path.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/vector_ops.hpp"

namespace {

using kpm::linalg::CrsMatrix;
using kpm::linalg::dense_to_crs;
using kpm::linalg::DenseMatrix;
using kpm::linalg::TripletBuilder;

CrsMatrix small_example() {
  // [ 1 0 2 ]
  // [ 0 0 3 ]
  // [ 4 5 0 ]
  TripletBuilder b(3, 3);
  b.add(0, 0, 1);
  b.add(0, 2, 2);
  b.add(1, 2, 3);
  b.add(2, 0, 4);
  b.add(2, 1, 5);
  return b.build();
}

TEST(TripletBuilder, BuildsSortedCrs) {
  const auto m = small_example();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);  // not stored
}

TEST(TripletBuilder, DuplicatesAccumulate) {
  TripletBuilder b(2, 2);
  b.add(0, 1, 1.5);
  b.add(0, 1, 2.5);
  const auto m = b.build();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
}

TEST(TripletBuilder, ExactZeroSumsAreDropped) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, -1.0);
  b.add(1, 1, 2.0);
  const auto m = b.build();
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(TripletBuilder, AddSymmetricMirrorsOffDiagonal) {
  TripletBuilder b(3, 3);
  b.add_symmetric(0, 2, -1.0);
  b.add_symmetric(1, 1, 5.0);  // diagonal added once
  const auto m = b.build();
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
}

TEST(TripletBuilder, OutOfRangeThrows) {
  TripletBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), kpm::Error);
  EXPECT_THROW(b.add(0, 2, 1.0), kpm::Error);
}

TEST(CrsMatrix, MultiplyMatchesDense) {
  const auto m = small_example();
  const auto dense = m.to_dense();
  std::vector<double> x{1, 2, 3};
  std::vector<double> y_crs(3), y_dense(3);
  m.multiply(x, y_crs);
  dense.multiply(x, y_dense);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y_crs[static_cast<std::size_t>(i)], y_dense[static_cast<std::size_t>(i)]);
}

TEST(CrsMatrix, MaxRowNnz) { EXPECT_EQ(small_example().max_row_nnz(), 2u); }

TEST(CrsMatrix, SymmetryDetection) {
  TripletBuilder b(2, 2);
  b.add_symmetric(0, 1, 3.0);
  EXPECT_TRUE(b.build().is_symmetric());
  TripletBuilder b2(2, 2);
  b2.add(0, 1, 3.0);
  EXPECT_FALSE(b2.build().is_symmetric());
}

TEST(CrsMatrix, DenseRoundTrip) {
  DenseMatrix d(2, 3);
  d(0, 1) = 2.0;
  d(1, 2) = -4.0;
  const auto m = dense_to_crs(d);
  EXPECT_EQ(m.nnz(), 2u);
  const auto back = m.to_dense();
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(back(r, c), d(r, c));
}

TEST(CrsMatrix, DropToleranceFilters) {
  DenseMatrix d(1, 3);
  d(0, 0) = 1e-14;
  d(0, 1) = 0.5;
  const auto m = dense_to_crs(d, 1e-12);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(CrsMatrix, ValidationRejectsMalformedArrays) {
  // row_ptr wrong length.
  EXPECT_THROW(CrsMatrix(2, 2, {0, 1}, {0}, {1.0}), kpm::Error);
  // row_ptr not starting at 0.
  EXPECT_THROW(CrsMatrix(1, 1, {1, 1}, {}, {}), kpm::Error);
  // column out of range.
  EXPECT_THROW(CrsMatrix(1, 1, {0, 1}, {5}, {1.0}), kpm::Error);
  // unsorted columns within a row.
  EXPECT_THROW(CrsMatrix(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}), kpm::Error);
  // nnz mismatch.
  EXPECT_THROW(CrsMatrix(1, 2, {0, 2}, {0, 1}, {1.0}), kpm::Error);
}

TEST(CrsMatrix, StorageBytesAccounting) {
  const auto m = small_example();
  const std::size_t expected = 4 * sizeof(std::int32_t)        // row_ptr
                               + 5 * sizeof(std::int32_t)      // col_idx
                               + 5 * sizeof(double);           // values
  EXPECT_EQ(m.storage_bytes(), expected);
}

TEST(CrsMatrix, MultiplyRejectsAliasing) {
  const auto m = small_example();
  std::vector<double> x{1, 2, 3};
  EXPECT_THROW(m.multiply(x, x), kpm::Error);
}

// ---------------------------------------------------------------------------
// Fused recursion kernels, CRS path.

/// Deterministic awkward values so accumulation-order changes show up bitwise.
double wiggle(std::size_t i) {
  return std::sin(static_cast<double>(i) * 2.414213562373095 + 0.5) * 1.25;
}

/// Sparse square matrix with irregular row lengths (some rows empty).
CrsMatrix sparse_example(std::size_t d) {
  TripletBuilder b(d, d);
  for (std::size_t r = 0; r < d; ++r) {
    if (r % 5 == 4) continue;  // leave some rows entirely empty
    b.add(r, r, wiggle(r + 1));
    b.add(r, (r * 3 + 1) % d, wiggle(2 * r + 3));
    if (r % 2 == 0) b.add(r, (r + 7) % d, wiggle(4 * r + 1));
  }
  return b.build();
}

TEST(CrsFusedKernels, SpmvCombineDotMatchesUnfusedBitwise) {
  for (std::size_t d : {1u, 4u, 11u, 64u}) {
    const auto a = sparse_example(d);
    std::vector<double> r_prev(d), r_prev2(d), r0(d);
    for (std::size_t i = 0; i < d; ++i) {
      r_prev[i] = wiggle(i + 2);
      r_prev2[i] = wiggle(3 * i + 5);
      r0[i] = wiggle(7 * i + 1);
    }
    std::vector<double> hx(d), expected_next(d);
    a.multiply(r_prev, hx);
    kpm::linalg::chebyshev_combine(hx, r_prev2, expected_next);
    const double expected_mu = kpm::linalg::dot(r0, expected_next);

    std::vector<double> r_next(d), mu(1);
    kpm::linalg::spmmv_combine_dot(a, 1, r_prev, r_prev2, r0, r_next, mu);  // one vector: B = 1
    EXPECT_EQ(mu[0], expected_mu) << "d=" << d;  // bitwise equality required
    for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(r_next[i], expected_next[i]);
  }
}

TEST(CrsFusedKernels, SpmvCombineDot2MatchesUnfusedBitwise) {
  const std::size_t d = 17;
  const auto a = sparse_example(d);
  std::vector<double> r_prev(d), r_prev2(d);
  for (std::size_t i = 0; i < d; ++i) {
    r_prev[i] = wiggle(5 * i + 2);
    r_prev2[i] = wiggle(11 * i + 3);
  }
  std::vector<double> hx(d), expected_next(d);
  a.multiply(r_prev, hx);
  kpm::linalg::chebyshev_combine(hx, r_prev2, expected_next);
  const double expected_np = kpm::linalg::dot(expected_next, r_prev);
  const double expected_pp = kpm::linalg::dot(r_prev, r_prev);

  std::vector<double> r_next(d);
  std::vector<kpm::linalg::PairedDots> dots(1);
  kpm::linalg::spmmv_combine_dot2(a, 1, r_prev, r_prev2, r_next, dots);
  EXPECT_EQ(dots[0].next_prev, expected_np);
  EXPECT_EQ(dots[0].prev_prev, expected_pp);
  for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(r_next[i], expected_next[i]);
}

TEST(CrsFusedKernels, RejectsAliasedOutputAndMismatchedSizes) {
  const auto a = sparse_example(6);
  std::vector<double> r_prev(6, 1.0), r_prev2(6, 1.0), r0(6, 1.0), out(6), mu(1);
  std::vector<kpm::linalg::PairedDots> dots(1);
  using kpm::linalg::spmmv_combine_dot;
  using kpm::linalg::spmmv_combine_dot2;
  EXPECT_THROW(spmmv_combine_dot(a, 1, r_prev, r_prev2, r0, r_prev, mu), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot(a, 1, r_prev, r_prev2, r0, r_prev2, mu), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot2(a, 1, r_prev, r_prev2, r_prev, dots), kpm::Error);
  std::vector<double> bad(5, 1.0);
  EXPECT_THROW(spmmv_combine_dot(a, 1, bad, r_prev2, r0, out, mu), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot2(a, 1, r_prev, bad, out, dots), kpm::Error);
}

}  // namespace

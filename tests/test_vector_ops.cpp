// Unit tests for the BLAS-1 vector kernels and the fused recursion kernels
// (dense path; the CRS path is covered in test_crs_matrix.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/vector_ops.hpp"

namespace {

using namespace kpm::linalg;

TEST(VectorOps, AxpbyComputesLinearCombination) {
  std::vector<double> x{1, 2, 3};
  std::vector<double> y{10, 20, 30};
  axpby(2.0, x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 14.0);
  EXPECT_DOUBLE_EQ(y[2], 21.0);
}

TEST(VectorOps, AxpyAccumulates) {
  std::vector<double> x{1, -1};
  std::vector<double> y{0, 0};
  axpy(3.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
}

TEST(VectorOps, ScaleMultiplies) {
  std::vector<double> x{2, 4};
  scale(0.5, x);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(VectorOps, CopyDuplicates) {
  std::vector<double> x{1, 2, 3};
  std::vector<double> y(3);
  copy(x, y);
  EXPECT_EQ(x, y);
}

TEST(VectorOps, DotMatchesHandComputation) {
  std::vector<double> x{1, 2, 3};
  std::vector<double> y{4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 4.0 - 10.0 + 18.0);
}

TEST(VectorOps, DotOfEmptyThrows) {
  std::vector<double> x, y;
  EXPECT_THROW((void)dot(x, y), kpm::Error);
}

TEST(VectorOps, DotUsesFourLaneOrderForAllTailLengths) {
  // The library-wide canonical order: element i feeds lane (i mod 4), total
  // is (lane0 + lane1) + (lane2 + lane3).  Verify bitwise for every tail
  // length so the fused kernels can rely on it.
  for (std::size_t n = 1; n <= 9; ++n) {
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = 1.0 + 1e-13 * static_cast<double>(i * i + 1);
      y[i] = -0.5 + 1e-13 * static_cast<double>(3 * i + 2);
    }
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) lane[i % 4] += x[i] * y[i];
    const double expected = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    EXPECT_EQ(dot(x, y), expected) << "n=" << n;
  }
}

TEST(VectorOps, Nrm2IsEuclidean) {
  std::vector<double> x{3, 4};
  EXPECT_DOUBLE_EQ(nrm2(x), 5.0);
}

TEST(VectorOps, SignedSumAndAmax) {
  std::vector<double> x{1, -4, 2};
  EXPECT_DOUBLE_EQ(asum_signed(x), -1.0);
  EXPECT_DOUBLE_EQ(amax(x), 4.0);
}

TEST(VectorOps, ReductionsRejectEmptySpans) {
  std::vector<double> empty;
  EXPECT_THROW((void)amax(empty), kpm::Error);
  EXPECT_THROW((void)asum_signed(empty), kpm::Error);
  EXPECT_THROW((void)nrm2(empty), kpm::Error);
}

TEST(VectorOps, ChebyshevCombineMatchesDefinition) {
  // next = 2*hx - prev (Eq. 18's vector update).
  std::vector<double> hx{1, 2};
  std::vector<double> prev{10, 20};
  std::vector<double> next(2);
  chebyshev_combine(hx, prev, next);
  EXPECT_DOUBLE_EQ(next[0], -8.0);
  EXPECT_DOUBLE_EQ(next[1], -16.0);
}

TEST(VectorOps, ChebyshevCombineAllowsInPlaceOnPrev) {
  // The GPU kernels overwrite prev2 in place; the CPU helper must support
  // hx aliasing next (hx was stored into next's buffer by the SpMV).
  std::vector<double> next{1, 2};   // holds hx on entry
  std::vector<double> prev{10, 20};
  chebyshev_combine(next, prev, next);
  EXPECT_DOUBLE_EQ(next[0], -8.0);
  EXPECT_DOUBLE_EQ(next[1], -16.0);
}

TEST(VectorOps, SizeMismatchesThrow) {
  std::vector<double> a(3), b(4);
  EXPECT_THROW(axpby(1.0, a, 1.0, b), kpm::Error);
  EXPECT_THROW(axpy(1.0, a, b), kpm::Error);
  EXPECT_THROW(copy(a, b), kpm::Error);
  EXPECT_THROW((void)dot(a, b), kpm::Error);
  std::vector<double> c(3);
  EXPECT_THROW(chebyshev_combine(a, b, c), kpm::Error);
}

// ---------------------------------------------------------------------------
// Fused recursion kernels, dense path.

/// Deterministic awkward values: irrational-ish magnitudes so any change in
/// floating-point accumulation order shows up bitwise.
double wiggle(std::size_t i) {
  return std::sin(static_cast<double>(i) * 1.618033988749895 + 0.25) * 1.5;
}

DenseMatrix dense_example(std::size_t d) {
  DenseMatrix a(d, d);
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t c = 0; c < d; ++c) a(r, c) = wiggle(r * d + c + 7);
  return a;
}

TEST(FusedKernels, DenseSpmvCombineDotMatchesUnfusedBitwise) {
  // Odd dimension exercises the dot's tail lanes too.
  for (std::size_t d : {1u, 4u, 7u, 33u}) {
    const auto a = dense_example(d);
    std::vector<double> r_prev(d), r_prev2(d), r0(d);
    for (std::size_t i = 0; i < d; ++i) {
      r_prev[i] = wiggle(i + 1);
      r_prev2[i] = wiggle(3 * i + 2);
      r0[i] = wiggle(5 * i + 3);
    }
    // Unfused reference: multiply, combine, dot.
    std::vector<double> hx(d), expected_next(d);
    a.multiply(r_prev, hx);
    chebyshev_combine(hx, r_prev2, expected_next);
    const double expected_mu = dot(r0, expected_next);

    std::vector<double> r_next(d), mu(1);
    spmmv_combine_dot(a, 1, r_prev, r_prev2, r0, r_next, mu);  // one vector: B = 1
    EXPECT_EQ(mu[0], expected_mu) << "d=" << d;  // bitwise, not approximate
    for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(r_next[i], expected_next[i]);
  }
}

TEST(FusedKernels, DenseSpmvCombineDot2MatchesUnfusedBitwise) {
  const std::size_t d = 13;
  const auto a = dense_example(d);
  std::vector<double> r_prev(d), r_prev2(d);
  for (std::size_t i = 0; i < d; ++i) {
    r_prev[i] = wiggle(2 * i + 1);
    r_prev2[i] = wiggle(7 * i + 5);
  }
  std::vector<double> hx(d), expected_next(d);
  a.multiply(r_prev, hx);
  chebyshev_combine(hx, r_prev2, expected_next);
  const double expected_np = dot(expected_next, r_prev);
  const double expected_pp = dot(r_prev, r_prev);

  std::vector<double> r_next(d);
  std::vector<PairedDots> dots(1);
  spmmv_combine_dot2(a, 1, r_prev, r_prev2, r_next, dots);
  EXPECT_EQ(dots[0].next_prev, expected_np);
  EXPECT_EQ(dots[0].prev_prev, expected_pp);
  for (std::size_t i = 0; i < d; ++i) EXPECT_EQ(r_next[i], expected_next[i]);
}

TEST(FusedKernels, RejectsAliasedOutput) {
  const std::size_t d = 4;
  const auto a = dense_example(d);
  std::vector<double> r_prev(d, 1.0), r_prev2(d, 1.0), r0(d, 1.0), mu(1);
  std::vector<PairedDots> dots(1);
  // The output must be a distinct buffer: the SpMV gathers r_prev while
  // r_next is being written.
  EXPECT_THROW(spmmv_combine_dot(a, 1, r_prev, r_prev2, r0, r_prev, mu), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot(a, 1, r_prev, r_prev2, r0, r_prev2, mu), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot2(a, 1, r_prev, r_prev2, r_prev, dots), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot2(a, 1, r_prev, r_prev2, r_prev2, dots), kpm::Error);
}

TEST(FusedKernels, RejectsSizeMismatch) {
  const auto a = dense_example(4);
  std::vector<double> good(4, 1.0), bad(3, 1.0), out(4), mu(1);
  EXPECT_THROW(spmmv_combine_dot(a, 1, bad, good, good, out, mu), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot(a, 1, good, bad, good, out, mu), kpm::Error);
  EXPECT_THROW(spmmv_combine_dot(a, 1, good, good, bad, out, mu), kpm::Error);
  std::vector<double> out_bad(3);
  EXPECT_THROW(spmmv_combine_dot(a, 1, good, good, good, out_bad, mu), kpm::Error);
}

}  // namespace

// Fused KPM recursion kernels: SpMV + Chebyshev combine + dot in one pass.
//
// The unfused recursion step
//     hx     = H~ * r_prev            (multiply: streams matrix, x, y)
//     r_next = 2 * hx - r_prev2       (chebyshev_combine: 2 reads, 1 write)
//     mu~_n  = <r0 | r_next>          (dot: 2 reads)
// touches the vectors three times.  Fusing keeps the row result in a
// register: per row the SpMV accumulator becomes r_next[r] directly and the
// dot contribution is added on the spot, so the combine's hx read/write and
// the dot's r_next re-read disappear.  Per step the vector traffic drops
// from 7 D doubles to 4 D (matrix traffic is unchanged) — the kernel-fusion
// lever of Kreutzer et al. (arXiv:1410.5242) applied to the host engines.
//
// Vector-block (SpMMV) form: every kernel processes a BLOCK of B
// independent recursion vectors per matrix pass — the decisive KPM lever
// of Kreutzer et al.: matrix traffic is amortized 1/B while the per-member
// arithmetic is untouched.  One vector is the case B = 1; there is no
// separate single-vector kernel.  Block vectors are stored INTERLEAVED:
// element i of member j lives at x[i*B + j], so the inner member loop reads
// unit-stride memory at every gathered row.
//
// Bit-compatibility contract: member j's outputs are bit-identical to the
// unfused multiply + chebyshev_combine + dot sequence on its deinterleaved
// vectors, for every B.  The per-row SpMV accumulation order matches
// CrsMatrix/DenseMatrix::multiply exactly, and each member's dot uses
// linalg::dot's canonical 4-lane order (row r feeds lane r mod 4; total =
// (l0 + l1) + (l2 + l3)).  SELL-C-sigma operators traverse rows in LOGICAL
// order through `slot_of()`, with per-row entry order matching CRS, so SELL
// results are bit-identical to CRS too.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

#include "linalg/crs_matrix.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/hermitian_matrix.hpp"
#include "linalg/operator.hpp"
#include "linalg/sell_matrix.hpp"

namespace kpm::linalg {

/// Both dot products the paired-moment recursion needs from one pass.
struct PairedDots {
  double next_prev = 0.0;  ///< <r_next | r_prev>  (feeds mu~_{2k+1})
  double prev_prev = 0.0;  ///< <r_prev | r_prev>  (feeds mu~_{2k})
};

// ---------------------------------------------------------------------------
// Vector-block (SpMMV) kernels.  `block` is B >= 1; block spans hold
// dim * B doubles in the interleaved layout described above, and `dots`
// outputs hold one value per member.  Every kernel streams the matrix ONCE
// for all B members.  The real kernels run B in {1, 2, 4, 8, 16, 32} with a
// compile-time member count and stride, which keeps the member accumulators
// in registers, four members per AVX2 pack for B in {4, 8, 16, 32} on hosts
// with AVX2; see docs/performance.md, "Member-width dispatch".

/// The pack body the real blocked kernels run for `block` members: "avx2"
/// (four members per 256-bit pack), "sse2" (two per 128-bit pack) or
/// "scalar" (one double per pack: B = 1 and the widths outside the table).
[[nodiscard]] const char* member_pack_body(std::size_t block) noexcept;

/// Per-member dot products <x_j | y_j> of two interleaved blocks, each in
/// linalg::dot's canonical 4-lane order (element i feeds lane i mod 4).
/// Member j's result is bit-identical to linalg::dot on its deinterleaved
/// vectors.  Unmetered, like linalg::dot.
void block_dot(std::span<const double> x, std::span<const double> y, std::size_t block,
               std::span<double> dots);

/// y_j = A * x_j for all B members in one matrix pass (no combine, no dot;
/// the blocked analogue of MatrixOperator::multiply, used for the r_1 =
/// H~ r_0 step).  Meters B SpMV products over one matrix stream.
void spmmv_multiply(const CrsMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y);
void spmmv_multiply(const SellMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y);
void spmmv_multiply(const DenseMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y);
void spmmv_multiply(const MatrixOperator& op, std::size_t block, std::span<const double> x,
                    std::span<double> y);

/// r_next_j = 2 * A * r_prev_j - r_prev2_j and dots[j] = <r0_j | r_next_j>
/// for all B members in one matrix pass.  Preconditions: all blocks have
/// length A.rows() * B == A.cols() * B and dots has B entries; r_next must
/// not alias r_prev, r_prev2 or r0 (the SpMV gathers r_prev while r_next is
/// written, and the dot reads r0 against freshly written rows).
void spmmv_combine_dot(const CrsMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots);
void spmmv_combine_dot(const SellMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots);
void spmmv_combine_dot(const DenseMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots);
void spmmv_combine_dot(const MatrixOperator& op, std::size_t block,
                       std::span<const double> r_prev, std::span<const double> r_prev2,
                       std::span<const double> r0, std::span<double> r_next,
                       std::span<double> dots);

/// One vector: spmmv_combine_dot at B = 1, returning <r0 | r_next>.
[[nodiscard]] double spmv_combine_dot(const MatrixOperator& op, std::span<const double> r_prev,
                                      std::span<const double> r_prev2, std::span<const double> r0,
                                      std::span<double> r_next);

/// Blocked paired-moment pass: r_next_j = 2 * A * r_prev_j - r_prev2_j with
/// dots[j] = {<r_next_j|r_prev_j>, <r_prev_j|r_prev_j>} per member.  Same
/// alias preconditions as spmmv_combine_dot.
void spmmv_combine_dot2(const CrsMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots);
void spmmv_combine_dot2(const SellMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots);
void spmmv_combine_dot2(const DenseMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots);
void spmmv_combine_dot2(const MatrixOperator& op, std::size_t block,
                        std::span<const double> r_prev, std::span<const double> r_prev2,
                        std::span<double> r_next, std::span<PairedDots> dots);

/// Blocked complex-Hermitian pass: per member, dots[j] = Re<r0_j|r_next_j>
/// = sum_r Re(conj(r0_j[r]) * r_next_j[r]), accumulated as a single-lane
/// left fold; the per-row accumulation order matches CrsMatrixZ::multiply.
/// Same alias preconditions as spmmv_combine_dot.
void spmmv_combine_dot_re(const CrsMatrixZ& a, std::size_t block,
                          std::span<const std::complex<double>> r_prev,
                          std::span<const std::complex<double>> r_prev2,
                          std::span<const std::complex<double>> r0,
                          std::span<std::complex<double>> r_next, std::span<double> dots);

}  // namespace kpm::linalg

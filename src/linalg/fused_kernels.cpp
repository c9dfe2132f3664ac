#include "linalg/fused_kernels.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/packs.hpp"
#include "linalg/row_access.hpp"
#include "linalg/spmmv_unmetered.hpp"
#include "obs/counters.hpp"

namespace kpm::linalg {
namespace {

using Complex = std::complex<double>;

// Records one fused spmv+combine+dot pass of `block` vectors into the
// active obs sink.  The flop/byte model matches core::fused_step_workload
// exactly (ONE matrix stream plus (3 + dots) streamed vectors of
// `element_bytes` each PER MEMBER), which is what lets tests cross-check
// measured counters against the roofline prediction.  SpmvCalls/DotCalls
// count logical per-member products; FusedCalls counts passes.
void meter_fused(std::size_t spmv_flops, std::size_t matrix_bytes, std::size_t dim,
                 std::size_t dots, double element_bytes, std::size_t block) {
  if (obs::active_counters() == nullptr) return;
  const double d = static_cast<double>(dim);
  const double b = static_cast<double>(block);
  const double flops = b * (static_cast<double>(spmv_flops) + 2.0 * d +
                            2.0 * d * static_cast<double>(dots));
  const double bytes = static_cast<double>(matrix_bytes) +
                       (3.0 + static_cast<double>(dots)) * b * d * element_bytes;
  obs::add(obs::Counter::SpmvCalls, b);
  obs::add(obs::Counter::DotCalls, b * static_cast<double>(dots));
  obs::add(obs::Counter::FusedCalls, 1.0);
  obs::add(obs::Counter::Flops, flops);
  obs::add(obs::Counter::BytesStreamed, bytes);
  obs::add(obs::Counter::FusedBytes, bytes);
}

// Records one plain blocked multiply (no combine, no dot): B products over
// a single matrix stream plus the x read and y write per member.
void meter_spmmv(std::size_t spmv_flops, std::size_t matrix_bytes, std::size_t dim,
                 std::size_t block) {
  if (obs::active_counters() == nullptr) return;
  const double d = static_cast<double>(dim);
  const double b = static_cast<double>(block);
  obs::add(obs::Counter::SpmvCalls, b);
  obs::add(obs::Counter::Flops, b * static_cast<double>(spmv_flops));
  obs::add(obs::Counter::BytesStreamed,
           static_cast<double>(matrix_bytes) + 2.0 * b * d * sizeof(double));
}

[[nodiscard]] std::size_t crs_matrix_bytes(const CrsMatrix& a) {
  // Must match MatrixOperator::spmv_matrix_bytes for CRS storage.
  return a.nnz() * (sizeof(double) + sizeof(CrsMatrix::Index)) +
         (a.rows() + 1) * sizeof(CrsMatrix::Index);
}

void require_multiply_preconditions(std::size_t rows, std::size_t cols, std::size_t block,
                                   std::span<const double> x, std::span<double> y) {
  KPM_REQUIRE(block >= 1, "spmmv_multiply: block must be >= 1");
  KPM_REQUIRE(x.size() == cols * block && y.size() == rows * block,
              "spmmv_multiply: block size mismatch");
  KPM_REQUIRE(y.data() != x.data(), "spmmv_multiply: y must not alias x");
}

void require_spmmv_preconditions(std::size_t rows, std::size_t cols, std::size_t block,
                                 std::span<const double> r_prev,
                                 std::span<const double> r_prev2, std::span<double> r_next) {
  KPM_REQUIRE(block >= 1, "spmmv_combine_dot: block must be >= 1");
  KPM_REQUIRE(rows == cols, "spmmv_combine_dot: matrix must be square");
  KPM_REQUIRE(r_prev.size() == cols * block && r_prev2.size() == rows * block &&
                  r_next.size() == rows * block,
              "spmmv_combine_dot: block size mismatch");
  KPM_REQUIRE(r_next.data() != r_prev.data(),
              "spmmv_combine_dot: r_next must not alias r_prev");
  KPM_REQUIRE(r_next.data() != r_prev2.data(),
              "spmmv_combine_dot: r_next must not alias r_prev2");
}

// ---------------------------------------------------------------------------
// Member-width dispatch for the blocked (SpMMV) kernel bodies.
//
// With the member count known only at run time, the B row accumulators
// live in memory: GCC cannot keep a runtime-indexed array in registers, so
// every stored entry reloads and re-stores all B of them, and the step is
// bound by that store->load chain instead of by memory bandwidth.  The
// table widths below fix the member count AND the block stride at compile
// time: the accumulators are a local array of member packs, the member
// loops expand at compile time, and the accumulators stay in registers
// across a row's entries (B/4 or B/2 packed multiply-adds per entry).
// Every other width runs the same bodies with one double per pack,
// accumulating straight into the output row.  Packed arithmetic is
// lane-wise IEEE, so each member still runs exactly the operations of one
// unfused vector recursion in the same order: entry order, 2*acc - prev2,
// and dot lane r & 3 folded as (l0 + l1) + (l2 + l3).

// Members pack four per Double4 on AVX2 hosts (widths 4 to 32) and two per
// Double2 otherwise (common/packs.hpp).  The kernel bodies below are
// [[gnu::flatten]]: their accumulators can only stay in registers if every
// helper and lambda is inlined into them, which the inliner's size
// heuristics do not otherwise guarantee.

/// A table width: B members at block stride B, all compile-time, in packs
/// of P: Double4 in the AVX2 bodies, else Double2 for even B and one
/// double for odd B.
template <std::size_t B, typename P = std::conditional_t<B % 2 == 0, Double2, double>>
struct FixedWidth {
  static constexpr bool kCompileTime = true;
  using Pack = P;
  static constexpr std::size_t kPack = sizeof(Pack) / sizeof(double);
  static constexpr std::size_t kPacks = B / kPack;  ///< local array extent
  [[nodiscard]] static constexpr std::size_t members() noexcept { return B; }
  [[nodiscard]] static constexpr std::size_t packs() noexcept { return kPacks; }
};

/// Any other width: `block` members, one double per pack.  Accumulators
/// live in the output row and dot lanes in LaneScratch, so its local
/// arrays are unused (extent 1).
struct RuntimeWidth {
  static constexpr bool kCompileTime = false;
  using Pack = double;
  static constexpr std::size_t kPack = 1;
  static constexpr std::size_t kPacks = 1;
  std::size_t block = 0;
  [[nodiscard]] std::size_t members() const noexcept { return block; }
  [[nodiscard]] std::size_t packs() const noexcept { return block; }
};

/// body(w) for one table width, as a function of its own pinned to a
/// 64-byte line.  flatten inlines the whole row body here, so each width's
/// loops sit in one function and their offsets within their lines depend
/// only on that body's code: not on the dispatcher around it, nor on the
/// size of code linked before this file (docs/performance.md, "Hot-loop
/// placement").
template <typename Body, typename Width>
[[gnu::noinline, gnu::flatten, gnu::aligned(64)]] void run_width(Body& body, const Width& w) {
  body(w);
}

#if KPM_AVX2_PACKS
/// run_width compiled for AVX2: every Double4 operation of the inlined
/// body is compiled under this function's target, and no AVX instruction
/// lands in any other function.  The target is "avx2" alone: with "fma"
/// GCC would contract acc + v * x into one rounding.
template <typename Body, typename Width>
[[gnu::target("avx2"), gnu::noinline, gnu::flatten, gnu::aligned(64)]] void run_width_avx2(
    Body& body, const Width& w) {
  body(w);
}
#endif

/// Runs body with table width B in Double4 packs when avx2_packs(), else
/// in Double2 packs.
template <std::size_t B, typename Body>
void run_widest_packs(Body& body) {
#if KPM_AVX2_PACKS
  if (avx2_packs()) return run_width_avx2(body, FixedWidth<B, Double4>{});
#endif
  run_width(body, FixedWidth<B>{});
}

/// Runs body(width) with the table width for `block` if there is one,
/// else with RuntimeWidth.
template <typename Body>
void for_member_width(std::size_t block, Body&& body) {
  switch (block) {
    case 1: return run_width(body, FixedWidth<1>{});
    case 2: return run_width(body, FixedWidth<2>{});
    case 4: return run_widest_packs<4>(body);
    case 8: return run_widest_packs<8>(body);
    case 16: return run_widest_packs<16>(body);
    case 32: return run_widest_packs<32>(body);
    default: return body(RuntimeWidth{block});
  }
}

/// f(j) for every pack j of `w`, in order.  Table widths expand the calls
/// at compile time, so every pack index is a constant.
template <typename Width, typename F>
void for_each_pack(const Width& w, F&& f) {
  if constexpr (Width::kCompileTime) {
    for_each_index<Width::kPacks>(f);
  } else {
    for (std::size_t j = 0; j < w.packs(); ++j) f(j);
  }
}

/// Row r's member accumulators: the width's local array for a table width
/// (registers, once the member loops expand), else the output row itself.
template <typename Width, typename T, typename Out>
[[nodiscard]] T* row_accumulators(T* local, Out* out_row) noexcept {
  if constexpr (Width::kCompileTime)
    return local;
  else
    return out_row;
}

/// `Rows` zeroed rows of N accumulators on the stack (table widths).
template <typename T, std::size_t Rows, std::size_t N>
struct LocalLanes {
  T lanes[Rows][N]{};
  [[nodiscard]] T* row(std::size_t k) noexcept { return lanes[k]; }
};

/// Dot lanes of the runtime width: rows of n doubles in the calling
/// thread's buffer, which grows to the widest block the thread has run and
/// is then reused, so no call allocates once warm.  A kernel call holds at
/// most one LaneScratch, and kernels do not nest.
class LaneScratch {
 public:
  LaneScratch(std::size_t rows, std::size_t n) : n_(n) {
    thread_local std::vector<double> buffer;
    if (buffer.size() < rows * n) buffer.resize(rows * n);
    std::fill_n(buffer.begin(), rows * n, 0.0);
    base_ = buffer.data();
  }
  [[nodiscard]] double* row(std::size_t k) const noexcept { return base_ + k * n_; }

 private:
  double* base_ = nullptr;
  std::size_t n_;
};

/// `Rows` zeroed rows of one lane accumulator per pack of `w`.
template <std::size_t Rows, typename Width>
[[nodiscard]] auto pack_lanes(const Width& w) {
  if constexpr (Width::kCompileTime)
    return LocalLanes<typename Width::Pack, Rows, Width::kPacks>{};
  else
    return LaneScratch(Rows, w.packs());
}

/// out(m, (l0 + l1) + (l2 + l3)) for every member m of `w`, from the four
/// canonical dot lanes rows first .. first + 3 of `lanes`.
template <typename Width, typename Lanes, typename Out>
void for_each_lane_sum(const Width& w, Lanes& lanes, std::size_t first, Out&& out) {
  using Pack = typename Width::Pack;
  for_each_pack(w, [&](std::size_t j) {
    const Pack sum = (lanes.row(first)[j] + lanes.row(first + 1)[j]) +
                     (lanes.row(first + 2)[j] + lanes.row(first + 3)[j]);
    double member[Width::kPack];
    store_pack(member, sum);
    for (std::size_t q = 0; q < Width::kPack; ++q) out(j * Width::kPack + q, member[q]);
  });
}

/// Per-member canonical 4-lane dots of two interleaved blocks.
template <typename Width>
[[gnu::flatten]] void block_dot_rows(const Width& w, std::size_t dim, const double* x,
                                     const double* y, double* dots) {
  using Pack = typename Width::Pack;
  auto lanes = pack_lanes<4>(w);  // row i & 3
  for (std::size_t i = 0; i < dim; ++i) {
    const std::size_t at = i * w.members();
    Pack* lane = lanes.row(i & 3);
    for_each_pack(w, [&](std::size_t j) {
      const std::size_t k = at + j * Width::kPack;
      Pack xk{}, yk{};
      load_pack(xk, x + k);
      load_pack(yk, y + k);
      lane[j] += xk * yk;
    });
  }
  for_each_lane_sum(w, lanes, 0, [&](std::size_t m, double v) { dots[m] = v; });
}

/// Member accumulators of row r: acc_j = 0 + the row's entries' v * x_j[c]
/// in entry order — MatrixOperator::multiply per member.
template <typename Width, typename Access>
void accumulate_row(const Width& w, const Access& rows_of, std::size_t r, const double* x,
                    typename Width::Pack* acc) {
  using Pack = typename Width::Pack;
  for_each_pack(w, [&](std::size_t j) { acc[j] = Pack{}; });
  rows_of.row_entries(r, [&](double v, std::size_t c) {
    const double* xc = x + c * w.members();
    for_each_pack(w, [&](std::size_t j) {
      Pack xj{};
      load_pack(xj, xc + j * Width::kPack);
      acc[j] += v * xj;
    });
  });
}

// The row bodies take the row-access policy by value.  Reached through a
// reference from a width's out-of-line run_width function, its array
// pointers were reloaded on every row; a local copy stays in registers.

template <typename Width, typename Access>
[[gnu::flatten]] void spmmv_multiply_rows(const Width& w, Access rows_of, std::size_t rows,
                                          const double* x, double* y) {
  using Pack = typename Width::Pack;
  Pack local[Width::kPacks]{};
  for (std::size_t r = 0; r < rows; ++r) {
    double* yr = y + r * w.members();
    Pack* acc = row_accumulators<Width>(local, yr);
    accumulate_row(w, rows_of, r, x, acc);
    if constexpr (Width::kCompileTime)
      for_each_pack(w, [&](std::size_t j) { store_pack(yr + j * Width::kPack, acc[j]); });
  }
}

template <typename Width, typename Access>
[[gnu::flatten]] void spmmv_dot_rows(const Width& w, Access rows_of, std::size_t rows,
                                     const double* r_prev, const double* r_prev2,
                                     const double* r0, double* r_next, double* dots) {
  using Pack = typename Width::Pack;
  Pack local[Width::kPacks]{};
  auto lanes = pack_lanes<4>(w);  // row r & 3
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t at = r * w.members();
    Pack* acc = row_accumulators<Width>(local, r_next + at);
    accumulate_row(w, rows_of, r, r_prev, acc);
    Pack* lane = lanes.row(r & 3);
    for_each_pack(w, [&](std::size_t j) {
      const std::size_t k = at + j * Width::kPack;
      Pack prev2{};
      load_pack(prev2, r_prev2 + k);
      const Pack next = 2.0 * acc[j] - prev2;
      store_pack(r_next + k, next);
      Pack z{};
      load_pack(z, r0 + k);
      lane[j] += z * next;
    });
  }
  for_each_lane_sum(w, lanes, 0, [&](std::size_t m, double v) { dots[m] = v; });
}

template <typename Width, typename Access>
[[gnu::flatten]] void spmmv_dot2_rows(const Width& w, Access rows_of, std::size_t rows,
                                      const double* r_prev, const double* r_prev2,
                                      double* r_next, PairedDots* dots) {
  using Pack = typename Width::Pack;
  Pack local[Width::kPacks]{};
  auto lanes = pack_lanes<8>(w);  // <next|prev> in rows 0-3, <prev|prev> in rows 4-7
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t at = r * w.members();
    Pack* acc = row_accumulators<Width>(local, r_next + at);
    accumulate_row(w, rows_of, r, r_prev, acc);
    Pack* np = lanes.row(r & 3);
    Pack* pp = lanes.row(4 + (r & 3));
    for_each_pack(w, [&](std::size_t j) {
      const std::size_t k = at + j * Width::kPack;
      Pack prev2{}, prev{};
      load_pack(prev2, r_prev2 + k);
      load_pack(prev, r_prev + k);
      const Pack next = 2.0 * acc[j] - prev2;
      store_pack(r_next + k, next);
      np[j] += next * prev;
      pp[j] += prev * prev;
    });
  }
  for_each_lane_sum(w, lanes, 0, [&](std::size_t m, double v) { dots[m].next_prev = v; });
  for_each_lane_sum(w, lanes, 4, [&](std::size_t m, double v) { dots[m].prev_prev = v; });
}

// Width-dispatching drivers shared by every storage.

template <typename Access>
void multiply_block(const Access& rows_of, std::size_t rows, std::size_t block,
                    std::span<const double> x, std::span<double> y) {
  for_member_width(block, [&](const auto& w) {
    spmmv_multiply_rows(w, rows_of, rows, x.data(), y.data());
  });
}

template <typename Access>
void dot_block(const Access& rows_of, std::size_t rows, std::size_t block,
               std::span<const double> r_prev, std::span<const double> r_prev2,
               std::span<const double> r0, std::span<double> r_next, std::span<double> dots) {
  for_member_width(block, [&](const auto& w) {
    spmmv_dot_rows(w, rows_of, rows, r_prev.data(), r_prev2.data(), r0.data(), r_next.data(),
                   dots.data());
  });
}

template <typename Access>
void dot2_block(const Access& rows_of, std::size_t rows, std::size_t block,
                std::span<const double> r_prev, std::span<const double> r_prev2,
                std::span<double> r_next, std::span<PairedDots> dots) {
  for_member_width(block, [&](const auto& w) {
    spmmv_dot2_rows(w, rows_of, rows, r_prev.data(), r_prev2.data(), r_next.data(),
                    dots.data());
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Vector-block (SpMMV) kernels.

const char* member_pack_body(std::size_t block) noexcept {
  switch (block) {  // the table of for_member_width
    case 2: return "sse2";
    case 4:
    case 8:
    case 16:
    case 32: return avx2_packs() ? "avx2" : "sse2";
    default: return "scalar";
  }
}

void block_dot(std::span<const double> x, std::span<const double> y, std::size_t block,
               std::span<double> dots) {
  KPM_REQUIRE(block >= 1, "block_dot: block must be >= 1");
  KPM_REQUIRE(x.size() == y.size() && x.size() % block == 0,
              "block_dot: block vector size mismatch");
  KPM_REQUIRE(dots.size() == block, "block_dot: dots size mismatch");
  const std::size_t dim = x.size() / block;
  for_member_width(block, [&](const auto& w) {
    block_dot_rows(w, dim, x.data(), y.data(), dots.data());
  });
}

namespace detail {

void spmmv_multiply_unmetered(const CrsMatrix& a, std::size_t block, std::span<const double> x,
                              std::span<double> y) {
  require_multiply_preconditions(a.rows(), a.cols(), block, x, y);
  multiply_block(CrsAccess(a), a.rows(), block, x, y);
}

void spmmv_multiply_unmetered(const SellMatrix& a, std::size_t block,
                              std::span<const double> x, std::span<double> y) {
  require_multiply_preconditions(a.rows(), a.cols(), block, x, y);
  multiply_block(SellAccess(a), a.rows(), block, x, y);
}

}  // namespace detail

void spmmv_multiply(const CrsMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y) {
  detail::spmmv_multiply_unmetered(a, block, x, y);
  meter_spmmv(2 * a.nnz(), crs_matrix_bytes(a), a.rows(), block);
}

void spmmv_multiply(const SellMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y) {
  detail::spmmv_multiply_unmetered(a, block, x, y);
  meter_spmmv(2 * a.nnz(), a.spmv_matrix_bytes(), a.rows(), block);
}

void spmmv_multiply(const DenseMatrix& a, std::size_t block, std::span<const double> x,
                    std::span<double> y) {
  require_multiply_preconditions(a.rows(), a.cols(), block, x, y);
  meter_spmmv(2 * a.rows() * a.cols(), a.rows() * a.cols() * sizeof(double), a.rows(), block);
  multiply_block(DenseAccess(a), a.rows(), block, x, y);
}

void spmmv_multiply(const MatrixOperator& op, std::size_t block, std::span<const double> x,
                    std::span<double> y) {
  if (op.dense() != nullptr) return spmmv_multiply(*op.dense(), block, x, y);
  if (op.crs() != nullptr) return spmmv_multiply(*op.crs(), block, x, y);
  return spmmv_multiply(*op.sell(), block, x, y);
}

void spmmv_combine_dot(const CrsMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots) {
  require_spmmv_preconditions(a.rows(), a.cols(), block, r_prev, r_prev2, r_next);
  KPM_REQUIRE(r0.size() == a.rows() * block && dots.size() == block,
              "spmmv_combine_dot: r0/dots size mismatch");
  KPM_REQUIRE(r_next.data() != r0.data(), "spmmv_combine_dot: r_next must not alias r0");
  meter_fused(2 * a.nnz(), crs_matrix_bytes(a), a.rows(), 1, sizeof(double), block);
  dot_block(CrsAccess(a), a.rows(), block, r_prev, r_prev2, r0, r_next, dots);
}

void spmmv_combine_dot(const SellMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots) {
  require_spmmv_preconditions(a.rows(), a.cols(), block, r_prev, r_prev2, r_next);
  KPM_REQUIRE(r0.size() == a.rows() * block && dots.size() == block,
              "spmmv_combine_dot: r0/dots size mismatch");
  KPM_REQUIRE(r_next.data() != r0.data(), "spmmv_combine_dot: r_next must not alias r0");
  meter_fused(2 * a.nnz(), a.spmv_matrix_bytes(), a.rows(), 1, sizeof(double), block);
  dot_block(SellAccess(a), a.rows(), block, r_prev, r_prev2, r0, r_next, dots);
}

void spmmv_combine_dot(const DenseMatrix& a, std::size_t block, std::span<const double> r_prev,
                       std::span<const double> r_prev2, std::span<const double> r0,
                       std::span<double> r_next, std::span<double> dots) {
  require_spmmv_preconditions(a.rows(), a.cols(), block, r_prev, r_prev2, r_next);
  KPM_REQUIRE(r0.size() == a.rows() * block && dots.size() == block,
              "spmmv_combine_dot: r0/dots size mismatch");
  KPM_REQUIRE(r_next.data() != r0.data(), "spmmv_combine_dot: r_next must not alias r0");
  meter_fused(2 * a.rows() * a.cols(), a.rows() * a.cols() * sizeof(double), a.rows(), 1,
              sizeof(double), block);
  dot_block(DenseAccess(a), a.rows(), block, r_prev, r_prev2, r0, r_next, dots);
}

void spmmv_combine_dot(const MatrixOperator& op, std::size_t block,
                       std::span<const double> r_prev, std::span<const double> r_prev2,
                       std::span<const double> r0, std::span<double> r_next,
                       std::span<double> dots) {
  if (op.dense() != nullptr)
    return spmmv_combine_dot(*op.dense(), block, r_prev, r_prev2, r0, r_next, dots);
  if (op.crs() != nullptr)
    return spmmv_combine_dot(*op.crs(), block, r_prev, r_prev2, r0, r_next, dots);
  return spmmv_combine_dot(*op.sell(), block, r_prev, r_prev2, r0, r_next, dots);
}

double spmv_combine_dot(const MatrixOperator& op, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<const double> r0,
                        std::span<double> r_next) {
  double dot = 0.0;
  spmmv_combine_dot(op, 1, r_prev, r_prev2, r0, r_next, std::span<double>(&dot, 1));
  return dot;
}

void spmmv_combine_dot2(const CrsMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots) {
  require_spmmv_preconditions(a.rows(), a.cols(), block, r_prev, r_prev2, r_next);
  KPM_REQUIRE(dots.size() == block, "spmmv_combine_dot2: dots size mismatch");
  meter_fused(2 * a.nnz(), crs_matrix_bytes(a), a.rows(), 2, sizeof(double), block);
  dot2_block(CrsAccess(a), a.rows(), block, r_prev, r_prev2, r_next, dots);
}

void spmmv_combine_dot2(const SellMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots) {
  require_spmmv_preconditions(a.rows(), a.cols(), block, r_prev, r_prev2, r_next);
  KPM_REQUIRE(dots.size() == block, "spmmv_combine_dot2: dots size mismatch");
  meter_fused(2 * a.nnz(), a.spmv_matrix_bytes(), a.rows(), 2, sizeof(double), block);
  dot2_block(SellAccess(a), a.rows(), block, r_prev, r_prev2, r_next, dots);
}

void spmmv_combine_dot2(const DenseMatrix& a, std::size_t block, std::span<const double> r_prev,
                        std::span<const double> r_prev2, std::span<double> r_next,
                        std::span<PairedDots> dots) {
  require_spmmv_preconditions(a.rows(), a.cols(), block, r_prev, r_prev2, r_next);
  KPM_REQUIRE(dots.size() == block, "spmmv_combine_dot2: dots size mismatch");
  meter_fused(2 * a.rows() * a.cols(), a.rows() * a.cols() * sizeof(double), a.rows(), 2,
              sizeof(double), block);
  dot2_block(DenseAccess(a), a.rows(), block, r_prev, r_prev2, r_next, dots);
}

void spmmv_combine_dot2(const MatrixOperator& op, std::size_t block,
                        std::span<const double> r_prev, std::span<const double> r_prev2,
                        std::span<double> r_next, std::span<PairedDots> dots) {
  if (op.dense() != nullptr)
    return spmmv_combine_dot2(*op.dense(), block, r_prev, r_prev2, r_next, dots);
  if (op.crs() != nullptr)
    return spmmv_combine_dot2(*op.crs(), block, r_prev, r_prev2, r_next, dots);
  return spmmv_combine_dot2(*op.sell(), block, r_prev, r_prev2, r_next, dots);
}

void spmmv_combine_dot_re(const CrsMatrixZ& a, std::size_t block,
                          std::span<const std::complex<double>> r_prev,
                          std::span<const std::complex<double>> r_prev2,
                          std::span<const std::complex<double>> r0,
                          std::span<std::complex<double>> r_next, std::span<double> dots) {
  KPM_REQUIRE(block >= 1, "spmmv_combine_dot_re: block must be >= 1");
  KPM_REQUIRE(a.rows() == a.cols(), "spmmv_combine_dot_re: matrix must be square");
  KPM_REQUIRE(r_prev.size() == a.cols() * block && r_prev2.size() == a.rows() * block &&
                  r0.size() == a.rows() * block && r_next.size() == a.rows() * block &&
                  dots.size() == block,
              "spmmv_combine_dot_re: block size mismatch");
  KPM_REQUIRE(r_next.data() != r_prev.data() && r_next.data() != r_prev2.data() &&
                  r_next.data() != r0.data(),
              "spmmv_combine_dot_re: r_next must not alias an input");
  if (obs::active_counters() != nullptr) {
    // Per member: complex SpMV at 8 flops per stored entry, combine and the
    // real-part dot at 4 flops per element each, and four complex vectors
    // streamed (r_prev, r_prev2, r0 reads + r_next write).  The matrix
    // streams once for the block.
    const double d = static_cast<double>(a.rows());
    const double b = static_cast<double>(block);
    const double matrix_bytes = static_cast<double>(
        a.nnz() * (sizeof(std::complex<double>) + sizeof(CrsMatrixZ::Index)) +
        (a.rows() + 1) * sizeof(CrsMatrixZ::Index));
    const double bytes = matrix_bytes + 4.0 * b * d * sizeof(std::complex<double>);
    obs::add(obs::Counter::SpmvCalls, b);
    obs::add(obs::Counter::DotCalls, b);
    obs::add(obs::Counter::FusedCalls, 1.0);
    obs::add(obs::Counter::Flops, b * (8.0 * static_cast<double>(a.nnz()) + 8.0 * d));
    obs::add(obs::Counter::BytesStreamed, bytes);
    obs::add(obs::Counter::FusedBytes, bytes);
  }

  // No width dispatch here: a std::complex multiply-add does not pack into
  // Double2 lanes, and its non-finite fallback is a library call that would
  // evict register-resident accumulators.  Each member accumulates in its
  // own slot of the output row instead, which needs no scratch.
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  std::fill(dots.begin(), dots.end(), 0.0);  // per member: single-lane left fold
  for (std::size_t r = 0; r < a.rows(); ++r) {
    Complex* acc = r_next.data() + r * block;
    std::fill_n(acc, block, Complex{});
    // Same accumulation order as CrsMatrixZ::multiply, per member.
    for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      const Complex v = values[kk];
      const Complex* xc = r_prev.data() + static_cast<std::size_t>(col_idx[kk]) * block;
      for (std::size_t j = 0; j < block; ++j) acc[j] += v * xc[j];
    }
    const Complex* p2 = r_prev2.data() + r * block;
    const Complex* z = r0.data() + r * block;
    for (std::size_t j = 0; j < block; ++j) {
      const Complex next = 2.0 * acc[j] - p2[j];
      acc[j] = next;
      dots[j] += (std::conj(z[j]) * next).real();
    }
  }
}

}  // namespace kpm::linalg

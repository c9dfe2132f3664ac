#include "core/moments_hermitian.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/moments_cpu.hpp"
#include "linalg/fused_kernels.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {
namespace {

using Complex = std::complex<double>;

/// Blocked complex multiply y_j = H x_j on the interleaved block layout
/// (one matrix stream for the whole group); per-member accumulation order
/// matches CrsMatrixZ::multiply.  Meters b products over one stream.
void spmmv_z(const linalg::CrsMatrixZ& h, std::size_t b, std::span<const Complex> x,
             std::span<Complex> y) {
  const std::size_t rows = h.rows();
  const auto row_ptr = h.row_ptr();
  const auto col_idx = h.col_idx();
  const auto values = h.values();
  std::vector<Complex> acc(b);
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill(acc.begin(), acc.end(), Complex{0.0, 0.0});
    for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      const Complex v = values[kk];
      const Complex* xc = x.data() + static_cast<std::size_t>(col_idx[kk]) * b;
      for (std::size_t j = 0; j < b; ++j) acc[j] += v * xc[j];
    }
    Complex* yr = y.data() + r * b;
    for (std::size_t j = 0; j < b; ++j) yr[j] = acc[j];
  }
  obs::add(obs::Counter::SpmvCalls, static_cast<double>(b));
  obs::add(obs::Counter::Flops, static_cast<double>(b) * 8.0 * static_cast<double>(h.nnz()));
  obs::add(obs::Counter::BytesStreamed,
           static_cast<double>(h.nnz() * (sizeof(Complex) + sizeof(linalg::CrsMatrixZ::Index)) +
                               (h.rows() + 1) * sizeof(linalg::CrsMatrixZ::Index)) +
               2.0 * static_cast<double>(b) * static_cast<double>(h.rows()) * sizeof(Complex));
}

/// Complex vectors of one group's recursion: `block` interleaved members
/// (a ragged last group of b < block uses the length d * b prefixes).
struct HermitianWorkspace {
  std::vector<Complex> r0, prev2, prev, next;
  HermitianWorkspace(std::size_t d, std::size_t block)
      : r0(d * block), prev2(d * block), prev(d * block), next(d * block) {}
};

/// Runs a group of `b` instances' complex Chebyshev recursions from the
/// start vectors in ws.r0 in one blocked pass, adding member j's
/// Re<r0_j|r_n_j> into mu_rows[j*n, j*n + n); a single start vector is a
/// group of one.  Counted as b instances.
void hermitian_group(const linalg::CrsMatrixZ& h, std::size_t b, HermitianWorkspace& ws,
                     std::size_t n, std::span<double> mu_rows) {
  const std::size_t d = h.rows();
  const double dd = static_cast<double>(d);
  const std::size_t len = d * b;
  const std::span<const Complex> r0(ws.r0.data(), len);
  // Per-member single-lane left fold, the same order as the fused kernel's.
  auto block_dot_re = [&](std::span<const Complex> v, std::size_t j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < d; ++i)
      acc += (std::conj(r0[i * b + j]) * v[i * b + j]).real();
    return acc;
  };
  // Non-fused-call meters (the fused complex kernel meters itself):
  // complex elements are 16 bytes, complex SpMV is 8 flops per entry.
  const auto meter_dot_re = [&] {
    obs::add(obs::Counter::DotCalls, 1.0);
    obs::add(obs::Counter::Flops, 4.0 * dd);
    obs::add(obs::Counter::BytesStreamed, 2.0 * dd * sizeof(Complex));
  };

  obs::add(obs::Counter::InstancesExecuted, static_cast<double>(b));
  for (std::size_t j = 0; j < b; ++j) {
    mu_rows[j * n] += block_dot_re(r0, j);
    meter_dot_re();
  }
  if (n == 1) return;
  spmmv_z(h, b, r0, std::span<Complex>(ws.prev.data(), len));
  for (std::size_t j = 0; j < b; ++j) {
    mu_rows[j * n + 1] += block_dot_re(std::span<const Complex>(ws.prev.data(), len), j);
    meter_dot_re();
  }
  std::copy(r0.begin(), r0.end(), ws.prev2.begin());
  obs::meter_stream_bytes(2.0 * static_cast<double>(len) * sizeof(Complex));
  std::vector<double> dots(b);
  for (std::size_t k = 2; k < n; ++k) {
    linalg::spmmv_combine_dot_re(h, b, std::span<const Complex>(ws.prev.data(), len),
                                 std::span<const Complex>(ws.prev2.data(), len), r0,
                                 std::span<Complex>(ws.next.data(), len), dots);
    for (std::size_t j = 0; j < b; ++j) mu_rows[j * n + k] += dots[j];
    std::swap(ws.prev2, ws.prev);
    std::swap(ws.prev, ws.next);
  }
}

}  // namespace

MomentResult HermitianMomentEngine::compute(const linalg::CrsMatrixZ& h_tilde,
                                            const MomentParams& params,
                                            std::size_t sample_instances) const {
  params.validate();
  KPM_REQUIRE(h_tilde.rows() == h_tilde.cols(), "HermitianMomentEngine: matrix must be square");
  const std::size_t d = h_tilde.rows();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);

  obs::ScopedSpan span("moments." + name());
  const std::size_t block = params.block_r;

  // Groups of `block` instances share each matrix stream.
  MomentResult result = averaged_result(name(), d, params, executed, 1, nullptr, [&] {
    return [&, ws = HermitianWorkspace(d, block)](std::size_t first, std::size_t b,
                                                  std::span<double> rows) mutable {
      obs::add(obs::Counter::RngElements, static_cast<double>(d * b));
      for (std::size_t j = 0; j < b; ++j)
        for (std::size_t i = 0; i < d; ++i)
          ws.r0[i * b + j] = Complex{
              rng::draw_random_element(params.vector_kind, params.seed, first + j, i), 0.0};
      hermitian_group(h_tilde, b, ws, n, rows);
    };
  });
  // No platform model for the complex path (extension feature): report the
  // host wall-clock as the model time.
  result.model_seconds = result.wall_seconds;
  result.compute_seconds = result.wall_seconds;
  return result;
}

std::vector<double> ldos_moments_hermitian(const linalg::CrsMatrixZ& h_tilde, std::size_t site,
                                           std::size_t num_moments) {
  KPM_REQUIRE(h_tilde.rows() == h_tilde.cols(), "ldos_moments_hermitian: matrix must be square");
  KPM_REQUIRE(site < h_tilde.rows(), "ldos_moments_hermitian: site out of range");
  KPM_REQUIRE(num_moments >= 1, "ldos_moments_hermitian: need at least one moment");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(num_moments));
  std::vector<double> mu(num_moments, 0.0);
  HermitianWorkspace ws(h_tilde.rows(), 1);
  ws.r0[site] = Complex{1.0, 0.0};
  hermitian_group(h_tilde, 1, ws, num_moments, mu);
  return mu;
}

std::vector<double> deterministic_trace_moments_hermitian(const linalg::CrsMatrixZ& h_tilde,
                                                          std::size_t num_moments,
                                                          std::size_t block) {
  KPM_REQUIRE(num_moments >= 1, "deterministic_trace_moments_hermitian: need >= 1 moment");
  KPM_REQUIRE(h_tilde.rows() == h_tilde.cols(), "matrix must be square");
  KPM_REQUIRE(block >= 1, "deterministic_trace_moments_hermitian: block must be >= 1");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(num_moments));
  const std::size_t d = h_tilde.rows();
  const std::size_t n = num_moments;
  std::vector<double> mu(n, 0.0);
  // Basis sweep: `block` unit vectors share each matrix stream.
  run_groups(
      d, block, n, 1, nullptr,
      [&] {
        return [&, ws = HermitianWorkspace(d, block)](std::size_t first, std::size_t b,
                                                      std::span<double> rows) mutable {
          std::fill(ws.r0.begin(), ws.r0.begin() + static_cast<std::ptrdiff_t>(d * b),
                    Complex{0.0, 0.0});
          for (std::size_t j = 0; j < b; ++j) ws.r0[(first + j) * b + j] = Complex{1.0, 0.0};
          hermitian_group(h_tilde, b, ws, n, rows);
        };
      },
      [&](std::span<const double> row) {
        for (std::size_t k = 0; k < n; ++k) mu[k] += row[k];
      });
  for (double& m : mu) m /= static_cast<double>(d);
  return mu;
}

}  // namespace kpm::core

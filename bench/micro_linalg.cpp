// Real wall-clock microbenchmarks (google-benchmark) of the numeric
// kernels underlying the KPM recursion: dot, axpby, the fused Chebyshev
// combine, dense/CRS SpMV, and the blocked fused recursion step (SpMMV).
// These time the *functional* host implementations on the build machine —
// unlike the fig* benches, no platform model is involved.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/packs.hpp"
#include "core/reconstruct.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/fused_kernels.hpp"
#include "linalg/operator.hpp"
#include "linalg/sell_matrix.hpp"
#include "linalg/spectral_transform.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "rng/distributions.hpp"
#include "rng/philox.hpp"

namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = kpm::rng::u64_to_uniform(kpm::rng::philox_u64(seed, 0, i), -1.0, 1.0);
  return v;
}

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vector(n, 1);
  const auto y = random_vector(n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(kpm::linalg::dot(x, y));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(1000)->Arg(16384)->Arg(262144);

void BM_Axpby(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vector(n, 3);
  auto y = random_vector(n, 4);
  for (auto _ : state) {
    kpm::linalg::axpby(1.5, x, 0.5, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Axpby)->Arg(1000)->Arg(262144);

void BM_ChebyshevCombine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto hx = random_vector(n, 5);
  const auto prev = random_vector(n, 6);
  std::vector<double> next(n);
  for (auto _ : state) {
    kpm::linalg::chebyshev_combine(hx, prev, next);
    benchmark::DoNotOptimize(next.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChebyshevCombine)->Arg(1000)->Arg(262144);

void BM_SpmvCrsCubicLattice(benchmark::State& state) {
  const auto edge = static_cast<std::size_t>(state.range(0));
  const auto lat = kpm::lattice::HypercubicLattice::cubic(edge, edge, edge);
  const auto h = kpm::lattice::build_tight_binding_crs(lat);
  const auto x = random_vector(h.cols(), 7);
  std::vector<double> y(h.rows());
  for (auto _ : state) {
    h.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.nnz()));
}
BENCHMARK(BM_SpmvCrsCubicLattice)->Arg(10)->Arg(16)->Arg(24);

/// One blocked fused recursion step, spmmv_combine_dot: B interleaved
/// members share one matrix stream (Kreutzer/Hager/Wellein,
/// arXiv:1410.5242).  Bytes are the kernel's own metered model (FusedBytes
/// of one call), so bytes_per_second is the achieved bandwidth at width B.
/// Args: cubic lattice edge (16: the 4 KiB-per-member vectors sit in L2;
/// 48: tens of MB, beyond L2), B, storage (0 = CRS, 1 = SELL-32-32).  The
/// label names the storage and the pack body that ran (e.g. crs/avx2).
void BM_SpmmvCombineDot(benchmark::State& state) {
  const auto edge = static_cast<std::size_t>(state.range(0));
  const auto b = static_cast<std::size_t>(state.range(1));
  const bool sell = state.range(2) != 0;
  const auto lat = kpm::lattice::HypercubicLattice::cubic(edge, edge, edge);
  const auto crs = kpm::lattice::build_tight_binding_crs(lat);
  const auto sell_matrix = kpm::linalg::SellMatrix::from_crs(crs);
  const kpm::linalg::MatrixOperator op =
      sell ? kpm::linalg::MatrixOperator(sell_matrix) : kpm::linalg::MatrixOperator(crs);
  const std::size_t n = op.dim() * b;
  const auto prev = random_vector(n, 10);
  const auto prev2 = random_vector(n, 11);
  const auto r0 = random_vector(n, 12);
  std::vector<double> next(n), dots(b);
  kpm::obs::Report report;
  {
    kpm::obs::Collect collect(report);
    kpm::linalg::spmmv_combine_dot(op, b, prev, prev2, r0, next, dots);
  }
  const double step_bytes = report.counters.get(kpm::obs::Counter::FusedBytes);
  for (auto _ : state) {
    kpm::linalg::spmmv_combine_dot(op, b, prev, prev2, r0, next, dots);
    benchmark::DoNotOptimize(next.data());
    benchmark::DoNotOptimize(dots.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(static_cast<double>(state.iterations()) *
                                                    step_bytes));
  state.SetLabel(std::string(sell ? "sell/" : "crs/") + kpm::linalg::member_pack_body(b));
}
BENCHMARK(BM_SpmmvCombineDot)
    ->ArgNames({"edge", "B", "sell"})
    ->ArgsProduct({{16, 48}, {1, 2, 4, 8, 16, 32}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_SpmvDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto h = kpm::lattice::random_symmetric_dense(n, 8);
  const auto x = random_vector(n, 9);
  std::vector<double> y(n);
  for (auto _ : state) {
    h.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpmvDense)->Arg(128)->Arg(512)->Arg(1024);

void BM_PhiloxFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> v(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i)
      v[i] = kpm::rng::draw_random_element(kpm::rng::RandomVectorKind::Rademacher, 42, 1, i);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PhiloxFill)->Arg(1000)->Arg(262144);

/// Direct (batched Clenshaw) vs FFT reconstruction of the same curve, at
/// serve-replay's shapes.  Args: moments N, grid points M.  Items are
/// point-terms (M * N, the Clenshaw work) for both, so their rates compare
/// directly; ns per point-term is 1e9 / items_per_second.  The direct
/// label names the Clenshaw pack body that ran (avx2 or sse2).
template <auto Reconstruct>
void reconstruct_bench(benchmark::State& state, const char* label) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  std::vector<double> mu(n);
  const double theta0 = std::acos(0.37);
  for (std::size_t k = 0; k < n; ++k) mu[k] = std::cos(static_cast<double>(k) * theta0);
  const kpm::linalg::SpectralTransform t({-1.0, 1.0}, 0.0);
  kpm::core::ReconstructOptions opts;
  opts.points = m;
  for (auto _ : state) benchmark::DoNotOptimize(Reconstruct(mu, t, opts));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * n));
  state.SetLabel(label);
}

void BM_ReconstructDirect(benchmark::State& state) {
  reconstruct_bench<kpm::core::reconstruct_dos>(state, kpm::avx2_packs() ? "avx2" : "sse2");
}
BENCHMARK(BM_ReconstructDirect)->ArgNames({"N", "M"})->ArgsProduct({{128, 256}, {1024, 4096}});

void BM_ReconstructFft(benchmark::State& state) {
  reconstruct_bench<kpm::core::reconstruct_dos_fft>(state, "fft");
}
BENCHMARK(BM_ReconstructFft)->ArgNames({"N", "M"})->ArgsProduct({{128, 256}, {1024, 4096}});

}  // namespace

BENCHMARK_MAIN();

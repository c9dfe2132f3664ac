// Golden-metrics regression suite: a fixed-seed 1D-chain DoS run must
// produce EXACT operation counts on every engine, identical across repeated
// runs and thread counts, with the fused kernels' measured traffic matching
// the roofline model's prediction byte-for-byte.
//
// All expectations are derived from the operator's own accessors
// (spmv_flops, spmv_matrix_bytes) and core::fused_step_workload — no magic
// numbers — so the test fails loudly if either the instrumentation or the
// cost model drifts from the other.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/ldos.hpp"
#include "core/moments_cpu.hpp"
#include "core/moments_f32.hpp"
#include "core/moments_gpu.hpp"
#include "core/moments_gpu_chunked.hpp"
#include "core/moments_hermitian.hpp"
#include "core/reconstruct.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "lattice/peierls.hpp"
#include "linalg/hermitian_matrix.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace {

using namespace kpm;
using obs::Counter;

/// The golden workload: 32-site chain, N=16 moments, R=2 x S=2 instances.
struct Golden {
  linalg::CrsMatrix h_tilde;
  core::MomentParams params;

  Golden() {
    const auto lat = lattice::HypercubicLattice::chain(32);
    const auto h = lattice::build_tight_binding_crs(lat);
    linalg::MatrixOperator raw(h);
    h_tilde = linalg::rescale(h, linalg::make_spectral_transform(raw));
    params.num_moments = 16;
    params.random_vectors = 2;
    params.realizations = 2;
    params.seed = 7;
  }

  [[nodiscard]] std::size_t instances() const { return params.instances(); }
  [[nodiscard]] std::size_t moments() const { return params.num_moments; }
};

/// Runs `fn` under a fresh counter sink and returns what it recorded.
template <typename F>
obs::CounterSet collect(F&& fn) {
  obs::CounterSet sink;
  obs::CounterScope scope(sink);
  fn();
  return sink;
}

/// Runs `fn` under a full report (counters + trace + histograms + timelines).
template <typename F>
obs::Report collect_report(std::string label, F&& fn) {
  obs::Report report;
  report.label = std::move(label);
  {
    obs::Collect scope(report);
    fn();
  }
  return report;
}

TEST(GoldenMetrics, SerialEngineCountsAreExact) {
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto counts = collect([&] { (void)core::CpuMomentEngine().compute(op, g.params); });

  const auto i = static_cast<double>(g.instances());
  const auto n = static_cast<double>(g.moments());
  const auto d = static_cast<double>(op.dim());
  const double sf = static_cast<double>(op.spmv_flops());
  const double mb = static_cast<double>(op.spmv_matrix_bytes());
  const auto step = core::fused_step_workload(op, /*dots=*/1);

  EXPECT_EQ(counts[Counter::InstancesExecuted], i);
  EXPECT_EQ(counts[Counter::MomentsProduced], n);
  EXPECT_EQ(counts[Counter::RngElements], i * d);
  // Per instance: 1 explicit SpMV (r1) + (N-2) fused steps.
  EXPECT_EQ(counts[Counter::SpmvCalls], i * (n - 1.0));
  // Per instance: mu~_0, mu~_1 dots + one fused dot per remaining moment.
  EXPECT_EQ(counts[Counter::DotCalls], i * n);
  EXPECT_EQ(counts[Counter::FusedCalls], i * (n - 2.0));
  // Flops: two plain dots + the r1 SpMV + (N-2) fused steps.
  EXPECT_EQ(counts[Counter::Flops], i * (2.0 * d + sf + 2.0 * d + (n - 2.0) * step.flops));
  // Bytes: dots (2 vectors each) + SpMV (matrix + 2 vectors) + r0 copy +
  // (N-2) fused passes.
  EXPECT_EQ(counts[Counter::BytesStreamed],
            i * (16.0 * d + (mb + 16.0 * d) + 16.0 * d + 16.0 * d +
                 (n - 2.0) * step.bytes_streamed));
  // The GPU-side counters must stay untouched by a pure host run.
  EXPECT_EQ(counts[Counter::GpuKernelLaunches], 0.0);
  EXPECT_EQ(counts[Counter::GpuFlops], 0.0);
}

TEST(GoldenMetrics, FusedTrafficMatchesRooflinePrediction) {
  // The cross-check the fused counters exist for: measured fused-kernel
  // bytes == fused_calls x the roofline model's predicted bytes/step
  // (4D doubles of vector traffic + the matrix, for the one-dot kernel).
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto counts = collect([&] { (void)core::CpuMomentEngine().compute(op, g.params); });

  const auto prediction = core::fused_step_workload(op, /*dots=*/1);
  const double d = static_cast<double>(op.dim());
  EXPECT_EQ(prediction.bytes_streamed,
            static_cast<double>(op.spmv_matrix_bytes()) + 4.0 * d * sizeof(double));
  EXPECT_EQ(counts[Counter::FusedBytes],
            counts[Counter::FusedCalls] * prediction.bytes_streamed);
}

TEST(GoldenMetrics, RepeatedRunsAreBitIdentical) {
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto first = collect([&] { (void)core::CpuMomentEngine().compute(op, g.params); });
  const auto second = collect([&] { (void)core::CpuMomentEngine().compute(op, g.params); });
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(GoldenMetrics, ParallelEngineMatchesSerialAtEveryThreadCount) {
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto serial = collect([&] { (void)core::CpuMomentEngine().compute(op, g.params); });
  for (int threads : {1, 2, 4, 7}) {
    const auto par = collect(
        [&] { (void)core::CpuParallelMomentEngine(threads).compute(op, g.params); });
    EXPECT_EQ(par, serial) << "threads=" << threads;
  }
}

TEST(GoldenMetrics, GpuEnginesReportSerialFunctionalWork) {
  // The GPU engines execute the same functional work as the serial
  // reference; instances, moments, SpMV and dot counts must agree exactly.
  // Modeled totals live in the gpu_* counters, leaving host flops/bytes 0.
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto i = static_cast<double>(g.instances());
  const auto n = static_cast<double>(g.moments());
  const auto d = static_cast<double>(op.dim());

  core::GpuEngineConfig thread_cfg;
  thread_cfg.mapping = core::GpuMapping::InstancePerThread;
  core::GpuMomentEngine block_engine;
  core::GpuMomentEngine thread_engine(thread_cfg);
  core::ChunkedGpuMomentEngine chunked_engine;

  const auto check = [&](const obs::CounterSet& counts, const char* label) {
    EXPECT_EQ(counts[Counter::InstancesExecuted], i) << label;
    EXPECT_EQ(counts[Counter::MomentsProduced], n) << label;
    EXPECT_EQ(counts[Counter::RngElements], i * d) << label;
    EXPECT_EQ(counts[Counter::SpmvCalls], i * (n - 1.0)) << label;
    EXPECT_EQ(counts[Counter::DotCalls], i * n) << label;
    EXPECT_EQ(counts[Counter::Flops], 0.0) << label << ": host flops must stay zero";
    EXPECT_EQ(counts[Counter::BytesStreamed], 0.0) << label;
    EXPECT_GT(counts[Counter::GpuKernelLaunches], 0.0) << label;
    EXPECT_GT(counts[Counter::GpuFlops], 0.0) << label;
    EXPECT_GT(counts[Counter::GpuGlobalBytes], 0.0) << label;
    EXPECT_GT(counts[Counter::GpuBytesH2D], 0.0) << label;
    EXPECT_GT(counts[Counter::GpuBytesD2H], 0.0) << label;
  };

  check(collect([&] { (void)block_engine.compute(op, g.params); }), "block");
  check(collect([&] { (void)thread_engine.compute(op, g.params); }), "thread");
  check(collect([&] { (void)chunked_engine.compute(op, g.params); }), "chunked");

  // The modeled counters come from the deterministic gpusim timeline, so
  // repeated runs agree bit-for-bit on every counter.
  const auto first = collect([&] { (void)block_engine.compute(op, g.params); });
  const auto second = collect([&] { (void)block_engine.compute(op, g.params); });
  EXPECT_EQ(first, second);
}

TEST(GoldenMetrics, PairedEnginesAgreeOnHalvedSpmvCount) {
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto i = static_cast<double>(g.instances());
  const double half = static_cast<double>((g.moments() + 1) / 2);

  const auto cpu = collect([&] { (void)core::CpuPairedMomentEngine().compute(op, g.params); });
  EXPECT_EQ(cpu[Counter::SpmvCalls], i * half);
  EXPECT_EQ(cpu[Counter::InstancesExecuted], i);
  EXPECT_EQ(cpu[Counter::FusedCalls], i * (half - 1.0));

  core::GpuEngineConfig cfg;
  cfg.paired_moments = true;
  core::GpuMomentEngine gpu(cfg);
  const auto dev = collect([&] { (void)gpu.compute(op, g.params); });
  EXPECT_EQ(dev[Counter::SpmvCalls], cpu[Counter::SpmvCalls]);
  EXPECT_EQ(dev[Counter::InstancesExecuted], cpu[Counter::InstancesExecuted]);
}

TEST(GoldenMetrics, F32EngineMatchesSerialCallCounts) {
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto i = static_cast<double>(g.instances());
  const auto n = static_cast<double>(g.moments());
  const auto d = static_cast<double>(op.dim());

  const auto f32 = collect([&] { (void)core::CpuMomentEngineF32().compute(op, g.params); });
  EXPECT_EQ(f32[Counter::InstancesExecuted], i);
  EXPECT_EQ(f32[Counter::MomentsProduced], n);
  EXPECT_EQ(f32[Counter::RngElements], i * d);
  EXPECT_EQ(f32[Counter::SpmvCalls], i * (n - 1.0));
  EXPECT_EQ(f32[Counter::DotCalls], i * n);
  // The f32 path is unfused, so it records no fused-kernel calls ...
  EXPECT_EQ(f32[Counter::FusedCalls], 0.0);
  // ... but executes the same arithmetic as the double reference.
  const auto serial = collect([&] { (void)core::CpuMomentEngine().compute(op, g.params); });
  EXPECT_EQ(f32[Counter::Flops], serial[Counter::Flops]);
  // Exact binary32 traffic: n dots + (n-1) SpMVs (half-width matrix,
  // 4-byte vectors) + the r0 copy + (n-2) combine passes.
  const double mb = static_cast<double>(op.spmv_matrix_bytes());
  EXPECT_EQ(f32[Counter::BytesStreamed],
            i * (n * 8.0 * d + (n - 1.0) * (mb / 2.0 + 8.0 * d) + 8.0 * d +
                 (n - 2.0) * 12.0 * d));
}

/// The call counts every blocked host loop records for `i` instances of
/// `n` moments in groups of `block`: one r1 SpMV and (n - 2) fused steps
/// per instance, one dot per moment, and one fused pass per group step.
void expect_loop_counts(const obs::CounterSet& c, double i, double rng, double n,
                        std::size_t block, double moments, const std::string& label) {
  EXPECT_EQ(c[Counter::InstancesExecuted], i) << label;
  EXPECT_EQ(c[Counter::RngElements], rng) << label;
  EXPECT_EQ(c[Counter::SpmvCalls], i * (n - 1.0)) << label;
  EXPECT_EQ(c[Counter::DotCalls], i * n) << label;
  EXPECT_EQ(c[Counter::FusedCalls], std::ceil(i / static_cast<double>(block)) * (n - 2.0))
      << label;
  EXPECT_EQ(c[Counter::MomentsProduced], moments) << label;
}

TEST(GoldenMetrics, HostLoopCountsAreExactAtEveryBlock) {
  // The Hermitian engine, both deterministic traces and LDOS site groups on
  // D = 16 operators: I = 7 random instances, D unit starts, or B sites.
  constexpr std::size_t kDim = 16;
  constexpr double d = kDim;
  constexpr double n = 12.0;
  const auto h = lattice::build_tight_binding_crs(lattice::HypercubicLattice::chain(kDim));
  const linalg::MatrixOperator raw(h);
  const auto h_tilde = linalg::rescale(h, linalg::make_spectral_transform(raw));
  const linalg::MatrixOperator op(h_tilde);
  const auto hz = lattice::build_square_flux_crs(4, 4, 0.25);
  const auto hz_tilde = linalg::rescale(hz, linalg::SpectralTransform(hz.gershgorin(), 0.02));
  ASSERT_EQ(op.dim(), kDim);
  ASSERT_EQ(hz_tilde.rows(), kDim);

  for (const std::size_t block : {1u, 3u, 8u}) {
    const std::string at = " B=" + std::to_string(block);
    core::MomentParams p;
    p.num_moments = 12;
    p.random_vectors = 7;
    p.realizations = 1;
    p.block_r = block;
    expect_loop_counts(collect([&] { (void)core::HermitianMomentEngine().compute(hz_tilde, p); }),
                       7.0, 7.0 * d, n, block, n, "hermitian engine" + at);
    expect_loop_counts(collect([&] { (void)core::deterministic_trace_moments(op, 12, block); }),
                       d, 0.0, n, block, n, "trace" + at);
    expect_loop_counts(
        collect([&] { (void)core::deterministic_trace_moments_hermitian(hz_tilde, 12, block); }),
        d, 0.0, n, block, n, "hermitian trace" + at);
    std::vector<std::size_t> sites(block);
    for (std::size_t j = 0; j < block; ++j) sites[j] = (5 * j) % kDim;
    const auto b = static_cast<double>(block);
    expect_loop_counts(collect([&] { (void)core::ldos_moments_sites(op, sites, 12); }), b, 0.0,
                       n, block, b * n, "ldos sites" + at);
  }
  expect_loop_counts(collect([&] { (void)core::ldos_moments_hermitian(hz_tilde, 5, 12); }), 1.0,
                     0.0, n, 1, n, "hermitian ldos");
}

TEST(GoldenMetrics, InstanceHistogramsAreExactAndThreadInvariant) {
  // Every engine records one instance_model_ns sample per executed
  // instance, and the per-lane histogram shards reduce to bit-identical
  // totals at every thread count — the same discipline as the counters.
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto serial = collect_report(
      "golden", [&] { (void)core::CpuMomentEngine().compute(op, g.params); });
  const obs::Histogram& inst = serial.histograms[obs::Histo::InstanceModelNs];
  EXPECT_EQ(inst.count(), g.instances());
  EXPECT_EQ(inst.min(), inst.max()) << "identical instances must model identical cost";
  EXPECT_GT(inst.sum(), 0u);

  for (int threads : {1, 2, 4, 7}) {
    const auto par = collect_report("golden", [&] {
      (void)core::CpuParallelMomentEngine(threads).compute(op, g.params);
    });
    EXPECT_EQ(par.histograms[obs::Histo::InstanceModelNs],
              serial.histograms[obs::Histo::InstanceModelNs])
        << "threads=" << threads;
    EXPECT_EQ(par.counters, serial.counters) << "threads=" << threads;
  }
}

TEST(GoldenMetrics, DeterministicFingerprintIsThreadAndRunInvariant) {
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  // Same engine, same thread count, two runs: the deterministic projection
  // (counters + deterministic histograms + span structure) must not leak
  // any wall time.
  const auto run = [&](int threads) {
    return obs::deterministic_fingerprint(collect_report("golden", [&] {
      (void)core::CpuParallelMomentEngine(threads).compute(op, g.params);
    }));
  };
  EXPECT_EQ(run(4), run(4));
  // The parallel engine's span is named "moments.cpu-parallel" with no
  // thread suffix precisely so this holds RAW — no normalisation: the
  // serving layer's replay fingerprints depend on it.
  const std::string reference = run(1);
  for (int threads : {2, 4, 7}) EXPECT_EQ(run(threads), reference);
}

TEST(GoldenMetrics, GpuReportIsFullyDeterministic) {
  // The chunked GPU engine's whole report — counters, kernel/transfer
  // histograms, modeled spans and the captured device timeline — is modeled
  // simulator state, so repeated runs agree byte-for-byte.
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto run = [&] {
    return collect_report("golden-gpu", [&] {
      (void)core::ChunkedGpuMomentEngine().compute(op, g.params);
    });
  };
  const obs::Report first = run();
  const obs::Report second = run();

  ASSERT_EQ(first.timelines.size(), 1u);
  EXPECT_FALSE(first.timelines.front().events.empty());
  EXPECT_EQ(first.timelines.front().streams, 2u);
  EXPECT_EQ(static_cast<double>(first.histograms[obs::Histo::KernelModelNs].count()),
            first.counters[Counter::GpuKernelLaunches]);
  EXPECT_GT(first.histograms[obs::Histo::TransferBytes].count(), 0u);
  EXPECT_EQ(first.histograms[obs::Histo::TransferBytes].sum(),
            static_cast<std::uint64_t>(first.counters[Counter::GpuBytesH2D] +
                                       first.counters[Counter::GpuBytesD2H]));

  EXPECT_EQ(obs::deterministic_fingerprint(first), obs::deterministic_fingerprint(second));
}

TEST(GoldenMetrics, ReconstructionCountsAreExact) {
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto result = core::CpuMomentEngine().compute(op, g.params);
  const linalg::SpectralTransform transform({-1.0, 1.0});

  const auto counts = collect([&] {
    (void)core::reconstruct_dos(result.mu, transform, {.points = 21});
  });
  EXPECT_EQ(counts[Counter::ReconstructPoints], 21.0);
  // Clenshaw: 4 flops per moment per evaluation point.
  EXPECT_EQ(counts[Counter::Flops], 4.0 * 21.0 * static_cast<double>(g.moments()));
}

TEST(GoldenMetrics, SampledRunCountsScaleWithExecutedInstances) {
  Golden g;
  linalg::MatrixOperator op(g.h_tilde);
  const auto n = static_cast<double>(g.moments());
  const auto counts =
      collect([&] { (void)core::CpuMomentEngine().compute(op, g.params, /*sample=*/2); });
  EXPECT_EQ(counts[Counter::InstancesExecuted], 2.0);
  EXPECT_EQ(counts[Counter::SpmvCalls], 2.0 * (n - 1.0));
}

/// The golden serve workload: every admission-control path is taken exactly
/// once per the scheduler's documented rules, so all serve_* counters have
/// closed-form expectations.
std::vector<serve::Request> golden_serve_workload() {
  auto dos = [](std::uint64_t id, double arrival, std::uint64_t seed, std::size_t n,
                std::size_t points) {
    serve::DosRequest r;
    r.id = id;
    r.model = "m";
    r.arrival_seconds = arrival;
    r.moments.num_moments = n;
    r.moments.random_vectors = 2;
    r.moments.realizations = 2;
    r.moments.seed = seed;
    r.reconstruct.points = points;
    return r;
  };
  serve::LdosRequest ldos;
  ldos.id = 4;
  ldos.model = "m";
  ldos.arrival_seconds = 1e-6;
  ldos.moments.num_moments = 64;
  ldos.site = 7;
  return {dos(1, 0.0, 5, 128, 32),   // batch 0 (head of line)
          dos(2, 1e-6, 11, 64, 32),  // batch 1 head ...
          dos(3, 1e-6, 11, 64, 48),  // ... same key: coalesces with id 2
          ldos,                      // own batch
          dos(5, 1e-6, 13, 64, 32),  // queue full -> degraded to N=32
          dos(6, 1e-6, 17, 64, 32),  // degraded
          dos(7, 1e-6, 19, 64, 32),  // degraded
          dos(8, 1e-6, 23, 64, 32),  // 2x hard bound -> rejected
          dos(9, 100.0, 11, 64, 24)};  // repeat of id 2's key -> cache hit
}

TEST(GoldenMetrics, ServeSchedulerCountsAreExact) {
  serve::ServeConfig config;
  config.workers = 2;
  config.max_queue = 3;
  config.max_batch = 3;
  config.degrade_floor = 16;

  obs::Report report;
  {
    obs::Collect collect(report);
    serve::Server server(config);
    server.register_model("m", lattice::build_tight_binding_crs(
                                   lattice::HypercubicLattice::square(6, 6), {},
                                   lattice::anderson_disorder(1.0, 3)));
    (void)server.run(golden_serve_workload());
  }
  const obs::CounterSet& c = report.counters;
  EXPECT_EQ(c[Counter::ServeRequests], 9.0);
  EXPECT_EQ(c[Counter::ServeBatches], 7.0);
  EXPECT_EQ(c[Counter::ServeCoalesced], 1.0);
  EXPECT_EQ(c[Counter::ServeCacheMisses], 6.0);
  EXPECT_EQ(c[Counter::ServeCacheHits], 1.0);
  EXPECT_EQ(c[Counter::ServeCacheEvictions], 0.0);
  EXPECT_EQ(c[Counter::ServeShedRejected], 1.0);
  EXPECT_EQ(c[Counter::ServeShedDegraded], 3.0);
  EXPECT_EQ(c[Counter::ServeShedExpired], 0.0);
  // One occupancy sample per batch; their sum is the served request count.
  EXPECT_EQ(report.histograms[obs::Histo::ServeBatchOccupancy].count(), 7u);
  EXPECT_EQ(report.histograms[obs::Histo::ServeBatchOccupancy].sum(), 8u);
  EXPECT_EQ(report.histograms[obs::Histo::ServeWaitNs].count(), 8u);
}

TEST(GoldenMetrics, ServeReplayFingerprintIsWorkerAndRunInvariant) {
  const auto requests = golden_serve_workload();
  const auto h = lattice::build_tight_binding_crs(lattice::HypercubicLattice::square(6, 6),
                                                  {}, lattice::anderson_disorder(1.0, 3));
  const auto fingerprint = [&](std::size_t workers) {
    serve::ServeConfig config;
    config.workers = workers;
    config.max_queue = 3;
    config.max_batch = 3;
    config.degrade_floor = 16;
    obs::Report report;
    {
      obs::Collect collect(report);
      serve::Server server(config);
      server.register_model("m", h);
      (void)server.run(requests);
      report.sections.push_back({"serve", server.section_json()});
    }
    return obs::deterministic_fingerprint(report);
  };
  const std::string reference = fingerprint(1);
  EXPECT_EQ(fingerprint(1), reference) << "same workload, same bytes";
  for (const std::size_t workers : {2u, 4u, 7u})
    EXPECT_EQ(fingerprint(workers), reference) << "workers=" << workers;
}

}  // namespace

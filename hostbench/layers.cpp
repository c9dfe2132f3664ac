// Layer attribution shared by the workloads: kernel and RNG replays, the
// engine split, obs counters and the Perfetto trace of a traced run.
#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/moments_cpu.hpp"
#include "hostbench.hpp"
#include "linalg/fused_kernels.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/report.hpp"

namespace hostbench {

using namespace kpm;

/// Re-issues, call by call, the random fills and the recursion kernels the
/// CPU reference engine runs for the first `instances` instances of `p`
/// (groups of p.block_r members; B = 1 uses the single-vector kernels), adding
/// their times to rng.fill_s / linalg.kernel_s and their work to `work`.
void replay_cpu_engine(const linalg::MatrixOperator& op, const core::MomentParams& p,
                       std::size_t instances, obs::CounterSet& work, Outcome& out) {
  const std::size_t d = op.dim();
  const std::size_t n = p.num_moments;
  const std::size_t block = p.block_r;
  std::vector<double> r0(d * block), prev2(d * block), prev(d * block), next(d * block);
  std::vector<double> dots(block);
  obs::CounterScope scope(work);
  obs::ScopedSpan replay("replay.cpu-engine");
  for (std::size_t first = 0; first < instances; first += block) {
    const std::size_t b = std::min(block, instances - first);
    const std::size_t len = d * b;
    const auto sub = [len](std::vector<double>& v) { return std::span<double>(v.data(), len); };
    out.values["rng.fill_s"] += obs::timed("rng.fill", [&] {
      if (block == 1)
        core::fill_random_vector(p, first, sub(r0));
      else
        core::fill_random_vector_block(p, first, b, sub(r0));
    });
    std::copy_n(r0.begin(), len, prev2.begin());
    out.values["linalg.kernel_s"] += obs::timed("linalg.kernel", [&] {
      if (block == 1) {
        op.multiply(sub(r0), sub(prev));
        obs::meter_spmv(op.spmv_flops(), op.spmv_matrix_bytes(), d);
        for (std::size_t k = 2; k < n; ++k) {
          dots[0] = linalg::spmv_combine_dot(op, sub(prev), sub(prev2), sub(r0), sub(next));
          std::swap(prev2, prev);
          std::swap(prev, next);
        }
      } else {
        linalg::spmmv_multiply(op, b, sub(r0), sub(prev));
        for (std::size_t k = 2; k < n; ++k) {
          linalg::spmmv_combine_dot(op, b, sub(prev), sub(prev2), sub(r0), sub(next),
                                    std::span<double>(dots.data(), b));
          std::swap(prev2, prev);
          std::swap(prev, next);
        }
      }
    });
  }
  KPM_REQUIRE(std::isfinite(dots[0]), "kernel replay produced a non-finite dot");
}

/// Adds the kernel rates and the engine's unexplained remainder to `out`,
/// from the per-pass layer times and the kernel work `work` replayed over
/// `passes` passes.
void add_engine_split(const obs::CounterSet& work, std::size_t passes, Outcome& out) {
  const double kernel_s = out.values["linalg.kernel_s"] * static_cast<double>(passes);
  out.values["linalg.kernel_gbs"] = work.get(obs::Counter::BytesStreamed) / kernel_s / 1e9;
  out.values["linalg.kernel_gflops"] = work.get(obs::Counter::Flops) / kernel_s / 1e9;
  out.values["core.driver_s"] = out.values["core.engine_s"] - out.values["linalg.kernel_s"] -
                                out.values["rng.fill_s"];
}

void add_counters(const obs::Report& report, double passes, Outcome& out) {
  const auto per_pass = [&](obs::Counter c) { return report.counters.get(c) / passes; };
  out.values["linalg.fused_calls"] = per_pass(obs::Counter::FusedCalls);
  out.values["linalg.fused_bytes"] = per_pass(obs::Counter::FusedBytes);
  out.values["rng.elements"] = per_pass(obs::Counter::RngElements);
  out.values["core.reconstruct_points"] = per_pass(obs::Counter::ReconstructPoints);
  out.values["gpusim.kernel_launches"] = per_pass(obs::Counter::GpuKernelLaunches);
  out.values["gpusim.global_bytes"] = per_pass(obs::Counter::GpuGlobalBytes);
}

void write_trace(const Options& o, const obs::Report& report) {
  if (!o.trace_dir.empty())
    obs::write_chrome_trace(report, o.trace_dir + "/" + o.workload + ".trace.json");
}

}  // namespace hostbench

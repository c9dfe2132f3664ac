// CPU moment engines.
//
// `CpuMomentEngine` is the faithful serial reference of the paper's Fig. 3
// algorithm: per instance, |r0> = |r>, |r1> = H~|r0>, |r_n> = 2 H~ |r_{n-1}>
// - |r_{n-2}>, mu~_n = <r0|r_n>, averaged over all instances.  It is the
// ground truth every other engine is tested against, and its operation
// counts drive the Core i7-930 roofline model that stands in for the
// paper's measured CPU times.
//
// Every CPU engine runs its instances in groups of B = MomentParams::block_r
// through the blocked (SpMMV) kernels, one matrix stream per group step; a
// single instance is a group of one, and there is no separate per-vector
// loop.  `CpuMomentEngine` and `CpuParallelMomentEngine` share one group
// driver, built on accumulate_group below, and differ only in name, trace
// span and serial vs parallel roofline.
//
// `CpuPairedMomentEngine` implements the standard KPM optimization (Weisse
// et al. §II.D, the paper's Ref. [10]) of extracting two moments per matrix
// -vector product via
//     mu~_{2n}   = 2 <r_n | r_n>     - mu~_0
//     mu~_{2n+1} = 2 <r_{n+1} | r_n> - mu~_1
// halving the SpMV count for the same N — the ablation the
// `ablation_moment_pairs` bench quantifies.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cpumodel/cpu_spec.hpp"
#include "cpumodel/roofline.hpp"
#include "core/moments.hpp"

namespace kpm::common {
class ThreadPool;
}

namespace kpm::core {

/// Serial reference engine (one moment per SpMV).
class CpuMomentEngine final : public MomentEngine {
 public:
  explicit CpuMomentEngine(cpumodel::CpuSpec spec = cpumodel::CpuSpec::core_i7_930());

  [[nodiscard]] std::string name() const override { return "cpu-reference"; }

  [[nodiscard]] MomentResult compute(const linalg::MatrixOperator& h_tilde,
                                     const MomentParams& params,
                                     std::size_t sample_instances = 0) override;

 private:
  cpumodel::CpuSpec spec_;
};

/// Paired-moment engine (two moments per SpMV).
class CpuPairedMomentEngine final : public MomentEngine {
 public:
  explicit CpuPairedMomentEngine(cpumodel::CpuSpec spec = cpumodel::CpuSpec::core_i7_930());

  [[nodiscard]] std::string name() const override { return "cpu-paired"; }

  [[nodiscard]] MomentResult compute(const linalg::MatrixOperator& h_tilde,
                                     const MomentParams& params,
                                     std::size_t sample_instances = 0) override;

 private:
  cpumodel::CpuSpec spec_;
};

/// Multithreaded CPU engine — the paper's §V "shared memory paradigm"
/// future work, executed for real.  The three-term recursion itself is
/// sequential (the fine-grain parallelization problem the paper
/// describes), so this engine statically partitions the groups of B
/// independent instances across a kpm::common::ThreadPool.  Each instance
/// writes its mu~ contributions to a private row which the calling thread
/// then sums in instance order, so the result is BIT-IDENTICAL to the
/// serial reference for any thread count (see docs/performance.md).
/// `wall_seconds` measures the actual multithreaded run; the roofline
/// model additionally scales compute with cores and saturates shared
/// bandwidth, exposing why the 2011 answer was "buy a GPU" rather than
/// "use four cores" for the DRAM-bound sizes.
class CpuParallelMomentEngine final : public MomentEngine {
 public:
  explicit CpuParallelMomentEngine(int threads,
                                   cpumodel::CpuSpec spec = cpumodel::CpuSpec::core_i7_930());
  ~CpuParallelMomentEngine() override;

  [[nodiscard]] std::string name() const override {
    return "cpu-parallel-x" + std::to_string(threads_);
  }

  /// Configured worker count (the pool spawns threads - 1 OS threads; the
  /// caller participates as the remaining lane).
  [[nodiscard]] int threads() const noexcept { return threads_; }

  [[nodiscard]] MomentResult compute(const linalg::MatrixOperator& h_tilde,
                                     const MomentParams& params,
                                     std::size_t sample_instances = 0) override;

 private:
  int threads_;
  cpumodel::CpuSpec spec_;
  std::unique_ptr<common::ThreadPool> pool_;  ///< lazily created, reused across computes
};

/// Shared helper: fills `r0` with the instance's random vector elements
/// xi_{stream, i} (counter-based; identical across engines and platforms).
void fill_random_vector(const MomentParams& params, std::uint64_t stream, std::span<double> r0);

/// Blocked variant: fills the interleaved block `r0_block` (size dim *
/// block) so that member j holds EXACTLY the vector fill_random_vector
/// produces for stream `first_stream + j` — element i of member j at
/// r0_block[i * block + j].  Blocked engines therefore consume the same
/// per-instance random vectors as the serial reference.
void fill_random_vector_block(const MomentParams& params, std::uint64_t first_stream,
                              std::size_t block, std::span<double> r0_block);

/// Resolves the sampling request: returns min(sample == 0 ? total : sample,
/// total) and requires total > 0.
[[nodiscard]] std::size_t resolve_sample_count(std::size_t sample, std::size_t total);

/// Vectors of one instance group's recursion: `block` interleaved members
/// (a ragged last group of b < block uses the length dim * b prefixes).
struct GroupWorkspace {
  std::vector<double> r0, r_prev2, r_prev, r_next, dots;
  GroupWorkspace(std::size_t dim, std::size_t block);
};

/// Runs instances [first, first + b), b <= the workspace's block, as one
/// blocked recursion — steps (1), (2), (2.1), (2.2) of the paper's Fig. 3 —
/// adding member j's mu~ contributions into mu_rows[j*N, j*N + N), N =
/// params.num_moments.  This is the one recursion of the reference engines
/// and of estimate_moment_statistics, and it meters everything it runs:
/// instances, RNG elements, dots and kernel passes.  Member j draws RNG
/// stream first + j, so no result depends on the grouping or the thread.
void accumulate_group(const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                      std::size_t first, std::size_t b, GroupWorkspace& ws,
                      std::span<double> mu_rows);

/// Roofline workload of ONE fused recursion step (SpMV + Chebyshev combine
/// + `dots` fused dot products) — the 4D-doubles/step vector-traffic model
/// the engines charge per step.  The fused kernels record exactly this
/// flop/byte model into the obs counters, so measured `fused_bytes` can be
/// cross-checked against `fused_calls * fused_step_workload(...).bytes_streamed`
/// (see tests/test_golden_metrics.cpp).
[[nodiscard]] cpumodel::CpuWorkload fused_step_workload(const linalg::MatrixOperator& op,
                                                        std::size_t dots,
                                                        std::size_t block = 1);

/// Modeled *serial* reference-engine seconds for `instances` instances of
/// `num_moments` moments on `op` — the same roofline model CpuMomentEngine
/// charges.  Deliberately independent of any thread count: the serving
/// layer uses this as the simulated service time so scheduling decisions
/// (and the replay fingerprint) are identical at any worker count.
[[nodiscard]] double modeled_reference_seconds(
    const linalg::MatrixOperator& op, std::size_t num_moments, std::size_t instances,
    const cpumodel::CpuSpec& spec = cpumodel::CpuSpec::core_i7_930());

/// Modeled serial ns ticks of ONE instance run in groups of `block`: one
/// full group's modeled time split evenly across its members.  The value
/// every CPU-family engine records into Histo::InstanceModelNs, at any
/// thread or node count.
[[nodiscard]] std::uint64_t modeled_instance_ticks(const cpumodel::CpuSpec& spec,
                                                   const linalg::MatrixOperator& op,
                                                   std::size_t num_moments, std::size_t block);

/// Roofline workload of `total` instances run in groups of `block`: total /
/// block full groups, whose per-pass working set is one group's, plus one
/// ragged group of the remainder.  `group_work(b)` is one group of b.
template <typename GroupWork>
[[nodiscard]] cpumodel::CpuWorkload grouped_workload(std::size_t total, std::size_t block,
                                                     GroupWork&& group_work) {
  const std::size_t full = total / block;
  const std::size_t rem = total % block;
  cpumodel::CpuWorkload w = group_work(block);
  const double ws_bytes = w.working_set_bytes;
  w.scale(static_cast<double>(full));
  w.working_set_bytes = full > 0 ? ws_bytes : 0.0;
  if (rem > 0) w += group_work(rem);
  return w;
}

}  // namespace kpm::core

// CPU moment engines and the one group driver of every host KPM loop.
//
// `CpuMomentEngine` is the faithful serial reference of the paper's Fig. 3
// algorithm: per instance, |r0> = |r>, |r1> = H~|r0>, |r_n> = 2 H~ |r_{n-1}>
// - |r_{n-2}>, mu~_n = <r0|r_n>, averaged over all instances.  It is the
// ground truth every other engine is tested against, and its operation
// counts drive the Core i7-930 roofline model that stands in for the
// paper's measured CPU times.
//
// Every host loop over instances runs through `run_groups` below: the
// reference, parallel, paired, f32, Hermitian and cluster engines, both
// deterministic traces and estimate_moment_statistics.  It forms groups of
// B = MomentParams::block_r before any threading, runs each group through
// the blocked (SpMMV) kernels, one matrix stream per group step, and folds
// the members' mu~ rows in instance order, so no result depends on B or on
// the thread count.  A single instance is a group of one; there is no
// separate per-vector loop.  The f64 recursion itself is one prologue
// plus one fused loop (run_recursion), shared by the stochastic groups and
// the LDOS site groups; the paired engine shares the prologue.
// `CpuMomentEngine` and `CpuParallelMomentEngine` differ only in name,
// trace span and serial vs parallel roofline.
//
// `CpuPairedMomentEngine` implements the standard KPM optimization (Weisse
// et al. §II.D, the paper's Ref. [10]) of extracting two moments per matrix
// -vector product via
//     mu~_{2n}   = 2 <r_n | r_n>     - mu~_0
//     mu~_{2n+1} = 2 <r_{n+1} | r_n> - mu~_1
// halving the SpMV count for the same N — the ablation the
// `ablation_moment_pairs` bench quantifies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "cpumodel/cpu_spec.hpp"
#include "cpumodel/roofline.hpp"
#include "core/moments.hpp"
#include "obs/counters.hpp"
#include "obs/parallel.hpp"

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

/// The f64 recursion of a group of b members whose start vectors fill
/// ws.r0 — steps (1) to (2.2) of the paper's Fig. 3.  Counts b instances
/// and adds member j's mu~_k into mu_rows[j*n + k], metering every dot and
/// pass.  Its prologue copies r0 into r_prev2 and adds mu~_0 = <r0|r0>,
/// then, for n > 1, computes r_prev = r1 = H~ r0 and adds mu~_1 = <r0|r1>;
/// steps k = 2 .. n-1 run as one fused SpMMV + combine + dot pass each.
/// The paired engine shares the prologue and runs its own loop after it.
void run_recursion(const linalg::MatrixOperator& h_tilde, std::size_t b, std::size_t n,
                   GroupWorkspace& ws, std::span<double> mu_rows);

/// Runs instances [first, first + b), b <= the workspace's block, as one
/// blocked recursion: member j draws RNG stream first + j (metered), then
/// run_recursion adds its mu~ contributions into mu_rows[j*N, j*N + N), N =
/// params.num_moments.  No result depends on the grouping or the thread.
void accumulate_group(const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                      std::size_t first, std::size_t b, GroupWorkspace& ws,
                      std::span<double> mu_rows);

/// The group driver.  Instances [0, count) run in groups of `block`, formed
/// before any distribution over threads.  make_lane() returns a callable
/// run(first, b, rows) that runs instances [first, first + b) into their
/// zeroed member rows (b rows of n doubles); each lane makes its own, so it
/// may own its workspace.  With `threads` > 1 and more than one group, the
/// groups fan out over *pool (created on first use) through
/// obs::sharded_parallel_for, which keeps counter and histogram totals
/// exact at any lane count; otherwise they run in order on the calling
/// thread.  Either way fold(row) then sees every member row in instance
/// order.  Returns the number of threads that ran the groups.
template <typename MakeLane, typename Fold>
int run_groups(std::size_t count, std::size_t block, std::size_t n, int threads,
               std::unique_ptr<common::ThreadPool>* pool, MakeLane&& make_lane, Fold&& fold) {
  const std::size_t groups = (count + block - 1) / block;
  const auto member_rows = [n](std::vector<double>& rows, std::size_t first, std::size_t b) {
    return std::span<double>(rows.data() + first * n, b * n);
  };
  if (threads == 1 || groups == 1) {
    // No parallelism to exploit: skip the pool, reuse one group's rows.
    auto run = make_lane();
    std::vector<double> rows(block * n);
    for (std::size_t first = 0; first < count; first += block) {
      const std::size_t b = std::min(block, count - first);
      std::fill(rows.begin(), rows.end(), 0.0);
      run(first, b, member_rows(rows, 0, b));
      for (std::size_t j = 0; j < b; ++j) fold(member_rows(rows, j, 1));
    }
    return 1;
  }
  if (!*pool || (*pool)->size() != static_cast<std::size_t>(threads))
    *pool = std::make_unique<common::ThreadPool>(static_cast<std::size_t>(threads));
  // Instance-major rows, one per instance: a group's members occupy
  // consecutive rows, so its output slice is contiguous.
  std::vector<double> rows(count * n, 0.0);
  obs::sharded_parallel_for(
      **pool, groups, [&](std::size_t /*lane*/, std::size_t begin, std::size_t end) {
        auto run = make_lane();
        for (std::size_t g = begin; g < end; ++g) {
          const std::size_t first = g * block;
          const std::size_t b = std::min(block, count - first);
          run(first, b, member_rows(rows, first, b));
        }
      });
  for (std::size_t i = 0; i < count; ++i) fold(member_rows(rows, i, 1));
  return threads;
}

/// A stochastic engine's result: runs `executed` instances of `params`
/// through run_groups, counts the N moments produced, and averages the
/// instance-ordered row sums as mu_n = sum_n / (D * executed).  Plain
/// division (not a reciprocal multiply) so the GPU averaging kernel
/// matches bit-for-bit.  `wall_seconds` times the groups.
template <typename MakeLane>
[[nodiscard]] MomentResult averaged_result(std::string engine, std::size_t dim,
                                           const MomentParams& params, std::size_t executed,
                                           int threads, std::unique_ptr<common::ThreadPool>* pool,
                                           MakeLane&& make_lane) {
  const std::size_t n = params.num_moments;
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  std::vector<double> mu_sum(n, 0.0);
  MomentResult result;
  result.threads_used = run_groups(executed, params.block_r, n, threads, pool, make_lane,
                                   [&](std::span<const double> row) {
                                     for (std::size_t k = 0; k < n; ++k) mu_sum[k] += row[k];
                                   });
  result.wall_seconds = wall.seconds();
  result.engine = std::move(engine);
  result.instances_executed = executed;
  result.instances_total = params.instances();
  result.mu.resize(n);
  const double denom = static_cast<double>(dim) * static_cast<double>(executed);
  for (std::size_t k = 0; k < n; ++k) result.mu[k] = mu_sum[k] / denom;
  return result;
}

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

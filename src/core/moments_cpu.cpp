#include "core/moments_cpu.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "cpumodel/roofline.hpp"
#include "linalg/fused_kernels.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {
namespace {

/// Reference workload of ONE group of `b` members: fill + mu~_0 dot + (N - 1)
/// steps of fused SpMV + combine + dot per member (charging the
/// combine-free k = 1 step uniformly overstates work by 2D flops out of
/// O(N * nnz)), with the matrix traffic of every step amortized across the
/// group.
cpumodel::CpuWorkload group_workload(const linalg::MatrixOperator& op, std::size_t n,
                                     std::size_t b) {
  const auto dd = static_cast<double>(op.dim());
  const auto bb = static_cast<double>(b);
  const cpumodel::CpuWorkload per_step = fused_step_workload(op, /*dots=*/1, b);
  cpumodel::CpuWorkload w;
  w.flops = (10.0 * dd + 2.0 * dd) * bb;
  w.bytes_streamed = 2.0 * dd * sizeof(double) * bb;
  w.working_set_bytes = per_step.working_set_bytes;
  for (std::size_t k = 1; k < n; ++k) w += per_step;
  return w;
}

/// Total reference workload of `total` instances in groups of `block`.
cpumodel::CpuWorkload reference_workload(const linalg::MatrixOperator& op, std::size_t n,
                                         std::size_t total, std::size_t block) {
  return grouped_workload(total, block, [&](std::size_t b) { return group_workload(op, n, b); });
}

/// The prologue of run_recursion, which the paired engine shares: r_prev2
/// = r0 and mu~_0, then (n > 1) r_prev = H~ r0 and mu~_1.
void recursion_prologue(const linalg::MatrixOperator& h_tilde, std::size_t b, std::size_t n,
                        GroupWorkspace& ws, std::span<double> mu_rows) {
  const std::size_t d = h_tilde.dim();
  const std::size_t len = d * b;
  const auto sub = [len](std::vector<double>& v) { return std::span<double>(v.data(), len); };
  const std::span<double> dots(ws.dots.data(), b);
  obs::add(obs::Counter::InstancesExecuted, static_cast<double>(b));
  std::copy(ws.r0.begin(), ws.r0.begin() + static_cast<std::ptrdiff_t>(len), ws.r_prev2.begin());
  obs::meter_stream_bytes(2.0 * static_cast<double>(len) * sizeof(double));
  linalg::block_dot(sub(ws.r0), sub(ws.r0), b, dots);
  for (std::size_t j = 0; j < b; ++j) {
    mu_rows[j * n] += dots[j];
    obs::meter_dot(d);
  }
  if (n == 1) return;
  linalg::spmmv_multiply(h_tilde, b, sub(ws.r0), sub(ws.r_prev));
  linalg::block_dot(sub(ws.r0), sub(ws.r_prev), b, dots);
  for (std::size_t j = 0; j < b; ++j) {
    mu_rows[j * n + 1] += dots[j];
    obs::meter_dot(d);
  }
}

/// The reference and parallel engines: accumulate_group on every group of
/// run_groups (serial at `threads` = 1), one InstanceModelNs sample per
/// instance, and `roofline` pricing the total workload.
template <typename Roofline>
MomentResult compute_in_groups(const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                               std::size_t sample_instances, const cpumodel::CpuSpec& spec,
                               std::string engine, const std::string& span_name, int threads,
                               std::unique_ptr<common::ThreadPool>* pool,
                               const Roofline& roofline) {
  params.validate();
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const std::size_t block = params.block_r;

  obs::ScopedSpan span(span_name);
  // The serial per-instance modeled cost at every thread count (never the
  // parallel model), so histograms match bit-for-bit across engines.
  const std::uint64_t instance_ticks = modeled_instance_ticks(spec, h_tilde, n, block);
  MomentResult result =
      averaged_result(std::move(engine), d, params, executed, threads, pool, [&] {
        return [&, ws = GroupWorkspace(d, block)](std::size_t first, std::size_t b,
                                                  std::span<double> rows) mutable {
          accumulate_group(h_tilde, params, first, b, ws, rows);
          for (std::size_t j = 0; j < b; ++j)
            obs::record(obs::Histo::InstanceModelNs, instance_ticks);
        };
      });
  const cpumodel::CpuStats stats = roofline(reference_workload(h_tilde, n, total, block));
  result.model_seconds = stats.seconds;
  result.compute_seconds = stats.compute_seconds;
  return result;
}

}  // namespace

GroupWorkspace::GroupWorkspace(std::size_t dim, std::size_t block)
    : r0(dim * block), r_prev2(dim * block), r_prev(dim * block), r_next(dim * block),
      dots(block) {}

void run_recursion(const linalg::MatrixOperator& h_tilde, std::size_t b, std::size_t n,
                   GroupWorkspace& ws, std::span<double> mu_rows) {
  const std::size_t len = h_tilde.dim() * b;
  const auto sub = [len](std::vector<double>& v) { return std::span<double>(v.data(), len); };
  const std::span<double> dots(ws.dots.data(), b);
  recursion_prologue(h_tilde, b, n, ws, mu_rows);
  for (std::size_t k = 2; k < n; ++k) {
    linalg::spmmv_combine_dot(h_tilde, b, sub(ws.r_prev), sub(ws.r_prev2), sub(ws.r0),
                              sub(ws.r_next), dots);
    for (std::size_t j = 0; j < b; ++j) mu_rows[j * n + k] += dots[j];
    std::swap(ws.r_prev2, ws.r_prev);
    std::swap(ws.r_prev, ws.r_next);
  }
}

void accumulate_group(const linalg::MatrixOperator& h_tilde, const MomentParams& params,
                      std::size_t first, std::size_t b, GroupWorkspace& ws,
                      std::span<double> mu_rows) {
  fill_random_vector_block(params, first, b, std::span<double>(ws.r0.data(), h_tilde.dim() * b));
  run_recursion(h_tilde, b, params.num_moments, ws, mu_rows);
}

// Definition of the per-step workload model declared in moments_cpu.hpp.
// The SpMV streams the matrix plus the x read and the r_next write; the
// Chebyshev combine rides the same pass and only adds the r_prev2 read (its
// hx read/write disappears into a register), and each fused dot adds one
// extra operand stream (r_next never leaves the register).  Flops are
// unchanged by fusion.  Reused by all three engines' cost accounting, and
// mirrored by the fused kernels' obs meters.
cpumodel::CpuWorkload fused_step_workload(const linalg::MatrixOperator& op, std::size_t dots,
                                          std::size_t block) {
  const auto d = static_cast<double>(op.dim());
  const auto b = static_cast<double>(block);
  cpumodel::CpuWorkload w;
  // SpMV: 2 flops per stored entry PER MEMBER; the matrix streams once for
  // the whole block (the 1/B amortization), x read + y write per member.
  w.flops = b * static_cast<double>(op.spmv_flops());
  w.bytes_streamed = static_cast<double>(op.spmv_matrix_bytes()) + 2.0 * b * d * sizeof(double);
  // Fused combine next = 2 hx - prev2: 2 flops/element, one extra read.
  w.flops += 2.0 * b * d;
  w.bytes_streamed += b * d * sizeof(double);
  // Fused dot products: 2 flops/element, one extra operand stream each.
  w.flops += 2.0 * b * d * static_cast<double>(dots);
  w.bytes_streamed += b * d * sizeof(double) * static_cast<double>(dots);
  // Working set per pass: the matrix plus the four live block vectors.
  w.working_set_bytes =
      static_cast<double>(op.spmv_matrix_bytes()) + 4.0 * b * d * sizeof(double);
  return w;
}

double modeled_reference_seconds(const linalg::MatrixOperator& op, std::size_t num_moments,
                                 std::size_t instances, const cpumodel::CpuSpec& spec) {
  return cpumodel::model_cpu_time(spec, reference_workload(op, num_moments, instances, 1)).seconds;
}

std::uint64_t modeled_instance_ticks(const cpumodel::CpuSpec& spec,
                                     const linalg::MatrixOperator& op, std::size_t num_moments,
                                     std::size_t block) {
  const double group_seconds =
      cpumodel::model_cpu_time(spec, group_workload(op, num_moments, block)).seconds;
  return obs::seconds_to_ns_ticks(group_seconds / static_cast<double>(block));
}

void fill_random_vector(const MomentParams& params, std::uint64_t stream, std::span<double> r0) {
  for (std::size_t i = 0; i < r0.size(); ++i)
    r0[i] = rng::draw_random_element(params.vector_kind, params.seed, stream, i);
  obs::add(obs::Counter::RngElements, static_cast<double>(r0.size()));
}

void fill_random_vector_block(const MomentParams& params, std::uint64_t first_stream,
                              std::size_t block, std::span<double> r0_block) {
  KPM_REQUIRE(block >= 1 && r0_block.size() % block == 0,
              "fill_random_vector_block: bad block shape");
  const std::size_t d = r0_block.size() / block;
  for (std::size_t j = 0; j < block; ++j)
    for (std::size_t i = 0; i < d; ++i)
      r0_block[i * block + j] =
          rng::draw_random_element(params.vector_kind, params.seed, first_stream + j, i);
  obs::add(obs::Counter::RngElements, static_cast<double>(r0_block.size()));
}

std::size_t resolve_sample_count(std::size_t sample, std::size_t total) {
  KPM_REQUIRE(total > 0, "moment computation needs at least one instance");
  if (sample == 0 || sample > total) return total;
  return sample;
}

CpuMomentEngine::CpuMomentEngine(cpumodel::CpuSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

MomentResult CpuMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
                                      const MomentParams& params, std::size_t sample_instances) {
  return compute_in_groups(h_tilde, params, sample_instances, spec_, name(), "moments." + name(),
                           1, nullptr, [&](const cpumodel::CpuWorkload& w) {
                             return cpumodel::model_cpu_time(spec_, w);
                           });
}

CpuParallelMomentEngine::CpuParallelMomentEngine(int threads, cpumodel::CpuSpec spec)
    : threads_(threads), spec_(std::move(spec)) {
  spec_.validate();
  KPM_REQUIRE(threads >= 1, "CpuParallelMomentEngine: need at least one thread");
}

CpuParallelMomentEngine::~CpuParallelMomentEngine() = default;

MomentResult CpuParallelMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
                                              const MomentParams& params,
                                              std::size_t sample_instances) {
  // Stable span name (no thread-count suffix, unlike name()): span names
  // participate in deterministic report fingerprints, which must be
  // identical at any thread count.
  return compute_in_groups(h_tilde, params, sample_instances, spec_, name(),
                           "moments.cpu-parallel", threads_, &pool_,
                           [&](const cpumodel::CpuWorkload& w) {
                             return cpumodel::model_cpu_time_parallel(spec_, w, threads_);
                           });
}

CpuPairedMomentEngine::CpuPairedMomentEngine(cpumodel::CpuSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

MomentResult CpuPairedMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
                                            const MomentParams& params,
                                            std::size_t sample_instances) {
  params.validate();
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const std::size_t block = params.block_r;
  obs::ScopedSpan span("moments." + name());

  // Moments n = 0..N-1 from Chebyshev vectors up to index ceil(N/2):
  // the k-th iteration (k >= 1) yields mu_{2k} and mu_{2k+1}.
  const std::size_t half = (n + 1) / 2;

  // Cost model per group of b: fill + mu0/mu1 dots + (half - 1) fused steps
  // of SpMV + combine + 2 dots, the matrix streaming once per step.
  const auto dd = static_cast<double>(d);
  const auto paired_group_work = [&](std::size_t b) {
    const auto bb = static_cast<double>(b);
    cpumodel::CpuWorkload w;
    w.flops = (10.0 * dd + 4.0 * dd) * bb;
    w.bytes_streamed = 3.0 * dd * sizeof(double) * bb;
    const cpumodel::CpuWorkload per_step = fused_step_workload(h_tilde, /*dots=*/2, b);
    w.working_set_bytes = per_step.working_set_bytes;
    for (std::size_t k = 1; k < half; ++k) w += per_step;
    return w;
  };
  const std::uint64_t instance_ticks = obs::seconds_to_ns_ticks(
      cpumodel::model_cpu_time(spec_, paired_group_work(block)).seconds /
      static_cast<double>(block));

  // One matrix stream advances all members of a group through the
  // half-length recursion after the shared f64 prologue.
  MomentResult result = averaged_result(name(), d, params, executed, 1, nullptr, [&] {
    return [&, ws = GroupWorkspace(d, block), dots2 = std::vector<linalg::PairedDots>(block)](
               std::size_t first, std::size_t b, std::span<double> rows) mutable {
      const std::size_t len = d * b;
      const auto sub = [len](std::vector<double>& v) { return std::span<double>(v.data(), len); };
      fill_random_vector_block(params, first, b, sub(ws.r0));
      recursion_prologue(h_tilde, b, n, ws, rows);
      for (std::size_t k = 1; k < half; ++k) {
        // Here r_prev = r_k, r_prev2 = r_{k-1}.  One fused pass advances
        // r_{k+1} = 2 H~ r_k - r_{k-1} and yields both dot products:
        //   mu_{2k}   = 2 <r_k | r_k>     - mu_0
        //   mu_{2k+1} = 2 <r_{k+1} | r_k> - mu_1,
        // where mu_0 and mu_1 are the prologue's entries of the zeroed rows.
        linalg::spmmv_combine_dot2(h_tilde, b, sub(ws.r_prev), sub(ws.r_prev2), sub(ws.r_next),
                                   std::span<linalg::PairedDots>(dots2.data(), b));
        const std::size_t even = 2 * k;
        const std::size_t odd = 2 * k + 1;
        for (std::size_t j = 0; j < b; ++j) {
          double* row = rows.data() + j * n;
          if (even < n) row[even] += 2.0 * dots2[j].prev_prev - row[0];
          if (odd < n) row[odd] += 2.0 * dots2[j].next_prev - row[1];
        }
        std::swap(ws.r_prev2, ws.r_prev);
        std::swap(ws.r_prev, ws.r_next);
      }
      for (std::size_t j = 0; j < b; ++j) obs::record(obs::Histo::InstanceModelNs, instance_ticks);
    };
  });

  const cpumodel::CpuStats stats =
      cpumodel::model_cpu_time(spec_, grouped_workload(total, block, paired_group_work));
  result.model_seconds = stats.seconds;
  result.compute_seconds = stats.compute_seconds;
  return result;
}

}  // namespace kpm::core

#include "core/gpu_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "gpusim/view.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/counters.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {

using gpusim::AccessPattern;

const char* to_string(GpuMapping m) noexcept {
  return m == GpuMapping::InstancePerBlock ? "instance-per-block" : "instance-per-thread";
}

namespace detail {

// Pinned to a 64-byte line (with linalg::dot, which it calls per moment):
// the simulated engines run every instance through this loop, and without
// the pin its offset moves whenever code linked before it changes size
// (docs/performance.md, "Hot-loop placement").
[[gnu::aligned(64)]] void instance_recursion(const DeviceMatrixRef& h,
                                             std::span<const double> r0, std::span<double> a,
                                             std::span<double> b, std::span<double> mu_tilde,
                                             std::size_t num_moments) {
  const std::size_t d = h.dim;
  // Functional-work counters (instances, SpMVs, dots) match the serial CPU
  // reference exactly; modeled GPU flop/byte totals stay in the gpu_*
  // counters via the gpusim timeline bridge.
  obs::add(obs::Counter::InstancesExecuted, 1.0);
  obs::add(obs::Counter::SpmvCalls,
           num_moments >= 2 ? static_cast<double>(num_moments - 1) : 0.0);
  obs::add(obs::Counter::DotCalls, static_cast<double>(num_moments));
  // linalg::dot's canonical 4-lane order — keeps this simulated kernel
  // bit-identical to the (fused) CPU reference engine.
  auto dot_r0 = [&](std::span<const double> v) { return linalg::dot(r0, v); };

  // mu~_0 = <r0|r0>.
  mu_tilde[0] = dot_r0(r0);
  if (num_moments == 1) return;

  // |r1> = H~|r0>;  mu~_1 = <r0|r1>.
  h.multiply(r0, a);
  mu_tilde[1] = dot_r0(a);

  // n = 2: |r2> = 2 H~|r1> - |r0>  (prev2 is the read-only r0; target b).
  if (num_moments > 2) {
    h.multiply(a, b);
    for (std::size_t i = 0; i < d; ++i) b[i] = 2.0 * b[i] - r0[i];
    mu_tilde[2] = dot_r0(b);
  }

  // n >= 3: |r_n> = 2 H~|r_{n-1}> - |r_{n-2}>, overwriting prev2 in place.
  // cur alternates between b and a; the SpMV result lands in a scratch
  // accumulation per row, so in-place combine against prev2 is safe.
  std::span<double> cur = b;
  std::span<double> other = a;  // holds r_{n-2}; becomes r_n
  for (std::size_t n = 3; n < num_moments; ++n) {
    if (h.storage == linalg::Storage::Dense) {
      for (std::size_t r = 0; r < d; ++r) {
        const double* row = h.values.data() + r * d;
        double acc = 0.0;
        for (std::size_t c = 0; c < d; ++c) acc += row[c] * cur[c];
        other[r] = 2.0 * acc - other[r];
      }
    } else {
      for (std::size_t r = 0; r < d; ++r) {
        double acc = 0.0;
        for (auto k = h.row_ptr[r]; k < h.row_ptr[r + 1]; ++k) {
          const auto kk = static_cast<std::size_t>(k);
          acc += h.values[kk] * cur[static_cast<std::size_t>(h.col_idx[kk])];
        }
        other[r] = 2.0 * acc - other[r];
      }
    }
    mu_tilde[n] = dot_r0(other);
    std::swap(cur, other);
  }
}

}  // namespace detail

void FillRandomKernel::block_phase(int /*phase*/, gpusim::BlockContext& block) {
  const std::size_t inst = block.bid();
  if (inst >= active_) return;

  gpusim::GlobalView<double> r0(*r0_, AccessPattern::Coalesced, block.counters());
  const std::size_t base = inst * dim_;

  // Threads stride the vector elements (coalesced layout within the
  // instance's slice); counter-based RNG makes the result order-free.
  auto out = r0.bulk_store(base, dim_);
  obs::add(obs::Counter::RngElements, static_cast<double>(dim_));
  const std::uint64_t stream = inst + stream_offset_;
  for (std::size_t i = 0; i < dim_; ++i)
    out[i] = rng::draw_random_element(params_->vector_kind, params_->seed, stream, i);
  // ~10 flops/element for the Philox rounds + transform.
  block.flop(10.0 * static_cast<double>(dim_));
}

void RecursionBlockKernel::block_phase(int /*phase*/, gpusim::BlockContext& block) {
  const std::size_t inst = block.bid();
  if (inst >= active_) return;

  const std::size_t d = h_.dim;
  const std::size_t n = params_->num_moments;
  const std::size_t base = inst * d;

  detail::instance_recursion(h_, r0_->raw().subspan(base, d), work_a_->raw().subspan(base, d),
                             work_b_->raw().subspan(base, d),
                             mu_tilde_->raw().subspan(inst * n, n), n);
  meter_instance(block);
}

void RecursionBlockKernel::meter_instance(gpusim::BlockContext& block) const {
  // Analytic traffic of one instance's recursion under the
  // instance-per-block mapping (see header).  Data-independent, so adding
  // totals after the functional loop is exact.
  const auto d = static_cast<double>(h_.dim);
  const auto n = static_cast<double>(params_->num_moments);
  const double entries = static_cast<double>(h_.stored_entries);
  const double matrix_bytes = h_.traversal_bytes();
  auto& c = block.counters();

  // The matrix streams once per SpMV; when it fits the device L2 the
  // re-reads across concurrently resident blocks are served on-chip
  // (Broadcast-rate), otherwise each block's traversal reaches DRAM with
  // partial-transaction efficiency (Strided).
  const auto mat_pattern = matrix_bytes <= static_cast<double>(l2_bytes_)
                               ? AccessPattern::Broadcast
                               : AccessPattern::Strided;
  const std::size_t mat = static_cast<std::size_t>(mat_pattern);
  const std::size_t coal = static_cast<std::size_t>(AccessPattern::Coalesced);

  const double spmvs = n - 1.0;  // one per moment from n = 1
  c.global_read_bytes[mat] += spmvs * matrix_bytes;
  // x staged into shared once per SpMV (coalesced global read), then the
  // per-entry gathers hit shared memory; matrix words also pass through
  // shared after the global stream.
  c.global_read_bytes[coal] += spmvs * d * sizeof(double);
  c.shared_bytes += spmvs * (entries * sizeof(double) + matrix_bytes);
  // y / combine: write next (D), read prev2 (D) per step from n = 2.
  c.global_write_bytes[coal] += spmvs * d * sizeof(double);
  c.global_read_bytes[coal] += (n - 2.0) * d * sizeof(double);
  // Dots <r0|r_n>: read r0 + r_n per moment (r_n often still in registers,
  // charged anyway: the paper's kernel re-reads it), plus the tree
  // reduction.
  c.global_read_bytes[coal] += n * 2.0 * d * sizeof(double);
  const auto threads = static_cast<double>(block.threads());
  c.shared_bytes += n * 2.0 * threads * sizeof(double);  // reduction traffic
  c.barriers += n * (std::ceil(std::log2(std::max(2.0, threads))) + 2.0);
  // mu~ writes.
  c.global_write_bytes[coal] += n * sizeof(double);

  // Flops: SpMV (2/entry) + combine (2/element) + dots (2/element).
  c.flops += spmvs * 2.0 * entries + (n - 2.0) * 2.0 * d + n * 2.0 * d;
}

void RecursionBlockPairedKernel::block_phase(int /*phase*/, gpusim::BlockContext& block) {
  const std::size_t inst = block.bid();
  if (inst >= active_) return;

  const std::size_t d = h_.dim;
  const std::size_t n = params_->num_moments;
  const std::size_t half = (n + 1) / 2;
  const auto r0 = r0_->raw().subspan(inst * d, d);
  auto a = work_a_->raw().subspan(inst * d, d);
  auto b = work_b_->raw().subspan(inst * d, d);
  auto mu = mu_tilde_->raw().subspan(inst * n, n);

  // r_1 plus (half - 1) recursion steps — same SpMV count as the fused CPU
  // paired engine.
  obs::add(obs::Counter::InstancesExecuted, 1.0);
  obs::add(obs::Counter::SpmvCalls, static_cast<double>(half));

  // Same canonical dot order as the fused CPU paired engine (bitwise tests
  // compare the two engines moment-by-moment).
  auto dot = [&](std::span<const double> x, std::span<const double> y) {
    return linalg::dot(x, y);
  };

  const double mu0 = dot(r0, r0);
  mu[0] = mu0;
  h_.multiply(r0, a);  // r_1
  double mu1 = 0.0;
  if (n > 1) {
    mu1 = dot(r0, a);
    mu[1] = mu1;
  }

  // cur = r_k, other = r_{k-1} (overwritten in place with r_{k+1}).
  std::span<double> cur = a;
  std::span<double> other = b;
  bool other_is_r0 = true;  // at k = 1 the prev2 vector is r0 itself
  for (std::size_t k = 1; k < half; ++k) {
    const std::size_t even = 2 * k;
    if (even < n) mu[even] = 2.0 * dot(cur, cur) - mu0;

    // r_{k+1} = 2 H r_k - r_{k-1}, written into `other`.
    const std::span<const double> prev2 = other_is_r0 ? std::span<const double>(r0) : other;
    if (h_.storage == linalg::Storage::Dense) {
      for (std::size_t r = 0; r < d; ++r) {
        const double* row = h_.values.data() + r * d;
        double acc = 0.0;
        for (std::size_t c = 0; c < d; ++c) acc += row[c] * cur[c];
        other[r] = 2.0 * acc - prev2[r];
      }
    } else {
      for (std::size_t r = 0; r < d; ++r) {
        double acc = 0.0;
        for (auto kk = h_.row_ptr[r]; kk < h_.row_ptr[r + 1]; ++kk) {
          const auto idx = static_cast<std::size_t>(kk);
          acc += h_.values[idx] * cur[static_cast<std::size_t>(h_.col_idx[idx])];
        }
        other[r] = 2.0 * acc - prev2[r];
      }
    }
    other_is_r0 = false;

    const std::size_t odd = 2 * k + 1;
    if (odd < n) mu[odd] = 2.0 * dot(other, cur) - mu1;
    std::swap(cur, other);
  }
  meter_instance(block);
}

void RecursionBlockPairedKernel::meter_instance(gpusim::BlockContext& block) const {
  const auto d = static_cast<double>(h_.dim);
  const auto n = static_cast<double>(params_->num_moments);
  const double half = std::ceil(n / 2.0);
  const double entries = static_cast<double>(h_.stored_entries);
  const double matrix_bytes = h_.traversal_bytes();
  auto& c = block.counters();

  const auto mat = static_cast<std::size_t>(matrix_bytes <= static_cast<double>(l2_bytes_)
                                                ? gpusim::AccessPattern::Broadcast
                                                : gpusim::AccessPattern::Strided);
  const auto coal = static_cast<std::size_t>(gpusim::AccessPattern::Coalesced);
  const double spmvs = half;  // r_1 plus (half - 1) steps
  c.global_read_bytes[mat] += spmvs * matrix_bytes;
  c.global_read_bytes[coal] += spmvs * d * sizeof(double);
  c.shared_bytes += spmvs * (entries * sizeof(double) + matrix_bytes);
  c.global_write_bytes[coal] += spmvs * d * sizeof(double);
  c.global_read_bytes[coal] += (half - 1.0) * d * sizeof(double);        // prev2
  c.global_read_bytes[coal] += (n + 1.0) * 2.0 * d * sizeof(double);     // the dots
  const auto threads = static_cast<double>(block.threads());
  c.shared_bytes += (n + 1.0) * 2.0 * threads * sizeof(double);
  c.barriers += half * (std::ceil(std::log2(std::max(2.0, threads))) + 2.0);
  c.global_write_bytes[coal] += n * sizeof(double);
  c.flops += spmvs * 2.0 * entries + (half - 1.0) * 2.0 * d + (n + 1.0) * 2.0 * d;
}

void RecursionThreadKernel::block_phase(int /*phase*/, gpusim::BlockContext& block) {
  const std::size_t threads = block.threads();
  const std::size_t d = h_.dim;
  const std::size_t n = params_->num_moments;
  std::size_t active_in_block = 0;

  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t inst = block.bid() * threads + t;
    if (inst >= active_) continue;
    ++active_in_block;
    const std::size_t base = inst * d;
    detail::instance_recursion(h_, r0_->raw().subspan(base, d), work_a_->raw().subspan(base, d),
                               work_b_->raw().subspan(base, d),
                               mu_tilde_->raw().subspan(inst * n, n), n);
  }
  if (active_in_block == 0) return;

  // --- Metering (per block, covering its active threads). ---
  const auto dd = static_cast<double>(d);
  const auto nn = static_cast<double>(n);
  const double entries = static_cast<double>(h_.stored_entries);
  const double matrix_bytes = h_.traversal_bytes();
  auto& c = block.counters();

  // All lanes of a warp traverse H~ in lockstep: one broadcast-served
  // stream per warp (not per thread) — unless the matrix exceeds L2, in
  // which case warps drift and each warp's stream pays DRAM strided cost.
  // Fractional warps keep the count exactly linear in active instances, so
  // instance-sampling extrapolation (cost_scale) is exact.
  const double warps = static_cast<double>(active_in_block) / 32.0;
  const auto mat_pattern = matrix_bytes <= static_cast<double>(l2_bytes_)
                               ? AccessPattern::Broadcast
                               : AccessPattern::Strided;
  const auto mat = static_cast<std::size_t>(mat_pattern);
  const auto strided = static_cast<std::size_t>(AccessPattern::Strided);
  const double spmvs = nn - 1.0;
  c.global_read_bytes[mat] += warps * spmvs * matrix_bytes;

  // Vector traffic is per thread and uncoalesced (instance-major layout:
  // lane k's element i lives D elements away from lane k+1's).
  const auto k = static_cast<double>(active_in_block);
  c.global_read_bytes[strided] += k * spmvs * entries * sizeof(double);        // x gathers
  c.global_write_bytes[strided] += k * spmvs * dd * sizeof(double);            // next writes
  c.global_read_bytes[strided] += k * (nn - 2.0) * dd * sizeof(double);        // prev2 reads
  c.global_read_bytes[strided] += k * nn * 2.0 * dd * sizeof(double);          // dot reads
  c.global_write_bytes[strided] += k * nn * sizeof(double);                    // mu~ writes

  c.flops += k * (spmvs * 2.0 * entries + (nn - 2.0) * 2.0 * dd + nn * 2.0 * dd);
}

void AverageMomentsKernel::thread_phase(int /*phase*/, gpusim::ThreadContext& thread) {
  const std::size_t n = thread.global_tid();
  if (n >= n_) return;

  // Ordered sum over the executed instances (matches the CPU reference
  // bit-for-bit); functional access is unmetered, the cost below is
  // modeled analytically for the FULL instance count.
  const auto src = mu_tilde_->raw();
  double acc = 0.0;
  for (std::size_t k = 0; k < active_; ++k) acc += src[k * n_ + n];
  mu_->raw()[n] = acc / (static_cast<double>(dim_) * static_cast<double>(active_));

  auto& c = thread.block().counters();
  const auto modeled = static_cast<double>(modeled_);
  c.global_read_bytes[static_cast<std::size_t>(AccessPattern::Strided)] +=
      modeled * sizeof(double);
  c.global_write_bytes[static_cast<std::size_t>(AccessPattern::Coalesced)] += sizeof(double);
  c.flops += modeled + 1.0;  // the adds plus the final division
}

}  // namespace kpm::core

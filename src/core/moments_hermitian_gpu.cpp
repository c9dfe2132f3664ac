#include "core/moments_hermitian_gpu.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/gpu_kernels.hpp"
#include "core/moments_cpu.hpp"
#include "gpusim/view.hpp"
#include "obs/counters.hpp"
#include "obs/gpusim_bridge.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {
namespace {

using Complex = std::complex<double>;
using gpusim::AccessPattern;

/// Device-resident complex CRS matrix.
struct DeviceMatrixZ {
  gpusim::DeviceBuffer<Complex> values;
  gpusim::DeviceBuffer<std::int32_t> row_ptr;
  gpusim::DeviceBuffer<std::int32_t> col_idx;
  std::size_t dim = 0;
  std::size_t nnz = 0;

  DeviceMatrixZ(gpusim::Device& device, const linalg::CrsMatrixZ& h)
      : values(device.alloc<Complex>(h.nnz(), "H~ complex values")),
        row_ptr(device.alloc<std::int32_t>(h.rows() + 1, "H~ row_ptr")),
        col_idx(device.alloc<std::int32_t>(h.nnz(), "H~ col_idx")),
        dim(h.rows()),
        nnz(h.nnz()) {
    device.copy_to_device<Complex>(h.values(), values, "H~ complex upload");
    device.copy_to_device<std::int32_t>(h.row_ptr(), row_ptr, "H~ row_ptr upload");
    device.copy_to_device<std::int32_t>(h.col_idx(), col_idx, "H~ col_idx upload");
  }

  [[nodiscard]] double traversal_bytes() const {
    return static_cast<double>(nnz) * (sizeof(Complex) + sizeof(std::int32_t)) +
           static_cast<double>(dim + 1) * sizeof(std::int32_t);
  }

  void multiply(std::span<const Complex> x, std::span<Complex> y) const {
    const auto rp = row_ptr.raw();
    const auto ci = col_idx.raw();
    const auto v = values.raw();
    for (std::size_t r = 0; r < dim; ++r) {
      Complex acc{0.0, 0.0};
      for (auto k = rp[r]; k < rp[r + 1]; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        acc += v[kk] * x[static_cast<std::size_t>(ci[kk])];
      }
      y[r] = acc;
    }
  }
};

/// Fills complex r0 vectors (real Rademacher components, zero imaginary).
class FillRandomKernelZ final : public gpusim::Kernel {
 public:
  FillRandomKernelZ(const MomentParams& params, std::size_t dim, std::size_t active,
                    gpusim::DeviceBuffer<Complex>& r0)
      : params_(&params), dim_(dim), active_(active), r0_(&r0) {}

  [[nodiscard]] const char* name() const override { return "kpm_fill_random_z"; }

  void block_phase(int /*phase*/, gpusim::BlockContext& block) override {
    const std::size_t inst = block.bid();
    if (inst >= active_) return;
    gpusim::GlobalView<Complex> r0(*r0_, AccessPattern::Coalesced, block.counters());
    auto out = r0.bulk_store(inst * dim_, dim_);
    obs::add(obs::Counter::RngElements, static_cast<double>(dim_));
    for (std::size_t i = 0; i < dim_; ++i)
      out[i] = Complex{
          rng::draw_random_element(params_->vector_kind, params_->seed, inst, i), 0.0};
    block.flop(10.0 * static_cast<double>(dim_));
  }

 private:
  const MomentParams* params_;
  std::size_t dim_;
  std::size_t active_;
  gpusim::DeviceBuffer<Complex>* r0_;
};

/// Complex Chebyshev recursion, one instance per block; mu~_n = Re<r0|r_n>.
class HermitianRecursionKernel final : public gpusim::Kernel {
 public:
  HermitianRecursionKernel(const MomentParams& params, const DeviceMatrixZ& h,
                           std::size_t active, std::size_t l2_bytes,
                           gpusim::DeviceBuffer<Complex>& r0,
                           gpusim::DeviceBuffer<Complex>& work_a,
                           gpusim::DeviceBuffer<Complex>& work_b,
                           gpusim::DeviceBuffer<double>& mu_tilde)
      : params_(&params),
        h_(&h),
        active_(active),
        l2_bytes_(l2_bytes),
        r0_(&r0),
        work_a_(&work_a),
        work_b_(&work_b),
        mu_tilde_(&mu_tilde) {}

  [[nodiscard]] const char* name() const override { return "kpm_recursion_hermitian"; }

  void block_phase(int /*phase*/, gpusim::BlockContext& block) override {
    const std::size_t inst = block.bid();
    if (inst >= active_) return;
    const std::size_t d = h_->dim;
    const std::size_t n = params_->num_moments;
    const auto r0 = r0_->raw().subspan(inst * d, d);
    auto a = work_a_->raw().subspan(inst * d, d);
    auto b = work_b_->raw().subspan(inst * d, d);
    auto mu = mu_tilde_->raw().subspan(inst * n, n);

    // Functional-work counters, matching the CPU Hermitian engine.
    obs::add(obs::Counter::InstancesExecuted, 1.0);
    obs::add(obs::Counter::SpmvCalls, n >= 2 ? static_cast<double>(n - 1) : 0.0);
    obs::add(obs::Counter::DotCalls, static_cast<double>(n));

    auto dot_re = [&](std::span<const Complex> v) {
      double acc = 0.0;
      for (std::size_t i = 0; i < d; ++i) acc += (std::conj(r0[i]) * v[i]).real();
      return acc;
    };

    mu[0] = dot_re(r0);
    if (n > 1) {
      h_->multiply(r0, a);
      mu[1] = dot_re(a);
    }
    if (n > 2) {
      h_->multiply(a, b);
      for (std::size_t i = 0; i < d; ++i) b[i] = 2.0 * b[i] - r0[i];
      mu[2] = dot_re(b);
    }
    std::span<Complex> cur = b;
    std::span<Complex> other = a;
    for (std::size_t k = 3; k < n; ++k) {
      const auto rp = h_->row_ptr.raw();
      const auto ci = h_->col_idx.raw();
      const auto v = h_->values.raw();
      for (std::size_t r = 0; r < d; ++r) {
        Complex acc{0.0, 0.0};
        for (auto kk = rp[r]; kk < rp[r + 1]; ++kk) {
          const auto idx = static_cast<std::size_t>(kk);
          acc += v[idx] * cur[static_cast<std::size_t>(ci[idx])];
        }
        other[r] = 2.0 * acc - other[r];
      }
      mu[k] = dot_re(other);
      std::swap(cur, other);
    }
    meter_instance(block);
  }

 private:
  void meter_instance(gpusim::BlockContext& block) const {
    const auto d = static_cast<double>(h_->dim);
    const auto n = static_cast<double>(params_->num_moments);
    const double entries = static_cast<double>(h_->nnz);
    const double matrix_bytes = h_->traversal_bytes();
    auto& c = block.counters();
    const auto mat = static_cast<std::size_t>(matrix_bytes <= static_cast<double>(l2_bytes_)
                                                  ? AccessPattern::Broadcast
                                                  : AccessPattern::Strided);
    const auto coal = static_cast<std::size_t>(AccessPattern::Coalesced);
    const double spmvs = n - 1.0;
    const double elem = sizeof(Complex);  // 16 B per vector element

    c.global_read_bytes[mat] += spmvs * matrix_bytes;
    c.global_read_bytes[coal] += spmvs * d * elem;             // x stage
    c.shared_bytes += spmvs * (entries * elem + matrix_bytes);
    c.global_write_bytes[coal] += spmvs * d * elem;            // y
    c.global_read_bytes[coal] += (n - 2.0) * d * elem;         // prev2
    c.global_read_bytes[coal] += n * 2.0 * d * elem;           // dots
    const auto threads = static_cast<double>(block.threads());
    c.shared_bytes += n * 2.0 * threads * sizeof(double);
    c.barriers += n * (std::ceil(std::log2(std::max(2.0, threads))) + 2.0);
    c.global_write_bytes[coal] += n * sizeof(double);          // mu~ (real)

    // Complex arithmetic: a complex FMA is ~8 real flops (4 mul + 4 add).
    c.flops += spmvs * 8.0 * entries + (n - 2.0) * 4.0 * d + n * 4.0 * d;
  }

  const MomentParams* params_;
  const DeviceMatrixZ* h_;
  std::size_t active_;
  std::size_t l2_bytes_;
  gpusim::DeviceBuffer<Complex>* r0_;
  gpusim::DeviceBuffer<Complex>* work_a_;
  gpusim::DeviceBuffer<Complex>* work_b_;
  gpusim::DeviceBuffer<double>* mu_tilde_;
};

}  // namespace

GpuHermitianMomentEngine::GpuHermitianMomentEngine(GpuEngineConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

MomentResult GpuHermitianMomentEngine::compute(const linalg::CrsMatrixZ& h_tilde,
                                               const MomentParams& params,
                                               std::size_t sample_instances) {
  params.validate();
  KPM_REQUIRE(h_tilde.rows() == h_tilde.cols(), "GpuHermitianMomentEngine: matrix must be square");
  const std::size_t d = h_tilde.rows();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const double cost_scale = static_cast<double>(total) / static_cast<double>(executed);

  obs::ScopedSpan span("moments." + name());
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  gpusim::Device device(config_.device);
  DeviceMatrixZ h_dev(device, h_tilde);
  auto r0 = device.alloc<Complex>(total * d, "r0 vectors (complex)");
  auto work_a = device.alloc<Complex>(total * d, "work a (complex)");
  auto work_b = device.alloc<Complex>(total * d, "work b (complex)");
  auto mu_tilde = device.alloc<double>(total * n, "mu~ per instance");
  auto mu_dev = device.alloc<double>(n, "mu");

  gpusim::ExecConfig cfg;
  cfg.grid = gpusim::Dim3{static_cast<std::uint32_t>(total)};
  cfg.block = gpusim::Dim3{config_.block_size};
  {
    FillRandomKernelZ fill(params, d, executed, r0);
    device.launch(cfg, fill, cost_scale);
  }
  {
    cfg.shared_bytes = config_.staging_bytes(sizeof(Complex));
    HermitianRecursionKernel rec(params, h_dev, executed, config_.device.l2_cache_bytes, r0,
                                 work_a, work_b, mu_tilde);
    device.launch(cfg, rec, cost_scale);
    cfg.shared_bytes = 0;
  }
  MomentResult result;
  result.engine = name();
  result.mu.resize(n);
  {
    AverageMomentsKernel avg(n, d, executed, total, mu_tilde, mu_dev);
    device.launch(gpusim::ExecConfig::linear(n, 128), avg);
  }
  device.copy_to_host<double>(mu_dev, result.mu, "mu download");

  result.instances_executed = executed;
  result.instances_total = total;
  result.wall_seconds = wall.seconds();
  obs::record_device(device, name());
  last_summary_ = device.summarize_timeline();
  result.model_seconds = config_.context_setup_seconds + last_summary_.total_seconds;
  result.compute_seconds = last_summary_.kernel_seconds;
  result.transfer_seconds = last_summary_.transfer_seconds;
  result.allocation_seconds = config_.context_setup_seconds + last_summary_.allocation_seconds;
  return result;
}

}  // namespace kpm::core

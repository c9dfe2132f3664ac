#include "core/moments_gpu.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/moments_cpu.hpp"
#include "obs/counters.hpp"
#include "obs/gpusim_bridge.hpp"
#include "obs/trace.hpp"

namespace kpm::core {

void GpuEngineConfig::validate() const {
  device.validate();
  KPM_REQUIRE(block_size > 0 && block_size % 32 == 0,
              "GpuEngineConfig: block_size must be a positive multiple of the warp size");
  KPM_REQUIRE(context_setup_seconds >= 0,
              "GpuEngineConfig: context_setup_seconds must be non-negative");
}

GpuMomentEngine::GpuMomentEngine(GpuEngineConfig config) : config_(std::move(config)) {
  config_.validate();
  KPM_REQUIRE(!config_.paired_moments || config_.mapping == GpuMapping::InstancePerBlock,
              "GpuEngineConfig: paired_moments requires the instance-per-block mapping");
}

std::string GpuMomentEngine::name() const {
  return std::string("gpu-") + to_string(config_.mapping) +
         (config_.paired_moments ? "-paired" : "");
}

MomentResult GpuMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
                                      const MomentParams& params,
                                      std::size_t sample_instances) {
  params.validate();
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);
  const double cost_scale = static_cast<double>(total) / static_cast<double>(executed);

  obs::ScopedSpan span("moments." + name());
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(n));
  Stopwatch wall;
  gpusim::Device device(config_.device);

  // --- Device memory layout: H~, r0/a/b work vectors (instance-major,
  // sized for ALL instances: this is the real VRAM footprint, and alloc
  // failure here mirrors cudaMalloc failure), mu~ and mu.
  DeviceMatrix h_dev(device, h_tilde);
  auto r0 = device.alloc<double>(total * d, "r0 vectors");
  auto work_a = device.alloc<double>(total * d, "work vectors a");
  auto work_b = device.alloc<double>(total * d, "work vectors b");
  auto mu_tilde = device.alloc<double>(total * n, "mu~ per instance");
  auto mu_dev = device.alloc<double>(n, "mu");

  // --- Step (1): random vectors.  One block per instance.
  {
    gpusim::ExecConfig cfg;
    cfg.grid = gpusim::Dim3{static_cast<std::uint32_t>(total)};
    cfg.block = gpusim::Dim3{config_.block_size};
    FillRandomKernel fill(params, d, executed, r0);
    device.launch(cfg, fill, cost_scale);
  }

  // --- Step (2): the recursion.
  if (config_.mapping == GpuMapping::InstancePerBlock) {
    gpusim::ExecConfig cfg;
    cfg.grid = gpusim::Dim3{static_cast<std::uint32_t>(total)};
    cfg.block = gpusim::Dim3{config_.block_size};
    cfg.shared_bytes = config_.staging_bytes(sizeof(double));
    if (config_.paired_moments) {
      RecursionBlockPairedKernel rec(params, h_dev.ref(), executed,
                                     config_.device.l2_cache_bytes, r0, work_a, work_b,
                                     mu_tilde);
      device.launch(cfg, rec, cost_scale);
    } else {
      RecursionBlockKernel rec(params, h_dev.ref(), executed, config_.device.l2_cache_bytes, r0,
                               work_a, work_b, mu_tilde);
      device.launch(cfg, rec, cost_scale);
    }
  } else {
    const auto blocks =
        static_cast<std::uint32_t>((total + config_.block_size - 1) / config_.block_size);
    gpusim::ExecConfig cfg;
    cfg.grid = gpusim::Dim3{blocks};
    cfg.block = gpusim::Dim3{config_.block_size};
    RecursionThreadKernel rec(params, h_dev.ref(), executed, config_.device.l2_cache_bytes, r0,
                              work_a, work_b, mu_tilde);
    device.launch(cfg, rec, cost_scale);
  }

  // --- Step (3): average mu~ over instances.  Launched unscaled: the
  // kernel meters its own cost against the full instance count (see its
  // doc comment).
  {
    const std::uint32_t avg_block = 128;
    AverageMomentsKernel avg(n, d, executed, total, mu_tilde, mu_dev);
    device.launch(gpusim::ExecConfig::linear(n, avg_block), avg);
  }

  // --- Results back to the host.
  MomentResult result;
  result.engine = name();
  result.mu.resize(n);
  device.copy_to_host<double>(mu_dev, result.mu, "mu download");

  result.instances_executed = executed;
  result.instances_total = total;
  result.wall_seconds = wall.seconds();

  obs::record_device(device, name());
  last_summary_ = device.summarize_timeline();
  result.model_seconds = config_.context_setup_seconds + last_summary_.total_seconds;
  result.compute_seconds = last_summary_.kernel_seconds;
  result.transfer_seconds = last_summary_.transfer_seconds;
  result.allocation_seconds =
      config_.context_setup_seconds + last_summary_.allocation_seconds;
  return result;
}

}  // namespace kpm::core

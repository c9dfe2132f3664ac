#include "core/moments_gpu_chunked.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/device_matrix.hpp"
#include "core/gpu_kernels.hpp"
#include "core/moments_cpu.hpp"
#include "gpusim/view.hpp"
#include "obs/counters.hpp"
#include "obs/gpusim_bridge.hpp"
#include "obs/trace.hpp"

namespace kpm::core {
namespace {

using gpusim::AccessPattern;

/// Adds a chunk's mu~ columns onto the running device-side moment sums
/// (one thread per moment).  Instance order is ascending within the chunk
/// and chunks are processed in order, so the accumulated sum association
/// is identical to the single-pass average kernel — bit-for-bit.
class AccumulateMomentsKernel final : public gpusim::Kernel {
 public:
  AccumulateMomentsKernel(std::size_t n, std::size_t chunk_active, double modeled_instances,
                          const gpusim::DeviceBuffer<double>& mu_tilde,
                          gpusim::DeviceBuffer<double>& mu_sum)
      : n_(n),
        chunk_active_(chunk_active),
        modeled_(modeled_instances),
        mu_tilde_(&mu_tilde),
        mu_sum_(&mu_sum) {}

  [[nodiscard]] const char* name() const override { return "kpm_accumulate_moments"; }

  void thread_phase(int /*phase*/, gpusim::ThreadContext& thread) override {
    const std::size_t n = thread.global_tid();
    if (n >= n_) return;
    const auto src = mu_tilde_->raw();
    double acc = mu_sum_->raw()[n];
    for (std::size_t k = 0; k < chunk_active_; ++k) acc += src[k * n_ + n];
    mu_sum_->raw()[n] = acc;

    auto& c = thread.block().counters();
    c.global_read_bytes[static_cast<std::size_t>(AccessPattern::Strided)] +=
        modeled_ * sizeof(double);
    c.global_read_bytes[static_cast<std::size_t>(AccessPattern::Coalesced)] += sizeof(double);
    c.global_write_bytes[static_cast<std::size_t>(AccessPattern::Coalesced)] += sizeof(double);
    c.flops += modeled_;
  }

 private:
  std::size_t n_;
  std::size_t chunk_active_;
  double modeled_;
  const gpusim::DeviceBuffer<double>* mu_tilde_;
  gpusim::DeviceBuffer<double>* mu_sum_;
};

}  // namespace

ChunkedGpuMomentEngine::ChunkedGpuMomentEngine(ChunkedGpuEngineConfig config)
    : config_(std::move(config)) {
  config_.base.validate();
}

std::string ChunkedGpuMomentEngine::name() const {
  return std::string("gpu-chunked-") + to_string(config_.base.mapping) +
         (config_.overlap_fill ? "-overlap" : "-serial");
}

MomentResult ChunkedGpuMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
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
  gpusim::Device device(config_.base.device);

  // Chunk sizing: two r0 buffers (double buffering) + two work vectors +
  // the chunk's mu~ block must fit the workspace budget.
  const std::size_t budget = config_.workspace_bytes != 0
                                 ? config_.workspace_bytes
                                 : config_.base.device.global_mem_bytes / 2;
  const std::size_t per_instance = 4 * d * sizeof(double) + n * sizeof(double);
  std::size_t chunk = std::max<std::size_t>(1, budget / per_instance);
  chunk = std::min(chunk, executed);
  const std::size_t chunks = (executed + chunk - 1) / chunk;
  last_chunk_ = chunk;
  last_chunks_ = chunks;

  DeviceMatrix h_dev(device, h_tilde);
  gpusim::DeviceBuffer<double> r0[2] = {device.alloc<double>(chunk * d, "r0 buffer A"),
                                        device.alloc<double>(chunk * d, "r0 buffer B")};
  auto work_a = device.alloc<double>(chunk * d, "work vectors a");
  auto work_b = device.alloc<double>(chunk * d, "work vectors b");
  auto mu_tilde = device.alloc<double>(chunk * n, "mu~ per chunk");
  auto mu_sum = device.alloc<double>(n, "mu sums");
  // The accumulate kernel reads-modifies-writes mu_sum from the first chunk
  // on; cudaMalloc does not zero memory, so the zero seed must be explicit
  // (found by the kpmcheck audit — the simulator's buffers happen to
  // zero-initialize, which hid the missing memset).
  device.memset(mu_sum, 0, "mu sums memset");

  const gpusim::StreamId s_rec = 0;
  const gpusim::StreamId s_fill = config_.overlap_fill ? device.create_stream() : 0;

  auto chunk_range = [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    return std::pair{begin, std::min(chunk, executed - begin)};
  };

  gpusim::ExecConfig chunk_cfg;
  chunk_cfg.block = gpusim::Dim3{config_.base.block_size};

  auto launch_fill = [&](std::size_t c, gpusim::StreamId stream) {
    const auto [begin, count] = chunk_range(c);
    chunk_cfg.grid = gpusim::Dim3{static_cast<std::uint32_t>(count)};
    FillRandomKernel fill(params, d, count, r0[c % 2], begin);
    device.launch(chunk_cfg, fill, cost_scale, stream);
  };

  // Prime the pipeline: fill chunk 0.
  double fill_done[2] = {0.0, 0.0};
  double rec_done[2] = {0.0, 0.0};
  launch_fill(0, s_fill);
  fill_done[0] = device.record_event(s_fill);

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t cur = c % 2;
    const auto [begin, count] = chunk_range(c);
    (void)begin;

    device.wait_event(s_rec, fill_done[cur]);
    chunk_cfg.grid = gpusim::Dim3{static_cast<std::uint32_t>(count)};
    if (config_.base.mapping == GpuMapping::InstancePerBlock) {
      chunk_cfg.shared_bytes = config_.base.staging_bytes(sizeof(double));
      RecursionBlockKernel rec(params, h_dev.ref(), count, config_.base.device.l2_cache_bytes,
                               r0[cur], work_a, work_b, mu_tilde);
      device.launch(chunk_cfg, rec, cost_scale, s_rec);
      chunk_cfg.shared_bytes = 0;
    } else {
      gpusim::ExecConfig thread_cfg = gpusim::ExecConfig::linear(count, config_.base.block_size);
      RecursionThreadKernel rec(params, h_dev.ref(), count, config_.base.device.l2_cache_bytes,
                                r0[cur], work_a, work_b, mu_tilde);
      device.launch(thread_cfg, rec, cost_scale, s_rec);
    }
    {
      AccumulateMomentsKernel acc(n, count, static_cast<double>(count) * cost_scale, mu_tilde,
                                  mu_sum);
      device.launch(gpusim::ExecConfig::linear(n, 128), acc, 1.0, s_rec);
    }
    rec_done[cur] = device.record_event(s_rec);

    if (c + 1 < chunks) {
      const std::size_t next = (c + 1) % 2;
      // The next fill reuses the buffer the recursion of chunk c-1 read.
      device.wait_event(s_fill, rec_done[next]);
      launch_fill(c + 1, s_fill);
      fill_done[next] = device.record_event(s_fill);
    }
  }
  device.synchronize();

  MomentResult result;
  result.engine = name();
  result.mu.resize(n);
  device.copy_to_host<double>(mu_sum, result.mu, "mu sums download");
  const double denom = static_cast<double>(d) * static_cast<double>(executed);
  for (double& m : result.mu) m /= denom;

  result.instances_executed = executed;
  result.instances_total = total;
  result.wall_seconds = wall.seconds();
  obs::record_device(device, name());
  const auto summary = device.summarize_timeline();
  result.model_seconds = config_.base.context_setup_seconds + summary.critical_path_seconds;
  result.compute_seconds = summary.kernel_seconds;
  result.transfer_seconds = summary.transfer_seconds;
  result.allocation_seconds = config_.base.context_setup_seconds + summary.allocation_seconds;
  return result;
}

}  // namespace kpm::core

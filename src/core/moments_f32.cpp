#include "core/moments_f32.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "cpumodel/roofline.hpp"
#include "core/moments_cpu.hpp"
#include "linalg/row_access.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {
namespace {

/// Blocked y_j = A x_j in pure float arithmetic on the interleaved block
/// layout (A's doubles are narrowed once per entry here; a real SP port
/// would store the matrix in float to begin with).  Each member accumulates
/// its row in entry order from 0.0f.  `acc` is caller-owned scratch of
/// `block` floats, reused across steps.
void spmmv_f32(const linalg::MatrixOperator& op, std::size_t block,
               const std::vector<float>& x, std::vector<float>& y, std::vector<float>& acc) {
  linalg::visit_rows(op, [&](const auto& rows_of) {
    for (std::size_t r = 0; r < op.dim(); ++r) {
      std::fill(acc.begin(), acc.end(), 0.0f);
      rows_of.row_entries(r, [&](double v, std::size_t c) {
        const float vf = static_cast<float>(v);
        const float* xc = x.data() + c * block;
        for (std::size_t j = 0; j < block; ++j) acc[j] += vf * xc[j];
      });
      float* yr = y.data() + r * block;
      for (std::size_t j = 0; j < block; ++j) yr[j] = acc[j];
    }
  });
}

/// Per-member left-fold float dots of two interleaved blocks.
void block_dot_f32(const std::vector<float>& a, const std::vector<float>& b,
                   std::size_t block, std::size_t dim, std::vector<float>& dots) {
  std::fill(dots.begin(), dots.end(), 0.0f);
  for (std::size_t i = 0; i < dim; ++i) {
    const float* ai = a.data() + i * block;
    const float* bi = b.data() + i * block;
    for (std::size_t j = 0; j < block; ++j) dots[j] += ai[j] * bi[j];
  }
}

}  // namespace

CpuMomentEngineF32::CpuMomentEngineF32(cpumodel::CpuSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

MomentResult CpuMomentEngineF32::compute(const linalg::MatrixOperator& h_tilde,
                                         const MomentParams& params,
                                         std::size_t sample_instances) {
  params.validate();
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);

  obs::ScopedSpan span("moments." + name());

  // Per-call obs meters in binary32: 4-byte vector elements, half the
  // matrix traffic of the double engines, identical flop counts.
  const double dd_obs = static_cast<double>(d);
  const double matrix_bytes_f32 = static_cast<double>(h_tilde.spmv_matrix_bytes()) / 2.0;
  const double spmv_flops = static_cast<double>(h_tilde.spmv_flops());
  const auto meter_dot32 = [&] {
    obs::add(obs::Counter::DotCalls, 1.0);
    obs::add(obs::Counter::Flops, 2.0 * dd_obs);
    obs::add(obs::Counter::BytesStreamed, 2.0 * dd_obs * sizeof(float));
  };
  const auto meter_spmmv32 = [&](std::size_t b) {
    obs::add(obs::Counter::SpmvCalls, static_cast<double>(b));
    obs::add(obs::Counter::Flops, static_cast<double>(b) * spmv_flops);
    obs::add(obs::Counter::BytesStreamed,
             matrix_bytes_f32 + 2.0 * static_cast<double>(b) * dd_obs * sizeof(float));
  };

  // A group of `b` instances advances through one unfused recursion; the
  // matrix is narrowed/streamed once per step for the whole group, and a
  // single instance is a group of one.  The cross-instance reduction runs
  // in double.
  const std::size_t block = params.block_r;
  MomentResult result = averaged_result(name(), d, params, executed, 1, nullptr, [&] {
    return [&, b0 = std::vector<float>(), b_prev2 = std::vector<float>(),
            b_prev = std::vector<float>(), b_next = std::vector<float>(),
            dots = std::vector<float>(), acc = std::vector<float>()](
               std::size_t first, std::size_t b, std::span<double> rows) mutable {
      for (std::vector<float>* v : {&b0, &b_prev2, &b_prev, &b_next}) v->resize(d * b);
      dots.resize(b);
      acc.resize(b);
      obs::add(obs::Counter::InstancesExecuted, static_cast<double>(b));
      obs::add(obs::Counter::RngElements, static_cast<double>(b) * dd_obs);
      for (std::size_t j = 0; j < b; ++j)
        for (std::size_t i = 0; i < d; ++i)
          b0[i * b + j] = static_cast<float>(
              rng::draw_random_element(params.vector_kind, params.seed, first + j, i));

      block_dot_f32(b0, b0, b, d, dots);
      for (std::size_t j = 0; j < b; ++j) {
        rows[j * n] += static_cast<double>(dots[j]);
        meter_dot32();
      }
      spmmv_f32(h_tilde, b, b0, b_prev, acc);
      meter_spmmv32(b);
      block_dot_f32(b0, b_prev, b, d, dots);
      for (std::size_t j = 0; j < b; ++j) {
        rows[j * n + 1] += static_cast<double>(dots[j]);
        meter_dot32();
      }
      b_prev2 = b0;
      obs::add(obs::Counter::BytesStreamed,
               2.0 * static_cast<double>(b) * dd_obs * sizeof(float));

      for (std::size_t k = 2; k < n; ++k) {
        spmmv_f32(h_tilde, b, b_prev, b_next, acc);
        meter_spmmv32(b);
        for (std::size_t i = 0; i < d * b; ++i) b_next[i] = 2.0f * b_next[i] - b_prev2[i];
        obs::add(obs::Counter::Flops, 2.0 * static_cast<double>(b) * dd_obs);
        obs::add(obs::Counter::BytesStreamed,
                 3.0 * static_cast<double>(b) * dd_obs * sizeof(float));
        block_dot_f32(b0, b_next, b, d, dots);
        for (std::size_t j = 0; j < b; ++j) {
          rows[j * n + k] += static_cast<double>(dots[j]);
          meter_dot32();
        }
        std::swap(b_prev2, b_prev);
        std::swap(b_prev, b_next);
      }
    };
  });

  // Cost model: same operation counts as the reference engine but with
  // 4-byte elements (half the traffic, half the working set) and double
  // the SIMD flop rate.  Blocked runs stream the matrix once per group
  // step instead of once per member step.
  const auto dd = static_cast<double>(d);
  const double matrix_bytes = static_cast<double>(h_tilde.spmv_matrix_bytes()) / 2.0;
  const auto group_work = [&](std::size_t b) {
    const auto bb = static_cast<double>(b);
    cpumodel::CpuWorkload gw;
    gw.flops = (10.0 * dd + 2.0 * dd) * bb;
    gw.bytes_streamed = 2.0 * bb * dd * sizeof(float);
    for (std::size_t k = 1; k < n; ++k) {
      gw.flops += bb * (static_cast<double>(h_tilde.spmv_flops()) + 4.0 * dd);
      gw.bytes_streamed += matrix_bytes + 7.0 * bb * dd * sizeof(float);
    }
    gw.working_set_bytes = matrix_bytes + 4.0 * bb * dd * sizeof(float);
    return gw;
  };
  cpumodel::CpuSpec sp = spec_;
  sp.flops_per_cycle *= 2.0;  // twice the SIMD lanes in binary32
  const cpumodel::CpuStats stats =
      cpumodel::model_cpu_time(sp, grouped_workload(total, block, group_work));
  result.model_seconds = stats.seconds;
  result.compute_seconds = stats.compute_seconds;
  return result;
}

}  // namespace kpm::core

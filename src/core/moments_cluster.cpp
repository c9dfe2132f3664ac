#include "core/moments_cluster.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/moments_cpu.hpp"
#include "cpumodel/roofline.hpp"
#include "gpusim/cost_model.hpp"
#include "linalg/shard.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace kpm::core {
namespace {

/// Per-lane state of one blocked sharded recursion: four working vectors
/// per shard (owned rows + ghost slots, interleaved block layout) plus the
/// block-dot lanes.  Ragged final groups use b * working_size prefixes.
struct ShardWorkspace {
  std::size_t block;
  std::vector<std::vector<double>> r0, prev2, prev, next;
  std::vector<linalg::DotLanes> lanes;

  ShardWorkspace(const linalg::ShardedMatrix& sm, std::size_t b)
      : block(b), lanes(b) {
    const std::size_t nodes = sm.nodes();
    r0.resize(nodes);
    prev2.resize(nodes);
    prev.resize(nodes);
    next.resize(nodes);
    for (std::size_t p = 0; p < nodes; ++p) {
      const std::size_t len = sm.shard(p).working_size() * b;
      r0[p].assign(len, 0.0);
      prev2[p].assign(len, 0.0);
      prev[p].assign(len, 0.0);
      next[p].assign(len, 0.0);
    }
  }
};

/// The simulated halo exchange: copies every ghost slot's value from its
/// owner's owned slot, for all shards.  Ordering is irrelevant — values
/// are copied, never combined.
void exchange_ghosts(const linalg::ShardedMatrix& sm, std::vector<std::vector<double>>& v,
                     std::size_t b) {
  for (std::size_t p = 0; p < sm.nodes(); ++p) {
    const linalg::MatrixShard& s = sm.shard(p);
    for (std::size_t gi = 0; gi < s.ghost_rows.size(); ++gi) {
      const linalg::GhostSource src = s.ghost_sources[gi];
      const std::vector<double>& from = v[src.owner];
      const std::size_t src_slot = sm.shard(src.owner).owned_offset() + src.local_row;
      const std::size_t dst_slot = s.ghost_position(gi);
      for (std::size_t j = 0; j < b; ++j) v[p][dst_slot * b + j] = from[src_slot * b + j];
    }
  }
}

/// Per-member dots <x_j | y_j> over the full distributed vectors: the four
/// canonical lanes are carried through the shards in node order and
/// combined once per member — bit-identical to linalg::block_dot on the
/// assembled global vectors.
void sharded_block_dot(const linalg::ShardedMatrix& sm,
                       const std::vector<std::vector<double>>& x,
                       const std::vector<std::vector<double>>& y, std::size_t b,
                       std::span<linalg::DotLanes> lanes) {
  for (std::size_t j = 0; j < b; ++j) lanes[j] = linalg::DotLanes{};
  for (std::size_t p = 0; p < sm.nodes(); ++p) {
    const linalg::MatrixShard& s = sm.shard(p);
    const std::size_t off = s.owned_offset() * b;
    const std::size_t len = s.local_rows() * b;
    linalg::block_dot_lanes_carry(std::span<const double>(x[p].data() + off, len),
                                  std::span<const double>(y[p].data() + off, len), b,
                                  s.row_begin, lanes);
  }
}

/// One blocked sharded recursion of b members whose start vectors fill the
/// owned slots of every shard's ws.r0: the sharded mirror of moments_cpu's
/// run_recursion, with the same n = 1 stop, metering the same GLOBAL
/// totals (the counters are partition-invariant by construction).
void accumulate_sharded_group(const linalg::ShardedMatrix& sm,
                              const linalg::MatrixOperator& op, std::size_t b, std::size_t n,
                              std::span<double> mu_rows, ShardWorkspace& ws) {
  const std::size_t d = op.dim();
  const auto dd = static_cast<double>(d);
  const auto bb = static_cast<double>(b);
  const std::size_t nodes = sm.nodes();
  const auto owned = [&](std::vector<std::vector<double>>& v, std::size_t p) {
    const linalg::MatrixShard& s = sm.shard(p);
    return std::span<double>(v[p].data() + s.owned_offset() * b, s.local_rows() * b);
  };
  const auto working = [&](std::vector<std::vector<double>>& v, std::size_t p) {
    return std::span<const double>(v[p].data(), sm.shard(p).working_size() * b);
  };
  const std::span<linalg::DotLanes> lanes(ws.lanes.data(), b);

  obs::add(obs::Counter::InstancesExecuted, bb);
  exchange_ghosts(sm, ws.r0, b);
  for (std::size_t p = 0; p < nodes; ++p) {
    const std::size_t len = sm.shard(p).working_size() * b;
    std::copy(ws.r0[p].begin(), ws.r0[p].begin() + static_cast<std::ptrdiff_t>(len),
              ws.prev2[p].begin());
  }
  obs::meter_stream_bytes(2.0 * dd * bb * sizeof(double));

  // mu~_0 = <r0 | r0>.
  sharded_block_dot(sm, ws.r0, ws.r0, b, lanes);
  for (std::size_t j = 0; j < b; ++j) {
    mu_rows[j * n] += lanes[j].combine();
    obs::meter_dot(d);
  }
  if (n == 1) return;

  // r1 = H~ r0, shard-local after the halo exchange above.  Metered like
  // linalg::spmmv_multiply on the global operator.
  for (std::size_t p = 0; p < nodes; ++p)
    sm.shard_multiply_block(p, b, working(ws.r0, p), owned(ws.prev, p));
  obs::add(obs::Counter::SpmvCalls, bb);
  obs::add(obs::Counter::Flops, bb * static_cast<double>(op.spmv_flops()));
  obs::add(obs::Counter::BytesStreamed,
           static_cast<double>(op.spmv_matrix_bytes()) + 2.0 * bb * dd * sizeof(double));
  exchange_ghosts(sm, ws.prev, b);

  sharded_block_dot(sm, ws.r0, ws.prev, b, lanes);
  for (std::size_t j = 0; j < b; ++j) {
    mu_rows[j * n + 1] += lanes[j].combine();
    obs::meter_dot(d);
  }

  for (std::size_t k = 2; k < n; ++k) {
    // Unfused multiply + combine + lane-carry dot: bit-identical to the
    // serial engine's fused step by the fused kernels' own contract.
    for (std::size_t p = 0; p < nodes; ++p)
      sm.shard_multiply_block(p, b, working(ws.prev, p), owned(ws.next, p));
    for (std::size_t p = 0; p < nodes; ++p) {
      const linalg::MatrixShard& s = sm.shard(p);
      const std::size_t off = s.owned_offset() * b;
      const std::size_t len = s.local_rows() * b;
      double* nx = ws.next[p].data() + off;
      const double* p2 = ws.prev2[p].data() + off;
      for (std::size_t i = 0; i < len; ++i) nx[i] = 2.0 * nx[i] - p2[i];
    }
    sharded_block_dot(sm, ws.r0, ws.next, b, lanes);
    for (std::size_t j = 0; j < b; ++j) mu_rows[j * n + k] += lanes[j].combine();
    // Metered exactly like one fused spmmv_combine_dot pass.
    const double bytes =
        static_cast<double>(op.spmv_matrix_bytes()) + 4.0 * bb * dd * sizeof(double);
    obs::add(obs::Counter::SpmvCalls, bb);
    obs::add(obs::Counter::DotCalls, bb);
    obs::add(obs::Counter::FusedCalls, 1.0);
    obs::add(obs::Counter::Flops,
             bb * (static_cast<double>(op.spmv_flops()) + 4.0 * dd));
    obs::add(obs::Counter::BytesStreamed, bytes);
    obs::add(obs::Counter::FusedBytes, bytes);
    exchange_ghosts(sm, ws.next, b);
    std::swap(ws.prev2, ws.prev);
    std::swap(ws.prev, ws.next);
  }
}

/// RNG fill of the owned slots with the members' GLOBAL instance streams:
/// member j of the group starting at `first` draws stream first + j,
/// element index = global row — the same values fill_random_vector_block
/// produces, laid out shard by shard.
void fill_sharded_block(const linalg::ShardedMatrix& sm, const MomentParams& params,
                        std::size_t first, std::size_t b,
                        std::vector<std::vector<double>>& r0) {
  for (std::size_t p = 0; p < sm.nodes(); ++p) {
    const linalg::MatrixShard& s = sm.shard(p);
    for (std::size_t lr = 0; lr < s.local_rows(); ++lr) {
      const std::size_t slot = (s.owned_offset() + lr) * b;
      for (std::size_t j = 0; j < b; ++j)
        r0[p][slot + j] = rng::draw_random_element(params.vector_kind, params.seed, first + j,
                                                   s.row_begin + lr);
    }
  }
  obs::add(obs::Counter::RngElements,
           static_cast<double>(sm.dim()) * static_cast<double>(b));
}

// ---------------------------------------------------------------------------
// Cost model.  Shard compute is priced per node (CPU roofline or gpusim
// kernel model); each recursion step overlaps the halo transfer with the
// interior compute: t_step(p) = t_boundary(p) + max(t_interior(p),
// t_halo(p)), and the bulk-synchronous cluster step is max_p t_step(p).

/// Modeled per-step / per-group timings of one node.
struct NodeCost {
  double boundary_s = 0.0;  ///< boundary-row share of one recursion step
  double interior_s = 0.0;  ///< interior-row share of one recursion step
  double halo_s = 0.0;      ///< halo receive time per step
  double extra_s = 0.0;     ///< per-group fill + initial dots + copy
  double step_flops = 0.0;
  double step_bytes = 0.0;
  double extra_flops = 0.0;
  double extra_bytes = 0.0;
};

/// Modeled cost of ONE instance group of `b` members.
struct GroupCost {
  std::vector<NodeCost> nodes;
  double step_parallel = 0.0;  ///< max_p t_step(p)
  double allreduce_s = 0.0;
  double parallel = 0.0;
  double serialized = 0.0;
  double halo = 0.0;
  double exposed = 0.0;
  double halo_bytes_step = 0.0;
  double allreduce_bytes = 0.0;
};

/// Seconds of a compute phase on `node`.  `write_bytes` is the output
/// stream share of `bytes` (the GPU model prices reads and writes
/// separately; the CPU roofline only sees the total).
double node_compute_seconds(const ClusterNodeSpec& node, double flops, double bytes,
                            double write_bytes, double working_set,
                            std::size_t threads_hint) {
  if (node.kind == ClusterNodeSpec::Kind::GpuDevice) {
    gpusim::CostCounters c;
    c.flops = flops;
    c.global_read_bytes[static_cast<std::size_t>(gpusim::AccessPattern::Coalesced)] =
        bytes - write_bytes;
    c.global_write_bytes[static_cast<std::size_t>(gpusim::AccessPattern::Coalesced)] =
        write_bytes;
    return gpusim::model_kernel_time(node.gpu, gpusim::ExecConfig::linear(threads_hint, 128), c)
        .seconds;
  }
  cpumodel::CpuWorkload w;
  w.flops = flops;
  w.bytes_streamed = bytes;
  w.working_set_bytes = working_set;
  return cpumodel::model_cpu_time(node.cpu, w).seconds;
}

GroupCost group_cost(const linalg::ShardedMatrix& sm,
                     const std::vector<ClusterNodeSpec>& specs,
                     const gpusim::InterconnectSpec& link, std::size_t n, std::size_t b) {
  GroupCost gc;
  const auto bb = static_cast<double>(b);
  const std::size_t nodes = sm.nodes();
  gc.nodes.resize(nodes);
  double step_compute = 0.0;
  double extra_parallel = 0.0;
  double halo_per_step = 0.0;
  for (std::size_t p = 0; p < nodes; ++p) {
    const linalg::MatrixShard& s = sm.shard(p);
    NodeCost& nc = gc.nodes[p];
    const auto rows = static_cast<double>(s.local_rows());
    const auto nnz = static_cast<double>(s.local.nnz());
    nc.step_flops = bb * (2.0 * nnz + 4.0 * rows);
    nc.step_bytes = static_cast<double>(s.matrix_bytes) + 4.0 * bb * rows * sizeof(double);
    const double t_step =
        node_compute_seconds(specs[p], nc.step_flops, nc.step_bytes,
                             /*write_bytes=*/bb * rows * sizeof(double), nc.step_bytes,
                             s.local_rows() * b);
    const double frac = nnz > 0.0 ? static_cast<double>(s.boundary_nnz) / nnz : 0.0;
    nc.boundary_s = t_step * frac;
    nc.interior_s = t_step - nc.boundary_s;
    nc.halo_s = gpusim::halo_exchange_seconds(
        link, s.neighbour_count, static_cast<double>(s.halo_recv_doubles) * bb * sizeof(double));
    nc.extra_flops = 12.0 * bb * rows;
    nc.extra_bytes = 2.0 * bb * rows * sizeof(double);
    nc.extra_s = node_compute_seconds(specs[p], nc.extra_flops, nc.extra_bytes,
                                      /*write_bytes=*/bb * rows * sizeof(double),
                                      4.0 * bb * rows * sizeof(double), s.local_rows() * b);

    gc.step_parallel = std::max(gc.step_parallel, nc.boundary_s + std::max(nc.interior_s, nc.halo_s));
    step_compute = std::max(step_compute, nc.boundary_s + nc.interior_s);
    extra_parallel = std::max(extra_parallel, nc.extra_s);
    halo_per_step += nc.halo_s;
    gc.halo_bytes_step += static_cast<double>(s.halo_recv_doubles) * bb * sizeof(double);
    gc.serialized += nc.extra_s + static_cast<double>(n - 1) * (nc.boundary_s + nc.interior_s);
  }
  const auto steps = static_cast<double>(n - 1);
  gc.allreduce_bytes = static_cast<double>(n) * bb * sizeof(double);
  gc.allreduce_s = gpusim::ring_all_reduce_seconds(link, nodes, gc.allreduce_bytes);
  gc.parallel = extra_parallel + steps * gc.step_parallel + gc.allreduce_s;
  gc.halo = steps * halo_per_step;
  gc.exposed = steps * (gc.step_parallel - step_compute);
  return gc;
}

/// Appends one Perfetto-visible timeline per node (its own process in the
/// Chrome-trace export): the first instance group on the shared
/// bulk-synchronous clock — setup, one detailed recursion step with the
/// halo receive on the copy lane, the remaining steps aggregated, and the
/// closing ring all-reduce.
void emit_node_timelines(const std::string& engine_name, const linalg::ShardedMatrix& sm,
                         const std::vector<ClusterNodeSpec>& specs, const GroupCost& gc,
                         std::size_t n, std::size_t b) {
  obs::Report* report = obs::active_report();
  if (report == nullptr) return;
  double setup_parallel = 0.0;
  for (const NodeCost& nc : gc.nodes) setup_parallel = std::max(setup_parallel, nc.extra_s);
  const double steps_end =
      setup_parallel + static_cast<double>(n - 1) * gc.step_parallel;
  for (std::size_t p = 0; p < sm.nodes(); ++p) {
    const linalg::MatrixShard& s = sm.shard(p);
    const NodeCost& nc = gc.nodes[p];
    obs::DeviceTimelineRecord rec;
    rec.label = engine_name + ".node" + std::to_string(p);
    rec.device = specs[p].label();
    if (specs[p].kind == ClusterNodeSpec::Kind::GpuDevice) {
      rec.peak_flops = specs[p].gpu.peak_dp_flops();
      rec.peak_bandwidth = specs[p].gpu.global_mem_bandwidth;
    } else {
      rec.peak_flops = specs[p].cpu.peak_flops();
      rec.peak_bandwidth = specs[p].cpu.dram_bandwidth;
    }
    rec.streams = 2;
    rec.critical_path_seconds = gc.parallel;

    const auto ev = [&](const char* kind, std::string label, std::size_t stream, double start,
                        double end, double bytes, double flops, double global_bytes) {
      obs::TimelineEventRecord e;
      e.kind = kind;
      e.label = std::move(label);
      e.stream = stream;
      e.start_seconds = start;
      e.end_seconds = end;
      e.bytes = bytes;
      e.flops = flops;
      e.global_bytes = global_bytes;
      rec.events.push_back(std::move(e));
    };
    ev("kernel", "group.setup (fill + mu~0/mu~1)", 0, 0.0, nc.extra_s, 0.0, nc.extra_flops,
       nc.extra_bytes);
    // Step 0 in detail: boundary rows first, then the halo receive on the
    // copy lane overlapped with the interior rows.
    const double t0 = setup_parallel;
    ev("kernel", "step0.boundary-rows", 0, t0, t0 + nc.boundary_s, 0.0,
       nc.step_flops * (nc.boundary_s / std::max(nc.boundary_s + nc.interior_s, 1e-300)), 0.0);
    ev("h2d", "step0.halo-recv", 1, t0 + nc.boundary_s, t0 + nc.boundary_s + nc.halo_s,
       static_cast<double>(s.halo_recv_doubles) * static_cast<double>(b) * sizeof(double), 0.0,
       0.0);
    ev("kernel", "step0.interior-rows", 0, t0 + nc.boundary_s,
       t0 + nc.boundary_s + nc.interior_s, 0.0,
       nc.step_flops * (nc.interior_s / std::max(nc.boundary_s + nc.interior_s, 1e-300)), 0.0);
    if (n > 2)
      ev("kernel", "steps 1.." + std::to_string(n - 2) + " (aggregate)", 0,
         setup_parallel + gc.step_parallel, steps_end, 0.0,
         static_cast<double>(n - 2) * nc.step_flops,
         static_cast<double>(n - 2) * nc.step_bytes);
    ev("d2h", "mu~ ring all-reduce", 1, steps_end, steps_end + gc.allreduce_s,
       gc.allreduce_bytes, 0.0, 0.0);
    report->timelines.push_back(std::move(rec));
  }
}

}  // namespace

ClusterNodeSpec ClusterNodeSpec::cpu_node(cpumodel::CpuSpec spec) {
  ClusterNodeSpec n;
  n.kind = Kind::CpuRoofline;
  n.cpu = std::move(spec);
  return n;
}

ClusterNodeSpec ClusterNodeSpec::gpu_node(gpusim::DeviceSpec spec) {
  ClusterNodeSpec n;
  n.kind = Kind::GpuDevice;
  n.gpu = std::move(spec);
  return n;
}

ClusterMomentEngine::ClusterMomentEngine(ClusterEngineConfig config)
    : config_(std::move(config)) {
  config_.link.validate();
  KPM_REQUIRE(config_.threads >= 1, "ClusterMomentEngine: need at least one thread");
  KPM_REQUIRE(config_.resolved_nodes() >= 1,
              "ClusterMomentEngine: cluster needs at least one node");
  if (!config_.nodes.empty() && config_.decomposition.has_value())
    KPM_REQUIRE(config_.nodes.size() == config_.decomposition->nodes(),
                "ClusterMomentEngine: " + std::to_string(config_.nodes.size()) +
                    " node specs for a " + std::to_string(config_.decomposition->nodes()) +
                    "-node decomposition");
  for (const ClusterNodeSpec& n : config_.nodes) {
    if (n.kind == ClusterNodeSpec::Kind::GpuDevice)
      n.gpu.validate();
    else
      n.cpu.validate();
  }
}

ClusterMomentEngine::~ClusterMomentEngine() = default;

std::string ClusterMomentEngine::name() const {
  return "cluster-sharded-x" + std::to_string(config_.resolved_nodes());
}

MomentResult ClusterMomentEngine::compute(const linalg::MatrixOperator& h_tilde,
                                          const MomentParams& params,
                                          std::size_t sample_instances) {
  params.validate();
  const std::size_t d = h_tilde.dim();
  const std::size_t n = params.num_moments;
  const std::size_t total = params.instances();
  const std::size_t executed = resolve_sample_count(sample_instances, total);

  const linalg::Decomposition dec =
      config_.decomposition.has_value()
          ? *config_.decomposition
          : linalg::Decomposition::uniform(d, config_.resolved_nodes(), config_.halo_width);
  KPM_REQUIRE(dec.dim() == d, "ClusterMomentEngine: decomposition covers " +
                                  std::to_string(dec.dim()) + " rows but H~ has " +
                                  std::to_string(d));
  std::vector<ClusterNodeSpec> specs = config_.nodes;
  if (specs.empty()) specs.assign(dec.nodes(), ClusterNodeSpec::cpu_node());
  KPM_REQUIRE(specs.size() == dec.nodes(),
              "ClusterMomentEngine: node spec count does not match the decomposition");
  const linalg::Storage shard_storage =
      h_tilde.storage() == linalg::Storage::Sell ? linalg::Storage::Sell : linalg::Storage::Crs;
  const linalg::ShardedMatrix sm(h_tilde, dec, shard_storage);

  const std::size_t block = params.block_r;

  // Stable span name (no node/thread suffix): deterministic fingerprints of
  // a fixed decomposition must not depend on the host thread count.
  obs::ScopedSpan span("moments.cluster-sharded");
  // Serial-reference per-instance modeled ticks (Core i7-930, like every
  // other engine): independent of node specs, P and threads, so histograms
  // are invariant across every cluster configuration.
  const std::uint64_t instance_ticks =
      modeled_instance_ticks(cpumodel::CpuSpec::core_i7_930(), h_tilde, n, block);
  MomentResult result = averaged_result(name(), d, params, executed, config_.threads, &pool_, [&] {
    return [&, ws = ShardWorkspace(sm, block)](std::size_t first, std::size_t b,
                                               std::span<double> rows) mutable {
      fill_sharded_block(sm, params, first, b, ws.r0);
      accumulate_sharded_group(sm, h_tilde, b, n, rows, ws);
      for (std::size_t j = 0; j < b; ++j) obs::record(obs::Histo::InstanceModelNs, instance_ticks);
    };
  });

  // Cost model, extrapolated to all `total` instances: full groups of
  // `block` plus one ragged group.
  const std::size_t full = total / block;
  const std::size_t rem = total % block;
  const GroupCost gc = group_cost(sm, specs, config_.link, n, block);
  scaling_ = ClusterScalingReport{};
  scaling_.nodes = sm.nodes();
  const auto add_groups = [&](const GroupCost& g, double count) {
    scaling_.parallel_seconds += count * g.parallel;
    scaling_.serialized_seconds += count * g.serialized;
    scaling_.halo_seconds += count * g.halo;
    scaling_.exposed_halo_seconds += count * g.exposed;
    scaling_.allreduce_seconds += count * g.allreduce_s;
    scaling_.halo_bytes_total += count * static_cast<double>(n - 1) * g.halo_bytes_step;
    scaling_.allreduce_bytes_total += count * g.allreduce_bytes;
  };
  add_groups(gc, static_cast<double>(full));
  if (rem > 0) add_groups(group_cost(sm, specs, config_.link, n, rem), 1.0);
  scaling_.halo_bytes_per_step = gc.halo_bytes_step;
  scaling_.communication_seconds = scaling_.halo_seconds + scaling_.allreduce_seconds;
  scaling_.efficiency =
      scaling_.parallel_seconds > 0.0
          ? scaling_.serialized_seconds /
                (static_cast<double>(sm.nodes()) * scaling_.parallel_seconds)
          : 0.0;

  result.model_seconds = scaling_.parallel_seconds;
  result.transfer_seconds = scaling_.allreduce_seconds + scaling_.exposed_halo_seconds;
  result.compute_seconds = result.model_seconds - result.transfer_seconds;

  emit_node_timelines(name(), sm, specs, full > 0 ? gc : group_cost(sm, specs, config_.link, n, rem),
                      n, full > 0 ? block : rem);
  return result;
}

std::vector<double> cluster_ldos_moments(const linalg::MatrixOperator& h_tilde,
                                         const linalg::Decomposition& dec, std::size_t site,
                                         std::size_t num_moments) {
  KPM_REQUIRE(site < h_tilde.dim(), "cluster_ldos_moments: site out of range");
  KPM_REQUIRE(num_moments >= 1, "cluster_ldos_moments: need at least one moment");
  KPM_REQUIRE(dec.dim() == h_tilde.dim(),
              "cluster_ldos_moments: decomposition does not match the operator");
  obs::ScopedSpan span("ldos.cluster-sharded");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(num_moments));
  const linalg::Storage shard_storage =
      h_tilde.storage() == linalg::Storage::Sell ? linalg::Storage::Sell : linalg::Storage::Crs;
  const linalg::ShardedMatrix sm(h_tilde, dec, shard_storage);
  std::vector<double> mu(num_moments, 0.0);

  ShardWorkspace ws(sm, 1);
  const std::size_t owner = dec.owner_of(site);
  const linalg::MatrixShard& s = sm.shard(owner);
  ws.r0[owner][s.owned_offset() + (site - s.row_begin)] = 1.0;
  accumulate_sharded_group(sm, h_tilde, 1, num_moments, mu, ws);
  return mu;
}

}  // namespace kpm::core

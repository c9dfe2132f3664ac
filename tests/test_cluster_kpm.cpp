// Differential test harness for the cluster-sharded KPM engine: sharded
// moments must be BITWISE identical to the serial reference for every node
// count, block width, thread count and storage format, and every invalid
// cluster configuration must be rejected with a clear error.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "core/ldos.hpp"
#include "core/moments_cluster.hpp"
#include "core/moments_cpu.hpp"
#include "gpusim/cluster.hpp"
#include "lattice/decompose.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/honeycomb.hpp"
#include "lattice/lattice.hpp"
#include "linalg/decomposition.hpp"
#include "linalg/sell_matrix.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

struct Fixture {
  linalg::CrsMatrix h_tilde;
  linalg::SellMatrix sell;

  explicit Fixture(std::size_t l = 4) {
    const auto lat = lattice::HypercubicLattice::cubic(l, l, l);
    const auto h = lattice::build_tight_binding_crs(lat);
    linalg::MatrixOperator op(h);
    h_tilde = linalg::rescale(h, linalg::make_spectral_transform(op));
    sell = linalg::SellMatrix::from_crs(h_tilde, 4, 8);
  }
};

MomentParams small_params(std::size_t block = 1) {
  MomentParams p;
  p.num_moments = 16;
  p.random_vectors = 4;
  p.realizations = 2;  // 8 instances
  p.block_r = block;
  return p;
}

void expect_bitwise_equal(const std::vector<double>& a, const std::vector<double>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t n = 0; n < a.size(); ++n) {
    // EXPECT_EQ on doubles is exact — but compare bit patterns so that a
    // -0.0 vs 0.0 or NaN discrepancy cannot hide.
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a[n], sizeof ba);
    std::memcpy(&bb, &b[n], sizeof bb);
    EXPECT_EQ(ba, bb) << what << ": moment " << n << " differs: " << a[n] << " vs " << b[n];
  }
}

// --- Tentpole: differential bit-identity sweep -----------------------------

TEST(ClusterKpm, BitIdenticalToSerialAcrossNodeCounts) {
  Fixture f;
  const linalg::MatrixOperator op(f.h_tilde);
  const auto p = small_params();
  CpuMomentEngine cpu;
  const auto ref = cpu.compute(op, p);
  for (std::size_t nodes : {1u, 2u, 3u, 4u, 8u}) {
    ClusterEngineConfig cfg;
    cfg.node_count = nodes;
    ClusterMomentEngine cluster(cfg);
    const auto got = cluster.compute(op, p);
    expect_bitwise_equal(ref.mu, got.mu, "P=" + std::to_string(nodes));
    EXPECT_EQ(got.instances_executed, ref.instances_executed);
    EXPECT_EQ(got.engine, "cluster-sharded-x" + std::to_string(nodes));
  }
}

TEST(ClusterKpm, BitIdenticalAcrossThreadsBlocksAndStorage) {
  Fixture f;
  const linalg::MatrixOperator crs_op(f.h_tilde);
  const linalg::MatrixOperator sell_op(f.sell);
  CpuMomentEngine cpu;
  const auto ref = cpu.compute(crs_op, small_params());
  for (const auto* op : {&crs_op, &sell_op}) {
    for (std::size_t nodes : {2u, 4u, 8u}) {
      for (int threads : {1, 2, 4, 7}) {
        for (std::size_t block : {1u, 4u}) {
          ClusterEngineConfig cfg;
          cfg.node_count = nodes;
          cfg.threads = threads;
          ClusterMomentEngine cluster(cfg);
          const auto got = cluster.compute(*op, small_params(block));
          expect_bitwise_equal(ref.mu, got.mu,
                               linalg::to_string(op->storage()) + std::string(" P=") +
                                   std::to_string(nodes) + " t=" + std::to_string(threads) +
                                   " b=" + std::to_string(block));
          EXPECT_EQ(got.threads_used, threads == 1 ? 1 : threads);
        }
      }
    }
  }
}

TEST(ClusterKpm, SlabAndUniformDecompositionsAgreeBitwise) {
  Fixture f;
  const linalg::MatrixOperator op(f.h_tilde);
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  const auto p = small_params();
  CpuMomentEngine cpu;
  const auto ref = cpu.compute(op, p);
  for (std::size_t nodes : {2u, 4u}) {
    ClusterEngineConfig cfg;
    cfg.decomposition = lattice::slab_decomposition(lat, nodes);
    ClusterMomentEngine cluster(cfg);
    const auto got = cluster.compute(op, p);
    expect_bitwise_equal(ref.mu, got.mu, "slab P=" + std::to_string(nodes));
  }
}

TEST(ClusterKpm, HoneycombDecompositionBitIdentical) {
  const auto lat = lattice::HoneycombLattice(6, 5);
  const auto h = lat.hamiltonian();
  const linalg::MatrixOperator raw(h);
  const auto h_tilde = linalg::rescale(h, linalg::make_spectral_transform(raw));
  const linalg::MatrixOperator op(h_tilde);
  const auto p = small_params();
  CpuMomentEngine cpu;
  const auto ref = cpu.compute(op, p);
  for (std::size_t nodes : {1u, 2u, 5u}) {
    ClusterEngineConfig cfg;
    cfg.decomposition = lattice::honeycomb_decomposition(lat, nodes);
    ClusterMomentEngine cluster(cfg);
    const auto got = cluster.compute(op, p);
    expect_bitwise_equal(ref.mu, got.mu, "honeycomb P=" + std::to_string(nodes));
  }
}

TEST(ClusterKpm, HeterogeneousNodesChangeCostButNotValues) {
  Fixture f;
  const linalg::MatrixOperator op(f.h_tilde);
  const auto p = small_params();
  CpuMomentEngine cpu;
  const auto ref = cpu.compute(op, p);

  ClusterEngineConfig hetero;
  hetero.nodes = {ClusterNodeSpec::gpu_node(gpusim::DeviceSpec::tesla_c2050()),
                  ClusterNodeSpec::cpu_node(),
                  ClusterNodeSpec::gpu_node(gpusim::DeviceSpec::geforce_gtx285())};
  ClusterMomentEngine mixed(hetero);
  const auto got = mixed.compute(op, p);
  expect_bitwise_equal(ref.mu, got.mu, "heterogeneous P=3");

  ClusterEngineConfig homo;
  homo.node_count = 3;
  ClusterMomentEngine cpus(homo);
  const auto cpu_only = cpus.compute(op, p);
  expect_bitwise_equal(got.mu, cpu_only.mu, "hetero vs homo");
  // A slow CPU node gates the bulk-synchronous cluster: the mixed cluster's
  // modeled wall-clock differs from the all-CPU one, while the values do not.
  EXPECT_GT(mixed.last_scaling().parallel_seconds, 0.0);
  EXPECT_GT(cpus.last_scaling().parallel_seconds, 0.0);
  EXPECT_NE(mixed.last_scaling().parallel_seconds, cpus.last_scaling().parallel_seconds);
}

TEST(ClusterKpm, LdosBitIdenticalToSerial) {
  Fixture f;
  const linalg::MatrixOperator op(f.h_tilde);
  for (std::size_t site : {0u, 17u, 63u}) {
    const auto ref = ldos_moments(op, site, 12);
    for (std::size_t nodes : {1u, 3u, 4u}) {
      const auto dec = linalg::Decomposition::uniform(op.dim(), nodes);
      const auto got = cluster_ldos_moments(op, dec, site, 12);
      expect_bitwise_equal(ref, got,
                           "ldos site=" + std::to_string(site) + " P=" + std::to_string(nodes));
    }
  }
  // Degenerate single-moment request.
  const auto one = cluster_ldos_moments(op, linalg::Decomposition::uniform(op.dim(), 2), 5, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 1.0);
}

TEST(ClusterKpm, LdosCountersMatchSerial) {
  Fixture f;
  const linalg::MatrixOperator op(f.h_tilde);
  const auto counters = [](auto&& fn) {
    obs::CounterSet sink;
    obs::CounterScope scope(sink);
    (void)fn();
    return sink;
  };
  for (std::size_t n : {1u, 2u, 12u}) {
    const auto serial = counters([&] { return ldos_moments(op, 17, n); });
    for (std::size_t nodes : {1u, 3u}) {
      const auto dec = linalg::Decomposition::uniform(op.dim(), nodes);
      EXPECT_EQ(counters([&] { return cluster_ldos_moments(op, dec, 17, n); }), serial)
          << "N=" << n << " P=" << nodes;
    }
  }
}

// --- Observability: counters, histograms and timelines ---------------------

TEST(ClusterKpm, CountersAndHistogramsArePartitionAndThreadInvariant) {
  Fixture f;
  const linalg::MatrixOperator op(f.h_tilde);
  const auto p = small_params();

  obs::Report serial_report;
  {
    obs::Collect scope(serial_report);
    CpuMomentEngine cpu;
    (void)cpu.compute(op, p);
  }
  for (std::size_t nodes : {1u, 2u, 4u}) {
    for (int threads : {1, 4}) {
      obs::Report report;
      {
        obs::Collect scope(report);
        ClusterEngineConfig cfg;
        cfg.node_count = nodes;
        cfg.threads = threads;
        ClusterMomentEngine cluster(cfg);
        (void)cluster.compute(op, p);
      }
      EXPECT_EQ(report.counters, serial_report.counters)
          << "P=" << nodes << " threads=" << threads;
      // SpanWallNs measures real host time and is never deterministic;
      // the modeled per-instance histogram must match the serial engine's.
      EXPECT_EQ(report.histograms[obs::Histo::InstanceModelNs],
                serial_report.histograms[obs::Histo::InstanceModelNs])
          << "P=" << nodes << " threads=" << threads;
    }
  }
}

TEST(ClusterKpm, EachNodeExportsItsOwnTimeline) {
  Fixture f;
  const linalg::MatrixOperator op(f.h_tilde);
  obs::Report report;
  {
    obs::Collect scope(report);
    ClusterEngineConfig cfg;
    cfg.node_count = 3;
    ClusterMomentEngine cluster(cfg);
    (void)cluster.compute(op, small_params());
  }
  ASSERT_EQ(report.timelines.size(), 3u);
  for (std::size_t pnode = 0; pnode < 3; ++pnode) {
    const auto& rec = report.timelines[pnode];
    EXPECT_EQ(rec.label, "cluster-sharded-x3.node" + std::to_string(pnode));
    EXPECT_EQ(rec.streams, 2u);
    EXPECT_GT(rec.critical_path_seconds, 0.0);
    bool saw_halo = false, saw_allreduce = false, saw_kernel = false;
    for (const auto& ev : rec.events) {
      EXPECT_GE(ev.end_seconds, ev.start_seconds);
      if (ev.kind == "h2d") saw_halo = true;
      if (ev.kind == "d2h") saw_allreduce = true;
      if (ev.kind == "kernel") saw_kernel = true;
    }
    EXPECT_TRUE(saw_halo) << "node " << pnode << " missing halo-recv copy event";
    EXPECT_TRUE(saw_allreduce) << "node " << pnode << " missing all-reduce event";
    EXPECT_TRUE(saw_kernel);
  }
}

TEST(ClusterKpm, ScalingReportIsConsistent) {
  Fixture f;
  const linalg::MatrixOperator op(f.h_tilde);
  ClusterEngineConfig cfg;
  cfg.node_count = 4;
  ClusterMomentEngine cluster(cfg);
  const auto result = cluster.compute(op, small_params());
  const auto& s = cluster.last_scaling();
  EXPECT_EQ(s.nodes, 4u);
  EXPECT_GT(s.parallel_seconds, 0.0);
  EXPECT_GT(s.serialized_seconds, 0.0);
  EXPECT_GT(s.halo_seconds, 0.0);
  EXPECT_GT(s.allreduce_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.communication_seconds, s.halo_seconds + s.allreduce_seconds);
  EXPECT_GT(s.efficiency, 0.0);
  EXPECT_LE(s.efficiency, 1.0);
  EXPECT_GE(s.halo_seconds, s.exposed_halo_seconds);
  EXPECT_GT(s.halo_bytes_per_step, 0.0);
  EXPECT_GT(s.halo_bytes_total, 0.0);
  EXPECT_GT(s.allreduce_bytes_total, 0.0);
  EXPECT_DOUBLE_EQ(result.model_seconds, s.parallel_seconds);
  EXPECT_DOUBLE_EQ(result.transfer_seconds, s.allreduce_seconds + s.exposed_halo_seconds);
  EXPECT_DOUBLE_EQ(result.compute_seconds, result.model_seconds - result.transfer_seconds);
}

TEST(ClusterKpm, IdealFabricHidesAllCommunication) {
  Fixture f;
  const linalg::MatrixOperator op(f.h_tilde);
  ClusterEngineConfig cfg;
  cfg.node_count = 4;
  cfg.link = gpusim::InterconnectSpec::ideal();
  ClusterMomentEngine cluster(cfg);
  (void)cluster.compute(op, small_params());
  const auto& s = cluster.last_scaling();
  // Zero latency and ~infinite bandwidth: the 1-plane slabs of this split
  // have no interior rows to hide behind, but the exposed halo time is the
  // raw wire time — vanishingly small on the ideal fabric.
  EXPECT_LT(s.exposed_halo_seconds, 1e-12);
  EXPECT_LT(s.communication_seconds, 1e-12);
}

// --- Negative paths ---------------------------------------------------------

TEST(ClusterKpm, RejectsZeroNodeCluster) {
  ClusterEngineConfig cfg;
  cfg.node_count = 0;
  EXPECT_THROW(ClusterMomentEngine{cfg}, kpm::Error);
}

TEST(ClusterKpm, RejectsNonCoveringPartition) {
  // Gap: [0, 10) + [20, 64) misses rows 10..19.
  EXPECT_THROW(linalg::Decomposition(64, {{0, 10}, {20, 64}}), kpm::Error);
  // Overlap.
  EXPECT_THROW(linalg::Decomposition(64, {{0, 40}, {30, 64}}), kpm::Error);
  // Short coverage.
  EXPECT_THROW(linalg::Decomposition(64, {{0, 32}}), kpm::Error);
  // Empty range.
  EXPECT_THROW(linalg::Decomposition(64, {{0, 0}, {0, 64}}), kpm::Error);
}

TEST(ClusterKpm, RejectsHaloWiderThanSubdomain) {
  // Thinnest shard has 2 rows; a 3-layer halo cannot fit.
  EXPECT_THROW(linalg::Decomposition(64, {{0, 2}, {2, 64}}, 3), kpm::Error);
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  EXPECT_THROW((void)lattice::slab_decomposition(lat, 4, 2), kpm::Error);
}

TEST(ClusterKpm, RejectsMoreNodesThanLatticePlanes) {
  const auto lat = lattice::HypercubicLattice::cubic(4, 4, 4);
  EXPECT_THROW((void)lattice::slab_decomposition(lat, 5), kpm::Error);
  const auto hex = lattice::HoneycombLattice(4, 3);
  EXPECT_THROW((void)lattice::honeycomb_decomposition(hex, 4), kpm::Error);
}

TEST(ClusterKpm, RejectsUnknownInterconnect) {
  EXPECT_THROW((void)gpusim::InterconnectSpec::from_name("carrier-pigeon"), kpm::Error);
  EXPECT_EQ(gpusim::InterconnectSpec::from_name("ib-qdr").bandwidth,
            gpusim::InterconnectSpec::infiniband_qdr().bandwidth);
  EXPECT_EQ(gpusim::InterconnectSpec::from_name("pcie").bandwidth,
            gpusim::InterconnectSpec::pcie_peer().bandwidth);
  EXPECT_EQ(gpusim::InterconnectSpec::from_name("ideal").latency_s, 0.0);
}

TEST(ClusterKpm, RejectsMismatchedConfigurations) {
  Fixture f;
  const linalg::MatrixOperator op(f.h_tilde);
  // Decomposition for a different operator size.
  {
    ClusterEngineConfig cfg;
    cfg.decomposition = linalg::Decomposition::uniform(32, 2);
    ClusterMomentEngine cluster(cfg);
    EXPECT_THROW((void)cluster.compute(op, small_params()), kpm::Error);
  }
  // Node-spec count disagreeing with the decomposition.
  {
    ClusterEngineConfig cfg;
    cfg.decomposition = linalg::Decomposition::uniform(64, 3);
    cfg.nodes = {ClusterNodeSpec::cpu_node(), ClusterNodeSpec::cpu_node()};
    EXPECT_THROW(ClusterMomentEngine{cfg}, kpm::Error);
  }
  // More nodes than rows.
  {
    ClusterEngineConfig cfg;
    cfg.node_count = 65;
    ClusterMomentEngine cluster(cfg);
    EXPECT_THROW((void)cluster.compute(op, small_params()), kpm::Error);
  }
  // Dense operators cannot be sharded (no halo structure).
  {
    const auto dense = f.h_tilde.to_dense();
    const linalg::MatrixOperator dense_op(dense);
    ClusterMomentEngine cluster;
    EXPECT_THROW((void)cluster.compute(dense_op, small_params()), kpm::Error);
  }
}

}  // namespace

// Tests for the stochastic-trace estimator diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/estimator_stats.hpp"
#include "core/ldos.hpp"
#include "core/moments_cpu.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"

namespace {

using namespace kpm;
using namespace kpm::core;

struct Fixture {
  linalg::CrsMatrix h_tilde;

  Fixture() {
    const auto lat = lattice::HypercubicLattice::cubic(3, 3, 3);
    const auto h = lattice::build_tight_binding_crs(lat);
    linalg::MatrixOperator op(h);
    h_tilde = linalg::rescale(h, linalg::make_spectral_transform(op));
  }
};

TEST(EstimatorStats, MeanMatchesEngineMoments) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  MomentParams p;
  p.num_moments = 12;
  p.random_vectors = 4;
  p.realizations = 2;
  const auto stats = estimate_moment_statistics(op, p, 8);
  CpuMomentEngine engine;
  const auto r = engine.compute(op, p);  // same 8 instances (streams 0..7)
  for (std::size_t n = 0; n < 12; ++n) EXPECT_NEAR(stats.mean[n], r.mu[n], 1e-12);
}

// The estimator runs the reference engines' group recursion, so at every B
// it meters exactly what CpuMomentEngine meters over the same instances
// (MomentsProduced aside: the estimator produces statistics, not moments).
TEST(EstimatorStats, MetersTheEngineRecursionAtEveryBlock) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  MomentParams p;
  p.num_moments = 12;
  p.random_vectors = 4;
  p.realizations = 2;
  for (const std::size_t block : {1u, 3u}) {
    p.block_r = block;
    obs::Report stats_report, engine_report;
    {
      obs::Collect collect(stats_report);
      (void)estimate_moment_statistics(op, p, 7);
    }
    {
      obs::Collect collect(engine_report);
      CpuMomentEngine engine;
      (void)engine.compute(op, p, 7);
    }
    EXPECT_EQ(stats_report.counters.get(obs::Counter::InstancesExecuted), 7.0);
    for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
      const auto counter = static_cast<obs::Counter>(c);
      if (counter == obs::Counter::MomentsProduced) continue;
      EXPECT_EQ(stats_report.counters.get(counter), engine_report.counters.get(counter))
          << obs::to_string(counter) << " B=" << block;
    }
  }
}

TEST(EstimatorStats, Mu0HasZeroVarianceForRademacher) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  MomentParams p;
  p.num_moments = 4;
  const auto stats = estimate_moment_statistics(op, p, 16);
  EXPECT_DOUBLE_EQ(stats.mean[0], 1.0);
  EXPECT_NEAR(stats.standard_error[0], 0.0, 1e-12);
}

TEST(EstimatorStats, ErrorShrinksWithMoreInstances) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  MomentParams p;
  p.num_moments = 8;
  const auto small = estimate_moment_statistics(op, p, 8);
  const auto large = estimate_moment_statistics(op, p, 128);
  // Standard error of the mean falls ~1/sqrt(K): compare a mid moment.
  EXPECT_LT(large.standard_error[4], small.standard_error[4]);
}

TEST(EstimatorStats, ErrorBracketsTruth) {
  // |mean - exact| should rarely exceed ~4 standard errors.
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  MomentParams p;
  p.num_moments = 8;
  const auto stats = estimate_moment_statistics(op, p, 64);
  const auto exact = deterministic_trace_moments(op, 8);
  for (std::size_t n = 1; n < 8; ++n)
    EXPECT_LE(std::abs(stats.mean[n] - exact[n]), 5.0 * stats.standard_error[n] + 1e-9)
        << "moment " << n;
}

TEST(EstimatorStats, RequiresTwoInstances) {
  Fixture f;
  linalg::MatrixOperator op(f.h_tilde);
  MomentParams p;
  EXPECT_THROW((void)estimate_moment_statistics(op, p, 1), kpm::Error);
}

}  // namespace

#include "core/ldos.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/moments_cpu.hpp"
#include "linalg/fused_kernels.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace kpm::core {
namespace {

/// Runs the Chebyshev recursions from the unit vectors of `sites` as one
/// blocked group, adding member j's <e_j|r_k> into mu_rows[j*n + k].  Each
/// start vector counts as one instance, the role a random vector plays in
/// the stochastic engines; one site is a group of one, and a site may appear
/// more than once.
void accumulate_site_group(const linalg::MatrixOperator& h, std::span<const std::size_t> sites,
                           GroupWorkspace& ws, std::size_t n, std::span<double> mu_rows) {
  const std::size_t d = h.dim();
  const std::size_t b = sites.size();
  const std::size_t len = d * b;
  const auto sub = [len](std::vector<double>& v) { return std::span<double>(v.data(), len); };
  const std::span<double> dv(ws.dots.data(), b);
  std::fill(ws.r0.begin(), ws.r0.begin() + static_cast<std::ptrdiff_t>(len), 0.0);
  for (std::size_t j = 0; j < b; ++j) ws.r0[sites[j] * b + j] = 1.0;

  obs::add(obs::Counter::InstancesExecuted, static_cast<double>(b));
  std::copy(ws.r0.begin(), ws.r0.begin() + static_cast<std::ptrdiff_t>(len), ws.r_prev2.begin());
  obs::meter_stream_bytes(2.0 * static_cast<double>(len) * sizeof(double));
  linalg::block_dot(sub(ws.r0), sub(ws.r0), b, dv);
  for (std::size_t j = 0; j < b; ++j) {
    mu_rows[j * n] += dv[j];
    obs::meter_dot(d);
  }
  if (n == 1) return;
  linalg::spmmv_multiply(h, b, sub(ws.r0), sub(ws.r_prev));
  linalg::block_dot(sub(ws.r0), sub(ws.r_prev), b, dv);
  for (std::size_t j = 0; j < b; ++j) {
    mu_rows[j * n + 1] += dv[j];
    obs::meter_dot(d);
  }
  for (std::size_t k = 2; k < n; ++k) {
    linalg::spmmv_combine_dot(h, b, sub(ws.r_prev), sub(ws.r_prev2), sub(ws.r0), sub(ws.r_next),
                              dv);
    for (std::size_t j = 0; j < b; ++j) mu_rows[j * n + k] += dv[j];
    std::swap(ws.r_prev2, ws.r_prev);
    std::swap(ws.r_prev, ws.r_next);
  }
}

}  // namespace

std::vector<double> ldos_moments_sites(const linalg::MatrixOperator& h_tilde,
                                       std::span<const std::size_t> sites,
                                       std::size_t num_moments) {
  KPM_REQUIRE(!sites.empty(), "ldos_moments_sites: need at least one site");
  KPM_REQUIRE(std::all_of(sites.begin(), sites.end(),
                          [&](std::size_t site) { return site < h_tilde.dim(); }),
              "ldos_moments_sites: site out of range");
  KPM_REQUIRE(num_moments >= 1, "ldos_moments_sites: need at least one moment");
  obs::ScopedSpan span("ldos.moments");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(sites.size() * num_moments));
  GroupWorkspace ws(h_tilde.dim(), sites.size());
  std::vector<double> mu(sites.size() * num_moments, 0.0);
  accumulate_site_group(h_tilde, sites, ws, num_moments, mu);
  return mu;
}

std::vector<double> ldos_moments(const linalg::MatrixOperator& h_tilde, std::size_t site,
                                 std::size_t num_moments) {
  return ldos_moments_sites(h_tilde, std::span<const std::size_t>(&site, 1), num_moments);
}

DosCurve ldos_curve(const linalg::MatrixOperator& h_tilde,
                    const linalg::SpectralTransform& transform, std::size_t site,
                    std::size_t num_moments, const ReconstructOptions& options) {
  const auto mu = ldos_moments(h_tilde, site, num_moments);
  return reconstruct_dos(mu, transform, options);
}

std::vector<double> deterministic_trace_moments(const linalg::MatrixOperator& h_tilde,
                                                std::size_t num_moments, std::size_t block) {
  KPM_REQUIRE(num_moments >= 1, "deterministic_trace_moments: need at least one moment");
  KPM_REQUIRE(block >= 1, "deterministic_trace_moments: block must be >= 1");
  obs::ScopedSpan span("ldos.deterministic-trace");
  obs::add(obs::Counter::MomentsProduced, static_cast<double>(num_moments));
  const std::size_t d = h_tilde.dim();
  const std::size_t n = num_moments;
  std::vector<double> mu(n, 0.0);
  // Basis sweep: `block` unit vectors share each matrix stream.  Member rows
  // are summed in site order, so the result does not depend on B.
  GroupWorkspace ws(d, block);
  std::vector<double> rows(block * n);
  std::vector<std::size_t> sites(block);
  for (std::size_t first = 0; first < d; first += block) {
    const std::size_t b = std::min(block, d - first);
    std::iota(sites.begin(), sites.begin() + static_cast<std::ptrdiff_t>(b), first);
    std::fill(rows.begin(), rows.end(), 0.0);
    accumulate_site_group(h_tilde, std::span<const std::size_t>(sites.data(), b), ws, n, rows);
    for (std::size_t j = 0; j < b; ++j) {
      const double* row = rows.data() + j * n;
      for (std::size_t k = 0; k < n; ++k) mu[k] += row[k];
    }
  }
  for (double& m : mu) m /= static_cast<double>(d);
  return mu;
}

}  // namespace kpm::core

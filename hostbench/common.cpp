#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "hostbench.hpp"
#include "rng/splitmix64.hpp"

namespace hostbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t operation_seed(std::uint64_t workload_seed, std::uint64_t op) {
  kpm::rng::SplitMix64 gen(workload_seed * 0x9e3779b97f4a7c15ULL + op);
  return gen.next();
}

double triad_gbs(std::size_t total_bytes, double budget_seconds) {
  const std::size_t n = std::max<std::size_t>(total_bytes / (3 * sizeof(double)), 1024);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  double best = std::numeric_limits<double>::infinity();
  const double start = now_seconds();
  std::size_t reps = 0;
  while (reps < 5 || now_seconds() - start < budget_seconds) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    best = std::min(best, now_seconds() - t0);
    b[reps % n] = a[(reps * 7) % n] * 0.125;  // feed results back so no pass is dead code
    ++reps;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < n; i += 4096) sum += a[i];
  KPM_REQUIRE(std::isfinite(sum) && sum > 0.0, "triad: unexpected result");
  return 3.0 * sizeof(double) * static_cast<double>(n) / best / 1e9;
}

void add_triad_metrics(std::size_t kernel_working_set, bool smoke, Outcome& out) {
  const double budget = smoke ? 0.02 : 0.4;
  // Three quarters of one core's L2 (2 MiB when the host does not say)
  // leaves room for the code and stack of the loop.
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const std::size_t l2_set = (l2 > 0 ? static_cast<std::size_t>(l2) : std::size_t{2} << 20) * 3 / 4;
  const double triad = triad_gbs(kernel_working_set, budget);
  out.values["linalg.triad_gbs"] = triad;
  out.values["linalg.triad_bytes"] = static_cast<double>(kernel_working_set);
  out.values["linalg.triad_l2_gbs"] = triad_gbs(l2_set, budget);
  out.values["linalg.triad_l2_bytes"] = static_cast<double>(l2_set);
  out.values["linalg.kernel_bw_frac"] = out.values.at("linalg.kernel_gbs") / triad;
}

void add_attribution(double wall, const std::vector<std::string>& layers, Outcome& out) {
  double attributed = 0.0;
  for (const std::string& layer : layers) attributed += out.values[layer];
  out.values["trace.wall_s"] = wall;
  out.values["unattributed_s"] = wall - attributed;
  out.values["unattributed_frac"] = (wall - attributed) / wall;
}

void average_layers(std::size_t passes, Outcome& out) {
  for (auto& [name, value] : out.values) value /= static_cast<double>(passes);
}

}  // namespace hostbench

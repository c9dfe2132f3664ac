#include "linalg/vector_ops.hpp"

#include <cmath>

#include "common/error.hpp"

namespace kpm::linalg {

void axpby(double alpha, std::span<const double> x, double beta, std::span<double> y) {
  KPM_REQUIRE(x.size() == y.size(), "axpby: size mismatch");
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  KPM_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

void copy(std::span<const double> x, std::span<double> out) {
  KPM_REQUIRE(x.size() == out.size(), "copy: size mismatch");
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i];
}

// Pinned to a 64-byte line: the simulated engines' recursion
// (core::detail::instance_recursion) runs it once per moment, so its loop's
// offset should not move with the size of code linked before it.
[[gnu::aligned(64)]] double dot(std::span<const double> x, std::span<const double> y) {
  KPM_REQUIRE(x.size() == y.size(), "dot: size mismatch");
  KPM_REQUIRE(!x.empty(), "dot: empty span");
  // Canonical 4-lane order (see header): element i feeds lane i mod 4.  Four
  // independent dependency chains let the FPU overlap the adds; the fused
  // kernels replicate this order row-by-row so fused == unfused bitwise.
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  if (i < n) a0 += x[i] * y[i];
  if (i + 1 < n) a1 += x[i + 1] * y[i + 1];
  if (i + 2 < n) a2 += x[i + 2] * y[i + 2];
  return (a0 + a1) + (a2 + a3);
}

double nrm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

double asum_signed(std::span<const double> x) {
  KPM_REQUIRE(!x.empty(), "asum_signed: empty span");
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

double amax(std::span<const double> x) {
  KPM_REQUIRE(!x.empty(), "amax: empty span");
  double m = 0.0;
  for (double v : x) m = std::max(m, std::abs(v));
  return m;
}

void chebyshev_combine(std::span<const double> hx, std::span<const double> prev,
                       std::span<double> next) {
  KPM_REQUIRE(hx.size() == prev.size() && hx.size() == next.size(),
              "chebyshev_combine: size mismatch");
  const std::size_t n = hx.size();
  for (std::size_t i = 0; i < n; ++i) next[i] = 2.0 * hx[i] - prev[i];
}

}  // namespace kpm::linalg

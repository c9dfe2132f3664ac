// Two- and four-lane double packs, the run-time choice between them, and a
// compile-time index fold: the pieces that keep a fixed number of
// independent accumulators in SIMD registers.
//
// The blocked SpMMV kernels (one lane per vector-block member) and the
// batched Clenshaw evaluator (one lane per grid point) both run many
// independent scalar recurrences side by side.  Packing them per Double2
// (SSE2) or Double4 (AVX2) and expanding the pack loop at compile time lets
// GCC keep every accumulator in a register: a runtime-indexed array lives
// in memory.
//
// Double4 code is compiled only inside functions declared
// [[gnu::target("avx2")]], on x86 builds (KPM_AVX2_PACKS), and runs only
// when avx2_packs() is true; every other build and host runs the Double2
// bodies.  The global compile flags stay at the default target, so no
// other function can pick up AVX instructions.
#pragma once

#include <cstddef>
#include <cstring>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define KPM_AVX2_PACKS 1
#else
#define KPM_AVX2_PACKS 0
#endif

namespace kpm {

/// Two doubles in one 128-bit register (GCC/Clang vector extension): + - *
/// act lane-wise with scalar IEEE semantics, and a scalar operand is
/// broadcast to both lanes.  So each lane runs exactly the scalar
/// expression it replaces, operation for operation.
using Double2 = double __attribute__((vector_size(16)));

/// Four doubles in one 256-bit AVX register, with Double2's lane-wise
/// semantics.  Use it only inside [[gnu::target("avx2")]] functions.
using Double4 = double __attribute__((vector_size(32)));

/// f(0), f(1), ..., f(N - 1) in order, expanded at compile time, so every
/// index is a constant and an array indexed by it can live in registers.
template <std::size_t N, typename F>
void for_each_index(F&& f) {
  [&]<std::size_t... J>(std::index_sequence<J...>) {
    (f(J), ...);
  }(std::make_index_sequence<N>{});
}

/// Unaligned load of one pack (double, Double2 or Double4) from `p` into
/// `v`.  The pack is an out-parameter because this template is compiled
/// for the default target, where returning a Double4 by value would change
/// the calling convention (GCC's -Wpsabi).
template <typename Pack>
void load_pack(Pack& v, const double* p) noexcept {
  std::memcpy(&v, p, sizeof v);
}

/// Unaligned store of one pack (double, Double2 or Double4) to `p`.
template <typename Pack>
void store_pack(double* p, const Pack& v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

/// True when the Double4 (AVX2) bodies run: an x86 build on a host whose
/// CPU has AVX2, unless detail::ScopedAvx2Packs has switched them off.
/// The CPU is queried once per process.
[[nodiscard]] bool avx2_packs() noexcept;

namespace detail {

/// Test seam, not an option: while it lives, the pack bodies run Double4
/// only if `allowed` and the host has AVX2, else Double2, so a test can
/// compare both bodies on one host.  Set it before starting the kernels it
/// should affect; it is restored on destruction.
class ScopedAvx2Packs {
 public:
  explicit ScopedAvx2Packs(bool allowed) noexcept;
  ~ScopedAvx2Packs();
  ScopedAvx2Packs(const ScopedAvx2Packs&) = delete;
  ScopedAvx2Packs& operator=(const ScopedAvx2Packs&) = delete;

 private:
  bool previous_;
};

}  // namespace detail
}  // namespace kpm

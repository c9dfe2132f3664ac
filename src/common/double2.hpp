// Two-lane double packs and a compile-time index fold: the two pieces that
// keep a fixed number of independent accumulators in SSE2 registers.
//
// The blocked SpMMV kernels (one lane per vector-block member) and the
// batched Clenshaw evaluator (one lane per grid point) both run many
// independent scalar recurrences side by side.  Packing two of them per
// Double2 and expanding the pack loop at compile time lets GCC keep every
// accumulator in a register: a runtime-indexed array lives in memory.
#pragma once

#include <cstddef>
#include <cstring>
#include <utility>

namespace kpm {

/// Two doubles in one 128-bit register (GCC/Clang vector extension): + - *
/// act lane-wise with scalar IEEE semantics, and a scalar operand is
/// broadcast to both lanes.  So each lane runs exactly the scalar
/// expression it replaces, operation for operation.
using Double2 = double __attribute__((vector_size(16)));

/// f(0), f(1), ..., f(N - 1) in order, expanded at compile time, so every
/// index is a constant and an array indexed by it can live in registers.
template <std::size_t N, typename F>
void for_each_index(F&& f) {
  [&]<std::size_t... J>(std::index_sequence<J...>) {
    (f(J), ...);
  }(std::make_index_sequence<N>{});
}

/// Unaligned load of one pack (Double2 or double) from `p`.
template <typename Pack>
[[nodiscard]] Pack load_pack(const double* p) noexcept {
  Pack v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Unaligned store of one pack (Double2 or double) to `p`.
template <typename Pack>
void store_pack(double* p, const Pack& v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

}  // namespace kpm

// Unmetered blocked multiply for library code that meters its own model.
//
// The sharded cluster engine multiplies each node's rectangular shard but
// meters the UNSHARDED operator once per step (its counters are
// partition-invariant by construction), so its shard-local products must
// not meter again.  These run the same width-dispatched row body as
// linalg::spmmv_multiply (src/linalg/fused_kernels.cpp), so a member's
// per-row accumulation is identical to the unsharded kernel's.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/crs_matrix.hpp"
#include "linalg/sell_matrix.hpp"

namespace kpm::linalg::detail {

/// y_j = A * x_j for all `block` interleaved members, without metering.
/// A may be rectangular: x holds cols * block doubles, y rows * block.
void spmmv_multiply_unmetered(const CrsMatrix& a, std::size_t block, std::span<const double> x,
                              std::span<double> y);
void spmmv_multiply_unmetered(const SellMatrix& a, std::size_t block,
                              std::span<const double> x, std::span<double> y);

}  // namespace kpm::linalg::detail

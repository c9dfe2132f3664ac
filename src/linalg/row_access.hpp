// Row-access policies: how each storage iterates one logical row's entries.
//
// Kernels visit rows in LOGICAL order (the fused kernels' dot lane of row r
// is r mod 4, so the visit order is part of the bit-compatibility
// contract); every policy yields a row's entries in the same order as
// CrsMatrix rows (sorted columns), which keeps per-row accumulation
// bit-identical across storages.  `row_entries(r, f)` calls f(value, col)
// per stored entry, and `visit_rows(op, f)` hands f the policy of op's
// storage, so a kernel written once against a policy serves every storage.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/crs_matrix.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/operator.hpp"
#include "linalg/sell_matrix.hpp"

namespace kpm::linalg {

struct CrsAccess {
  std::span<const CrsMatrix::Index> row_ptr, col_idx;
  std::span<const double> values;

  explicit CrsAccess(const CrsMatrix& a)
      : row_ptr(a.row_ptr()), col_idx(a.col_idx()), values(a.values()) {}

  template <typename F>
  void row_entries(std::size_t r, F&& f) const {
    for (auto k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      f(values[kk], static_cast<std::size_t>(col_idx[kk]));
    }
  }
};

struct SellAccess {
  std::span<const SellMatrix::Index> chunk_ptr, row_len, slot_of, col_idx;
  std::span<const double> values;
  std::size_t chunk_size;

  explicit SellAccess(const SellMatrix& a)
      : chunk_ptr(a.chunk_ptr()), row_len(a.row_len()), slot_of(a.slot_of()),
        col_idx(a.col_idx()), values(a.values()), chunk_size(a.chunk_size()) {}

  template <typename F>
  void row_entries(std::size_t r, F&& f) const {
    const auto slot = static_cast<std::size_t>(slot_of[r]);
    const auto base = static_cast<std::size_t>(chunk_ptr[slot / chunk_size]);
    const std::size_t lane = slot % chunk_size;
    const auto len = static_cast<std::size_t>(row_len[slot]);
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t k = base + j * chunk_size + lane;
      f(values[k], static_cast<std::size_t>(col_idx[k]));
    }
  }
};

struct DenseAccess {
  const DenseMatrix& a;
  std::size_t cols;

  explicit DenseAccess(const DenseMatrix& m) : a(m), cols(m.cols()) {}

  template <typename F>
  void row_entries(std::size_t r, F&& f) const {
    const auto row = a.row(r);
    for (std::size_t c = 0; c < cols; ++c) f(row[c], c);
  }
};

/// Returns f(policy) for the row-access policy of op's storage.
template <typename F>
decltype(auto) visit_rows(const MatrixOperator& op, F&& f) {
  if (op.dense() != nullptr) return f(DenseAccess(*op.dense()));
  if (op.crs() != nullptr) return f(CrsAccess(*op.crs()));
  return f(SellAccess(*op.sell()));
}

}  // namespace kpm::linalg

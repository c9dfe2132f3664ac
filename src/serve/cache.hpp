// Content-addressed moment cache.
//
// KPM's cost asymmetry: the moments mu_n are the expensive part and depend
// only on (H~, kind-specific detail, N, R, S, seed, vector kind, engine
// class); reconstruction (damping kernel, energy grid, resolution) is
// cheap.  `MomentCache` exploits this by keying computed moment sets on
// exactly that tuple — queries differing only in reconstruction parameters
// never touch an engine.
//
// The Hamiltonian enters the key by *content*: an FNV-1a fingerprint over
// the rescaled CRS arrays and the spectral transform, so two models with
// identical matrices share entries and any numeric change invalidates them.
//
// The engine class is part of the key because cached bytes must be
// bit-identical to a cold compute: cpu-reference and cpu-parallel share the
// class "ref64" (their bit-identity at any thread count is a tested
// property); the paired and simulated-GPU recursions use different
// summation orders and get their own classes rather than risk serving
// almost-equal moments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/highlevel.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/spectral_transform.hpp"
#include "serve/request.hpp"

namespace kpm::serve {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a64 over raw bytes, chainable via `seed`.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                                    std::uint64_t seed = kFnvOffset) noexcept;

/// FNV-1a64 over the bit patterns of a double array (bit-exact: two arrays
/// hash equal iff they are bitwise equal).
[[nodiscard]] std::uint64_t checksum_doubles(std::span<const double> values,
                                             std::uint64_t seed = kFnvOffset) noexcept;

/// Content fingerprint of a rescaled operator: dims, CRS structure, values
/// and the spectral transform that produced it.
[[nodiscard]] std::uint64_t fingerprint_crs(const linalg::CrsMatrix& matrix,
                                            const linalg::SpectralTransform& transform) noexcept;

/// Bit-identity class of an engine hint (see file comment).
enum class EngineClass : std::uint8_t { Ref64, Paired, Gpu, GpuCluster };

[[nodiscard]] EngineClass engine_class_of(core::EngineKind kind) noexcept;

/// "ref64", "paired", "gpu" or "gpu-cluster".
[[nodiscard]] const char* to_string(EngineClass c) noexcept;

/// Everything a moment set depends on.  LDOS keys zero the stochastic
/// fields (R, S, seed, vector kind) — the deterministic recursion does not
/// consume them, so LDOS queries differing only there share one entry.
struct MomentKey {
  std::uint64_t content = 0;       ///< fingerprint of H~ (+ current op for sigma)
  RequestKind kind = RequestKind::Dos;
  std::uint64_t detail = 0;        ///< ldos site / sigma axis
  std::size_t num_moments = 0;     ///< N actually computed (degraded != full)
  std::size_t random_vectors = 0;  ///< R (0 for ldos)
  std::size_t realizations = 0;    ///< S (0 for ldos)
  std::uint64_t seed = 0;          ///< RNG seed (0 for ldos)
  int vector_kind = 0;             ///< rng::RandomVectorKind (0 for ldos)
  EngineClass engine_class = EngineClass::Ref64;

  bool operator==(const MomentKey&) const = default;

  [[nodiscard]] std::uint64_t hash() const noexcept;
};

struct MomentKeyHash {
  std::size_t operator()(const MomentKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash());
  }
};

/// Running cache statistics (exact integers).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t admit_refused = 0;  ///< cost-aware refusals (incoming density too low)
  std::uint64_t cost_saved_ns = 0;  ///< modeled recompute ns avoided by hits
};

/// Replacement policy.  `Lru` is classic least-recently-used by bytes.
/// `CostAware` ranks entries by modeled recompute cost per byte: eviction
/// removes the lowest-density entry first (LRU order breaks ties), and an
/// incoming entry whose density does not beat its would-be victims is
/// refused admission instead of thrashing residents.  Cost-aware wins when
/// moment sizes are similar but recompute costs vary widely by kind (one
/// LDOS instance vs R*S stochastic DoS instances).
enum class CachePolicy : std::uint8_t { Lru, CostAware };

/// "lru" or "cost-aware".
[[nodiscard]] const char* to_string(CachePolicy p) noexcept;

/// Inverse of `to_string`.  Throws kpm::Error for unknown names.
[[nodiscard]] CachePolicy cache_policy_from_string(const std::string& name);

/// Moment cache with a byte budget and a selectable replacement policy.
/// Single-threaded by design: the serve scheduler is the only caller, and
/// it runs on one thread (workers only execute inside a batch).  Lookups
/// and insertions record the serve_cache_* obs counters into the calling
/// thread's sink.
class MomentCache {
 public:
  /// `byte_budget` bounds the sum of stored moment bytes; 0 disables
  /// caching entirely (every lookup misses, nothing is stored).
  explicit MomentCache(std::size_t byte_budget, CachePolicy policy = CachePolicy::Lru);

  /// Returns the cached moments for `key` (touching its LRU position) or
  /// nullptr.  Counts a hit or a miss; a hit also banks the entry's
  /// modeled recompute cost as `cost_saved_ns`.
  [[nodiscard]] const std::vector<double>* find(const MomentKey& key);

  /// True when `key` is resident.  A probe, not a use: counts no hit or
  /// miss and leaves the LRU order alone.
  [[nodiscard]] bool contains(const MomentKey& key) const { return entries_.contains(key); }

  /// Stores `mu` under `key` (which must not be present), evicting entries
  /// per the policy while over budget.  `recompute_seconds` is the modeled
  /// engine cost of rebuilding `mu` from scratch (the cost-aware policy's
  /// ranking signal; ignored by LRU eviction but still banked on hits).
  /// Entries larger than the whole budget — and cost-aware refusals — are
  /// not stored.  Returns the stored moments, or `mu`'s new home in the
  /// caller-visible fallback when not stored.
  const std::vector<double>& insert(const MomentKey& key, std::vector<double> mu,
                                    double recompute_seconds = 0.0);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t entries() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t bytes_used() const noexcept { return bytes_used_; }
  [[nodiscard]] std::size_t byte_budget() const noexcept { return byte_budget_; }
  [[nodiscard]] CachePolicy policy() const noexcept { return policy_; }

 private:
  struct Entry {
    MomentKey key;
    std::vector<double> mu;
    double recompute_seconds = 0.0;
  };
  using LruList = std::list<Entry>;

  static std::size_t bytes_of(const std::vector<double>& mu) noexcept {
    return mu.size() * sizeof(double);
  }
  void evict(LruList::iterator victim);
  void evict_lru_to_fit(std::size_t incoming_bytes);
  [[nodiscard]] bool evict_cost_aware_to_fit(std::size_t incoming_bytes,
                                             double incoming_seconds);

  std::size_t byte_budget_;
  CachePolicy policy_;
  std::size_t bytes_used_ = 0;
  LruList lru_;  ///< front = most recent
  std::unordered_map<MomentKey, LruList::iterator, MomentKeyHash> entries_;
  CacheStats stats_;
  std::vector<double> unstored_;  ///< home of oversized / refused / budget-0 inserts
};

}  // namespace kpm::serve

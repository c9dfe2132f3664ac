#include "common/packs.hpp"

#include <atomic>

namespace kpm {
namespace {

bool host_has_avx2() noexcept {
#if KPM_AVX2_PACKS
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::atomic<bool> avx2_allowed{true};

}  // namespace

bool avx2_packs() noexcept {
  static const bool host = host_has_avx2();
  return host && avx2_allowed.load(std::memory_order_relaxed);
}

namespace detail {

ScopedAvx2Packs::ScopedAvx2Packs(bool allowed) noexcept
    : previous_(avx2_allowed.exchange(allowed, std::memory_order_relaxed)) {}

ScopedAvx2Packs::~ScopedAvx2Packs() { avx2_allowed.store(previous_, std::memory_order_relaxed); }

}  // namespace detail
}  // namespace kpm

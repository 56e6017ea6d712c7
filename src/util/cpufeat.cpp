#include "util/cpufeat.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

namespace util {

namespace {

cpu_features detect() {
  cpu_features f;
#if defined(__x86_64__) || defined(_M_X64)
  // __builtin_cpu_supports also checks XCR0, so a feature whose register
  // state the OS does not save reads as absent.
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2");
  f.popcnt = __builtin_cpu_supports("popcnt");
  f.avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vbmi2") &&
             __builtin_cpu_supports("avx512vpopcntdq") && __builtin_cpu_supports("bmi2");
#endif
  return f;
}

bool env_force_scalar() {
  const char* v = std::getenv("COF_FORCE_SCALAR");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

std::atomic<simd_tier>& cap_flag() {
  static std::atomic<simd_tier> cap(env_force_scalar() ? simd_tier::scalar
                                                       : simd_tier::avx512);
  return cap;
}

}  // namespace

const char* tier_name(simd_tier t) {
  switch (t) {
    case simd_tier::avx512: return "avx512";
    case simd_tier::avx2: return "avx2";
    case simd_tier::scalar: break;
  }
  return "scalar";
}

const cpu_features& cpu() {
  static const cpu_features f = detect();
  return f;
}

simd_tier host_tier() {
  static const simd_tier t = cpu().avx512 && cpu().avx2 ? simd_tier::avx512
                             : cpu().avx2               ? simd_tier::avx2
                                                        : simd_tier::scalar;
  return t;
}

void cap_tier(simd_tier cap) { cap_flag().store(cap, std::memory_order_relaxed); }

simd_tier tier_cap() { return cap_flag().load(std::memory_order_relaxed); }

simd_tier lane_tier() {
#if defined(COF_FORCE_SCALAR_BUILD)
  return simd_tier::scalar;
#else
  return std::min(host_tier(), tier_cap());
#endif
}

bool simd_lanes_enabled() { return lane_tier() != simd_tier::scalar; }

}  // namespace util

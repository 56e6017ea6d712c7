// Runtime CPU-feature detection for the SIMD lane-dispatch path (opt6).
//
// The xpu executor and the opt6 lane bodies pick a tier at runtime: an
// AVX-512 body (eight loci or work-items per step), an AVX2 body (four), or
// the scalar per-work-item loop, so one binary runs correctly on any x86-64
// host (and non-x86 hosts run scalar unconditionally). The tier in force is
// the host's best, lowered by one process-wide cap that tests set to run
// every tier the host has: the COF_FORCE_SCALAR environment variable (read
// once, at first query) starts the cap at scalar, and a build with
// -DCOF_FORCE_SCALAR_BUILD (the `scalar` CMake preset) pins scalar at
// compile time.
#pragma once

namespace util {

/// The SIMD tiers of the lane bodies, in order: a higher tier's host runs
/// every lower one too.
enum class simd_tier { scalar = 0, avx2 = 1, avx512 = 2 };

/// "scalar", "avx2" or "avx512".
const char* tier_name(simd_tier t);

/// CPUID-derived feature flags of the executing host.
struct cpu_features {
  bool avx2 = false;
  bool popcnt = false;
  /// AVX-512 F, VL, BW, VBMI2 and VPOPCNTDQ, plus BMI2, with the OS saving
  /// zmm state: what the AVX-512 lane bodies use.
  bool avx512 = false;
};

/// Detected features, computed once on first call.
const cpu_features& cpu();

/// The best tier the host supports.
simd_tier host_tier();

/// Process-wide cap on the tier: lane_tier() never exceeds it. Starts at
/// scalar when COF_FORCE_SCALAR holds any non-empty value other than "0",
/// at avx512 (no cap) otherwise; tests lower it to exercise every tier in
/// one process.
void cap_tier(simd_tier cap);
simd_tier tier_cap();

/// The tier the lane bodies run: the host's, lowered to the cap (scalar in
/// a COF_FORCE_SCALAR_BUILD).
simd_tier lane_tier();

/// True when a lane-batched (AVX2 or AVX-512) path may be used.
bool simd_lanes_enabled();

}  // namespace util

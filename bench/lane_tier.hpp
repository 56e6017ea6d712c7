// The SIMD tier argument of the lane-body micro benchmarks
// (bm_comparer_lanes, bm_finder_lanes): each runs once per tier, so one
// --benchmark_filter=lanes run prints every tier the host has side by side.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "util/cpufeat.hpp"

namespace bench {

/// Tier arguments, best first: avx512, avx2, scalar.
inline const std::vector<int64_t> kLaneTiers = {2, 1, 0};

/// Caps the SIMD tier at the benchmark's argument `arg` while it lives.
/// When the host lacks that tier, `ok` is false and the run is skipped with
/// a message.
class tier_pin {
 public:
  tier_pin(benchmark::State& state, int arg) {
    const auto tier = static_cast<util::simd_tier>(state.range(arg));
    ok = tier <= util::host_tier();
    if (!ok) {
      state.SkipWithError(tier == util::simd_tier::avx512 ? "host lacks AVX-512"
                                                          : "host lacks AVX2");
      return;
    }
    util::cap_tier(tier);
  }
  ~tier_pin() { util::cap_tier(prev_); }
  tier_pin(const tier_pin&) = delete;
  tier_pin& operator=(const tier_pin&) = delete;

  bool ok = false;

 private:
  util::simd_tier prev_ = util::tier_cap();
};

}  // namespace bench

// Device-event counters. Instrumented kernel runs count the events the GPU
// timing model consumes (global/local traffic, atomics, compares). Work-items
// accumulate into a plain local_counts and flush once per item into the
// global atomic accumulator, so instrumentation overhead stays bounded.
#pragma once

#include <array>
#include <atomic>
#include <string>

#include "util/common.hpp"

namespace prof {

using util::u64;

enum class ev : int {
  global_load = 0,     // device global memory loads (ops, unique addresses)
  global_load_bytes,   // ... and their bytes
  global_load_repeat,  // re-issued loads of an address this work-item already
                       // loaded (cache-resident; charged differently)
  global_store,
  global_store_bytes,
  local_load,          // shared local memory loads (ops)
  local_store,
  atomic_op,           // device-scope atomics
  compare,             // base-vs-pattern character comparisons
  swar_op,             // 64-bit SWAR word evaluations (opt6: XOR/AND/popcount
                       // over 32 packed bases at once)
  branch,              // divergent-branch events (early exits etc.)
  loop_iter,           // inner-loop iterations
  work_item,           // work-items executed
  count_,
};
inline constexpr int kNumEvents = static_cast<int>(ev::count_);

const char* ev_name(ev e);

/// A plain (non-atomic) bundle of event counts.
struct event_counts {
  std::array<u64, kNumEvents> v{};

  u64& operator[](ev e) { return v[static_cast<int>(e)]; }
  u64 operator[](ev e) const { return v[static_cast<int>(e)]; }
  event_counts& operator+=(const event_counts& o) {
    for (int i = 0; i < kNumEvents; ++i) v[i] += o.v[i];
    return *this;
  }
  event_counts operator+(const event_counts& o) const {
    event_counts r = *this;
    r += o;
    return r;
  }
  /// Scale all counts by a factor (used for genome-scale extrapolation).
  event_counts scaled(double f) const;
  u64 total_global_bytes() const {
    return (*this)[ev::global_load_bytes] + (*this)[ev::global_store_bytes];
  }
};

/// Process-global atomic accumulator the counting memory policy flushes into.
class counters {
 public:
  static void add_bulk(const event_counts& c);
  static void reset();
  static event_counts snapshot();

 private:
  static std::array<std::atomic<u64>, kNumEvents> acc_;
};

/// Work-item-scoped accumulator: destructor flushes into `counters`.
struct item_scope_counts {
  event_counts c;
  ~item_scope_counts() { counters::add_bulk(c); }
};

}  // namespace prof

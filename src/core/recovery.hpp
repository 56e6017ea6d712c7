// The engine's one recovery policy, shared by the chunk runner
// (run_search / run_search_streaming) and the warm index_query_session:
// attempt bounds per chunk, the capacity-growth rule for entry-buffer
// overflows, and the bounded spill-write retry.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/pipeline.hpp"
#include "core/results.hpp"

namespace cof::recovery {

// A real overflow converges in one or two retries (the thrown error carries
// the true demand), so this bound only turns an `entry.clamp=always` fault
// plan into a clean error instead of a retry livelock.
inline constexpr usize kMaxOverflowAttempts = 12;
// Transient device faults (dev.alloc / dev.launch / pipe.event /
// exec.kernel) get fresh device state and a few retries before the device
// counts as dead.
inline constexpr usize kMaxDeviceAttempts = 4;
// Spill writes roll back to the previous run boundary on failure; retried
// with short exponential backoff before the run fails.
inline constexpr usize kMaxSpillAttempts = 4;

/// The one overflow rule, shared by the chunk runner and the warm session:
/// the entry cap to retry a chunk of `bases` bases and `queries` queries
/// with after its attempt `attempt` overflowed cap `cur`. Growth is
/// geometric, short-circuited by the true demand the error round-trips, and
/// never past the worst case (every position a hit for every query, what
/// max_entries = 0 sizes). A cap that cannot grow — `cur` == 0 is worst-case
/// sizing already, and only an injected entry.clamp lands there — comes back
/// unchanged and the chunk retries as is. Throws `e` once the attempts are
/// spent.
inline usize retry_capacity(usize attempt, usize cur, const entry_overflow_error& e,
                            usize bases, usize queries) {
  if (attempt + 1 >= kMaxOverflowAttempts) throw e;
  if (cur == 0) return 0;
  const usize worst = bases * 2 * std::max<usize>(1, queries);
  return std::max(cur, std::min<usize>(worst, std::max<usize>(e.required(), cur * 2)));
}

/// Run `write` (a spill or the final flush), retrying a spill_error with
/// exponential backoff up to kMaxSpillAttempts; `retries` counts the
/// retries. The last failure propagates.
template <class Write>
void with_spill_retries(Write&& write, std::atomic<util::u64>& retries) {
  for (usize a = 0;; ++a) {
    try {
      write();
      return;
    } catch (const spill_error&) {
      if (a + 1 >= kMaxSpillAttempts) throw;
      retries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1u << a));
    }
  }
}

}  // namespace cof::recovery

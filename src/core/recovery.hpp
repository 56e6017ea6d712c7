// The engine's one recovery policy, shared by the chunk runner
// (run_search / run_search_streaming), the warm index_query_session and
// build_index: attempt bounds per chunk, the capacity-growth rule for
// entry-buffer overflows, the per-chunk retry loop that applies them, and
// the bounded spill-write retry.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "core/results.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"

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

/// The one overflow rule: the entry cap to retry a chunk of `bases` bases
/// and `queries` queries with after its attempt `attempt` overflowed cap
/// `cur`. Growth is geometric, short-circuited by the true demand the error
/// round-trips, and never past the worst case (every position a hit for
/// every query, what max_entries = 0 sizes). A cap that cannot grow — `cur`
/// == 0 is worst-case sizing already, and only an injected entry.clamp lands
/// there — comes back unchanged and the chunk retries as is. Throws `e` once
/// the attempts are spent.
inline usize retry_capacity(usize attempt, usize cur, const entry_overflow_error& e,
                            usize bases, usize queries) {
  if (attempt + 1 >= kMaxOverflowAttempts) throw e;
  if (cur == 0) return 0;
  const usize worst = bases * 2 * std::max<usize>(1, queries);
  return std::max(cur, std::min<usize>(worst, std::max<usize>(e.required(), cur * 2)));
}

/// What a caller's device-lost handler did with a chunk whose device spent
/// kMaxDeviceAttempts on it.
enum class device_lost {
  moved,       // the work moved to a surviving device: retry there
  handed_off,  // another consumer takes the chunk: stop
  rethrow,     // nobody can take it: the device error propagates
};

/// Run one chunk's device work under the policy — the one loop behind the
/// chunk runner's consumers, the warm session's slot sweep and build_index.
///
///   attempt()  does the chunk's device work once; it builds its pipeline at
///              `cap` when the previous attempt discarded it.
///   discard()  drops the pipeline the attempt used and folds its metrics
///              into the caller's retired bucket.
///   lost()     runs once the device has spent kMaxDeviceAttempts and
///              returns what it did (device_lost).
///
/// One attempt counter covers both bounds. An entry overflow grows the
/// sticky `cap` by retry_capacity (which throws once kMaxOverflowAttempts
/// are spent), counts an overflow retry and discards; an injected device
/// fault discards and retries until kMaxDeviceAttempts, then asks lost():
/// `moved` restarts the attempt budget, `handed_off` returns false,
/// `rethrow` rethrows the fault. A chunk that completes after an overflow
/// counts as a recovered overflow. Returns true when the chunk completed.
template <class Attempt, class Discard, class Lost>
bool run_chunk(usize& cap, usize bases, usize queries, recovery_metrics& counts,
               Attempt&& attempt, Discard&& discard, Lost&& lost) {
  bool overflowed = false;
  usize n = 0;  // attempts spent on the current device
  for (;;) {
    try {
      attempt();
      if (overflowed) ++counts.recovered_overflows;
      return true;
    } catch (const entry_overflow_error& e) {
      cap = retry_capacity(n, cap, e, bases, queries);
      obs::span sp("recover.retry", "engine");
      sp.arg("required", static_cast<double>(e.required()));
      sp.arg("capacity", static_cast<double>(e.capacity()));
      overflowed = true;
      ++counts.overflow_retries;
      discard();
      ++n;
    } catch (const fault::injected_error&) {
      discard();
      if (++n < kMaxDeviceAttempts) continue;
      switch (lost()) {
        case device_lost::moved:
          n = 0;
          break;
        case device_lost::handed_off:
          return false;
        case device_lost::rethrow:
          throw;
      }
    }
  }
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

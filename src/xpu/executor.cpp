#include "xpu/executor.hpp"

#include <atomic>
#include <vector>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "util/cpufeat.hpp"
#include "util/timer.hpp"
#include "xpu/fiber.hpp"

namespace xpu {

namespace {
thread_local char* tl_local_mem_base = nullptr;
}  // namespace

char* current_local_mem_base() { return tl_local_mem_base; }

namespace detail {

/// Book-keeping shared by the fibers of one work-group.
struct group_barrier_ctl {
  usize at_barrier = 0;  // fibers suspended at the current barrier
};

void barrier_yield(group_barrier_ctl* ctl) {
  ++ctl->at_barrier;
  fiber::yield();
}

}  // namespace detail

namespace {

struct item_task {
  kernel_invoke_fn fn;
  void* ctx;
  xitem* item;
};

void fiber_entry(void* p) {
  auto* t = static_cast<item_task*>(p);
  t->fn(t->ctx, *t->item);
}

void decompose_group(const launch_config& cfg, usize linear, usize out[3]) {
  const usize g0 = cfg.group_count(0);
  const usize g1 = cfg.group_count(1);
  out[0] = linear % g0;
  out[1] = (linear / g0) % g1;
  out[2] = linear / (g0 * g1);
}

/// Execute one work-group without barrier support: a plain loop.
void run_group_fast(const launch_config& cfg, kernel_invoke_fn fn, void* ctx,
                    const usize group[3], char* local_base) {
  usize local[3];
  for (local[2] = 0; local[2] < cfg.local[2]; ++local[2]) {
    for (local[1] = 0; local[1] < cfg.local[1]; ++local[1]) {
      for (local[0] = 0; local[0] < cfg.local[0]; ++local[0]) {
        xitem item(&cfg, group, local, nullptr, local_base);
        fn(ctx, item);
      }
    }
  }
}

/// Execute one work-group through the kernel's lane-batched row body: one
/// call per contiguous dim-0 row. Only reached for kernels that provided a
/// lanes entry, whose contract (executor.hpp) makes the row self-contained —
/// so neither the fiber scheduler nor the cooperative fetch phase runs here.
void run_group_lanes(const launch_config& cfg, kernel_invoke_lanes_fn lanes_fn,
                     void* lanes_ctx, const usize group[3], char* local_base) {
  usize local[3] = {0, 0, 0};
  for (local[2] = 0; local[2] < cfg.local[2]; ++local[2]) {
    for (local[1] = 0; local[1] < cfg.local[1]; ++local[1]) {
      local[0] = 0;
      xitem first(&cfg, group, local, nullptr, local_base);
      lanes_fn(lanes_ctx, first, cfg.local[0]);
    }
  }
}

/// Execute one work-group of a single-leading-barrier kernel as two plain
/// loops: every work-item runs the fetch phase (kernel returns at the
/// barrier point), then every work-item runs the post-fetch phase (kernel
/// skips the fetch and the barrier). Same observable behaviour as the fiber
/// scheduler for cooperating kernels, with no fiber stacks or context
/// switches. Non-cooperating kernels that still call barrier() fail a
/// deterministic check in xitem::barrier().
void run_group_two_phase(const launch_config& cfg, kernel_invoke_fn fn, void* ctx,
                         const usize group[3], char* local_base) {
  usize local[3];
  for (int phase = 0; phase < 2; ++phase) {
    const exec_phase ph = phase == 0 ? exec_phase::fetch_only : exec_phase::post_fetch;
    for (local[2] = 0; local[2] < cfg.local[2]; ++local[2]) {
      for (local[1] = 0; local[1] < cfg.local[1]; ++local[1]) {
        for (local[0] = 0; local[0] < cfg.local[0]; ++local[0]) {
          xitem item(&cfg, group, local, nullptr, local_base, ph);
          fn(ctx, item);
        }
      }
    }
  }
}

/// Execute one work-group with fibers so item code can suspend at barriers.
/// Round-based scheduler: every live fiber is resumed once per round; at the
/// end of a round every live fiber must be parked at the barrier (or all
/// must have finished) — otherwise the kernel executed a barrier
/// non-uniformly, which is undefined behaviour we choose to detect.
void run_group_fibers(const launch_config& cfg, kernel_invoke_fn fn, void* ctx,
                      const usize group[3], char* local_base) {
  const usize n = cfg.local_linear();
  auto& stack_pool = fiber_stack_pool::this_thread();

  detail::group_barrier_ctl ctl;
  std::vector<xitem> items;
  std::vector<item_task> tasks;
  std::vector<fiber> fibers(n);
  std::vector<std::unique_ptr<fiber_stack>> stacks(n);
  items.reserve(n);
  tasks.reserve(n);

  usize local[3];
  for (local[2] = 0; local[2] < cfg.local[2]; ++local[2]) {
    for (local[1] = 0; local[1] < cfg.local[1]; ++local[1]) {
      for (local[0] = 0; local[0] < cfg.local[0]; ++local[0]) {
        items.emplace_back(&cfg, group, local, &ctl, local_base);
      }
    }
  }
  for (usize i = 0; i < n; ++i) {
    tasks.push_back(item_task{fn, ctx, &items[i]});
    stacks[i] = stack_pool.acquire();
    fibers[i].start(stacks[i].get(), &fiber_entry, &tasks[i]);
  }

  usize live = n;
  while (live > 0) {
    ctl.at_barrier = 0;
    usize finished_this_round = 0;
    for (usize i = 0; i < n; ++i) {
      if (fibers[i].done()) continue;
      if (fibers[i].resume()) ++finished_this_round;
    }
    COF_CHECK_MSG(ctl.at_barrier == 0 || finished_this_round == 0,
                  "non-uniform barrier: some work-items finished while others "
                  "are waiting at a barrier");
    COF_CHECK_MSG(ctl.at_barrier + finished_this_round != 0 || live == 0,
                  "scheduler made no progress");
    live -= finished_this_round;
  }

  for (usize i = 0; i < n; ++i) stack_pool.release(std::move(stacks[i]));
}

}  // namespace

launch_stats launch_raw(util::thread_pool& pool, const launch_config& cfg,
                        kernel_invoke_fn fn, void* ctx,
                        kernel_invoke_lanes_fn lanes_fn, void* lanes_ctx) {
  COF_CHECK(cfg.dims >= 1 && cfg.dims <= 3);
  for (unsigned d = 0; d < 3; ++d) {
    COF_CHECK_MSG(cfg.local[d] > 0 && cfg.global[d] % cfg.local[d] == 0,
                  "work-group size must divide the ND-range size in each dim");
  }
  // Lane dispatch: honoured only when the host has the SIMD lanes enabled
  // (runtime CPU-feature check lowered by the tier cap) and the kernel
  // shape admits barrier-free rows. Fiber-scheduled kernels (arbitrary
  // barriers) always run per-item.
  const bool use_lanes = lanes_fn != nullptr && util::simd_lanes_enabled() &&
                         (!cfg.uses_barrier || cfg.single_leading_barrier);

  util::stopwatch sw;
  const usize ngroups = cfg.group_count_linear();
  obs::span launch_sp("xpu.launch", "xpu");
  launch_sp.arg("groups", static_cast<double>(ngroups));
  launch_sp.arg("work_items", static_cast<double>(cfg.global_linear()));

  // Mid-kernel fault site. Pool tasks must not throw (a throw would unwind a
  // worker loop and leave the range latch hanging), so a firing site flags
  // the launch, the remaining group blocks drain as no-ops, and the launching
  // thread converts the flag into the usual injected_error after the join.
  std::atomic<bool> fault_hit{false};

  auto run_groups = [&cfg, fn, ctx, use_lanes, lanes_fn, lanes_ctx,
                     &fault_hit](usize begin, usize end) {
    // One span per stealable group block: with tracing on, the trace shows
    // how the pool spread (and re-balanced) the ragged comparer groups
    // across threads; with tracing off this is a single relaxed load.
    obs::span sp("xpu.groups", "xpu");
    sp.arg("first_group", static_cast<double>(begin));
    sp.arg("groups", static_cast<double>(end - begin));
    // Per-group local memory arena, reused across the groups this thread runs.
    thread_local std::vector<char> local_arena;
    if (local_arena.size() < cfg.local_mem_bytes) local_arena.resize(cfg.local_mem_bytes);
    char* base = cfg.local_mem_bytes != 0 ? local_arena.data() : nullptr;
    tl_local_mem_base = base;
    for (usize g = begin; g < end; ++g) {
      if (fault_hit.load(std::memory_order_relaxed)) break;
      if (fault::should_fail(fault::site::exec_kernel)) {
        fault_hit.store(true, std::memory_order_relaxed);
        break;
      }
      usize group[3];
      decompose_group(cfg, g, group);
      if (use_lanes) {
        run_group_lanes(cfg, lanes_fn, lanes_ctx, group, base);
      } else if (cfg.uses_barrier) {
        if (cfg.single_leading_barrier) {
          run_group_two_phase(cfg, fn, ctx, group, base);
        } else {
          run_group_fibers(cfg, fn, ctx, group, base);
        }
      } else {
        run_group_fast(cfg, fn, ctx, group, base);
      }
    }
    tl_local_mem_base = nullptr;
  };

  if (pool.size() <= 1 || ngroups <= 1) {
    run_groups(0, ngroups);
  } else {
    // Groups are submitted as stealable blocks (~4 per worker): comparer
    // groups are ragged — loci density varies wildly across the chromosome —
    // so one equal slice per worker leaves threads idle behind the densest
    // slice. Idle workers steal blocks from the loaded ones instead.
    pool.parallel_for_range(ngroups, run_groups, /*blocks_per_worker=*/4);
  }

  if (fault_hit.load(std::memory_order_relaxed)) {
    throw fault::injected_error(fault::site::exec_kernel);
  }

  launch_stats stats;
  stats.wall_nanos = sw.nanos();
  stats.groups = ngroups;
  stats.work_items = cfg.global_linear();
  stats.lanes_dispatch = use_lanes;
  return stats;
}

}  // namespace xpu

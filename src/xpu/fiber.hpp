// Stackful fibers used to give work-items real suspension points at group
// barriers. A work-group with barriers runs each of its work-items as a
// fiber; the owning pool thread round-robins the fibers between barrier
// points (see executor.cpp).
//
// On x86-64 we use a ~20-instruction context switch (ctx_switch.S) because
// glibc's swapcontext() performs a sigprocmask syscall per switch, which
// would dominate kernel execution time at millions of work-items. Other
// architectures fall back to <ucontext.h>.
#pragma once

#include <memory>
#include <vector>

#include "util/common.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#define COF_FIBER_UCONTEXT 1
#endif

// ThreadSanitizer cannot follow stack switches it did not perform itself
// (neither the ctx_switch.S fast path nor glibc swapcontext): its shadow
// stack keeps growing across switches until the stack depot overflows, and
// reports reference frames from the wrong work-item. The fiber API
// (__tsan_create_fiber / __tsan_switch_to_fiber) tells it about every
// switch so barrier kernels are TSan-clean.
#if defined(__SANITIZE_THREAD__)
#define COF_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define COF_FIBER_TSAN 1
#endif
#endif

// AddressSanitizer likewise has to be told which stack is live across a
// switch (__sanitizer_start/finish_switch_fiber), or it treats the fiber
// stack as a wild range and reports barrier kernels' locals as overflows.
#if defined(__SANITIZE_ADDRESS__)
#define COF_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COF_FIBER_ASAN 1
#endif
#endif

namespace xpu {

/// A reusable fiber stack (mmap'd, with a PROT_NONE guard page at the low
/// end so overflow faults instead of silently corrupting the heap).
class fiber_stack {
 public:
  explicit fiber_stack(util::usize usable_bytes);
  ~fiber_stack();
  fiber_stack(const fiber_stack&) = delete;
  fiber_stack& operator=(const fiber_stack&) = delete;

  char* base() const { return usable_base_; }
  util::usize size() const { return usable_size_; }

 private:
  void* map_base_ = nullptr;
  util::usize map_size_ = 0;
  char* usable_base_ = nullptr;
  util::usize usable_size_ = 0;
};

/// Per-thread pool of fiber stacks; acquire/release are lock-free because
/// each pool thread owns its own pool instance (thread_local).
class fiber_stack_pool {
 public:
  static constexpr util::usize kStackBytes = 64 * 1024;

  std::unique_ptr<fiber_stack> acquire();
  void release(std::unique_ptr<fiber_stack> s);

  static fiber_stack_pool& this_thread();

 private:
  std::vector<std::unique_ptr<fiber_stack>> free_;
};

/// A single fiber. One-shot: start() once, resume() until done().
class fiber {
 public:
  using entry_t = void (*)(void*);

  fiber() = default;
  fiber(const fiber&) = delete;
  fiber& operator=(const fiber&) = delete;
#if COF_FIBER_TSAN
  ~fiber();
#endif

  /// Prepare the fiber to run entry(arg) on the given stack.
  void start(fiber_stack* stack, entry_t entry, void* arg);

  /// Switch into the fiber from the scheduler; returns true once the fiber's
  /// entry function has returned. Must be called on the thread that owns it.
  bool resume();

  /// Called from inside a running fiber: suspend back to the scheduler.
  static void yield();

  bool done() const { return done_; }

 private:
  static void trampoline_entry();
  friend void fiber_trampoline_dispatch();

#if COF_FIBER_UCONTEXT
  ucontext_t sched_ctx_{};
  ucontext_t fiber_ctx_{};
#else
  void* sched_sp_ = nullptr;
  void* fiber_sp_ = nullptr;
#endif
  entry_t entry_ = nullptr;
  void* arg_ = nullptr;
  bool done_ = false;
  void* tsan_fiber_ = nullptr;  // __tsan_create_fiber context (TSan builds)
  void* tsan_sched_ = nullptr;  // scheduler thread's context during resume()
  // ASan builds: this fiber's stack, and the scheduler stack it returns to.
  const void* stack_bottom_ = nullptr;
  util::usize stack_size_ = 0;
  const void* sched_bottom_ = nullptr;
  util::usize sched_size_ = 0;
};

}  // namespace xpu

#include "xpu/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#if COF_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif
#if COF_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace xpu {

using util::usize;

// ---------------------------------------------------------------------------
// fiber_stack
// ---------------------------------------------------------------------------

fiber_stack::fiber_stack(usize usable_bytes) {
  const usize page = static_cast<usize>(::sysconf(_SC_PAGESIZE));
  usable_size_ = util::round_up(usable_bytes, page);
  map_size_ = usable_size_ + page;  // +1 guard page at the low end
  void* p = ::mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  COF_CHECK_MSG(p != MAP_FAILED, "mmap fiber stack failed");
  map_base_ = p;
  COF_CHECK(::mprotect(p, page, PROT_NONE) == 0);
  usable_base_ = static_cast<char*>(p) + page;
}

fiber_stack::~fiber_stack() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_size_);
}

// ---------------------------------------------------------------------------
// fiber_stack_pool
// ---------------------------------------------------------------------------

std::unique_ptr<fiber_stack> fiber_stack_pool::acquire() {
  if (!free_.empty()) {
    auto s = std::move(free_.back());
    free_.pop_back();
    return s;
  }
  return std::make_unique<fiber_stack>(kStackBytes);
}

void fiber_stack_pool::release(std::unique_ptr<fiber_stack> s) {
  free_.push_back(std::move(s));
}

fiber_stack_pool& fiber_stack_pool::this_thread() {
  thread_local fiber_stack_pool pool;
  return pool;
}

// ---------------------------------------------------------------------------
// fiber
// ---------------------------------------------------------------------------

namespace {
thread_local fiber* tl_current_fiber = nullptr;

// TSan must be told about every stack switch immediately before it happens;
// no-ops outside sanitized builds.
#if COF_FIBER_TSAN
void* tsan_current_fiber() { return __tsan_get_current_fiber(); }
void tsan_switch_to(void* ctx) { __tsan_switch_to_fiber(ctx, 0); }
void* tsan_recreate_fiber(void* old) {
  if (old != nullptr) __tsan_destroy_fiber(old);
  return __tsan_create_fiber(0);
}
void tsan_retire_fiber(void*& ctx) {
  if (ctx != nullptr) {
    __tsan_destroy_fiber(ctx);
    ctx = nullptr;
  }
}
#else
void* tsan_current_fiber() { return nullptr; }
void tsan_switch_to(void*) {}
void* tsan_recreate_fiber(void*) { return nullptr; }
void tsan_retire_fiber(void*&) {}
#endif

// ASan: start_switch right before each switch names the stack being
// entered; finish_switch right after it lands records the stack just left.
// A fiber that is finishing passes a null fake-stack slot so ASan drops
// its fake frames.
#if COF_FIBER_ASAN
void asan_start_switch(void** fake_stack, const void* bottom, usize size) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
}
void asan_finish_switch(void* fake_stack, const void** bottom, usize* size) {
  __sanitizer_finish_switch_fiber(fake_stack, bottom, size);
}
// A pooled stack keeps the poisoned redzones of the fiber that last ran on
// it (it never unwound); clear them before the stack is reused.
void asan_unpoison_stack(fiber_stack* stack) {
  ASAN_UNPOISON_MEMORY_REGION(stack->base(), stack->size());
}
#else
void asan_start_switch(void**, const void*, usize) {}
void asan_finish_switch(void*, const void**, usize*) {}
void asan_unpoison_stack(fiber_stack*) {}
#endif
}  // namespace

#if COF_FIBER_TSAN
fiber::~fiber() {
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
}
#endif

#if !COF_FIBER_UCONTEXT
extern "C" void cof_ctx_switch(void** save_sp, void* load_sp);
#endif

// Runs the fiber body; reached via the first context switch into the fiber.
void fiber_trampoline_dispatch() {
  fiber* f = tl_current_fiber;
  asan_finish_switch(nullptr, &f->sched_bottom_, &f->sched_size_);
  f->entry_(f->arg_);
  f->done_ = true;
  // Final switch back to the scheduler; this fiber is never resumed again.
  asan_start_switch(nullptr, f->sched_bottom_, f->sched_size_);
  tsan_switch_to(f->tsan_sched_);
#if !COF_FIBER_UCONTEXT
  cof_ctx_switch(&f->fiber_sp_, f->sched_sp_);
#endif
  // ucontext path: returning here resumes uc_link, the scheduler.
}

#if COF_FIBER_UCONTEXT

namespace {
void ucontext_entry() { fiber_trampoline_dispatch(); }
}  // namespace

void fiber::start(fiber_stack* stack, entry_t entry, void* arg) {
  entry_ = entry;
  arg_ = arg;
  done_ = false;
  COF_CHECK(getcontext(&fiber_ctx_) == 0);
  fiber_ctx_.uc_stack.ss_sp = stack->base();
  fiber_ctx_.uc_stack.ss_size = stack->size();
  fiber_ctx_.uc_link = &sched_ctx_;
  makecontext(&fiber_ctx_, reinterpret_cast<void (*)()>(ucontext_entry), 0);
  tsan_fiber_ = tsan_recreate_fiber(tsan_fiber_);
  stack_bottom_ = stack->base();
  stack_size_ = stack->size();
  asan_unpoison_stack(stack);
}

bool fiber::resume() {
  COF_CHECK(!done_);
  fiber* prev = tl_current_fiber;
  tl_current_fiber = this;
  tsan_sched_ = tsan_current_fiber();
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, stack_bottom_, stack_size_);
  tsan_switch_to(tsan_fiber_);
  COF_CHECK(swapcontext(&sched_ctx_, &fiber_ctx_) == 0);
  asan_finish_switch(fake_stack, nullptr, nullptr);
  tl_current_fiber = prev;
  if (done_) tsan_retire_fiber(tsan_fiber_);
  return done_;
}

void fiber::yield() {
  fiber* f = tl_current_fiber;
  COF_CHECK_MSG(f != nullptr, "fiber::yield outside a fiber");
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, f->sched_bottom_, f->sched_size_);
  tsan_switch_to(f->tsan_sched_);
  COF_CHECK(swapcontext(&f->fiber_ctx_, &f->sched_ctx_) == 0);
  asan_finish_switch(fake_stack, &f->sched_bottom_, &f->sched_size_);
}

#else  // x86-64 fast path

namespace {
// Entered via `ret` from the first cof_ctx_switch into the fiber.
extern "C" void cof_fiber_trampoline() {
  fiber_trampoline_dispatch();
  __builtin_unreachable();
}
}  // namespace

void fiber::start(fiber_stack* stack, entry_t entry, void* arg) {
  entry_ = entry;
  arg_ = arg;
  done_ = false;

  // Build an initial stack frame that cof_ctx_switch can "return" from:
  //   [6 callee-saved slots][return address = trampoline]   <- high addresses
  // The trampoline must observe rsp % 16 == 8 at entry (as if reached via a
  // call instruction), so place the return-address slot at a 16-byte-aligned
  // address minus 8... i.e. top is chosen so that after `ret` rsp % 16 == 8.
  char* high = stack->base() + stack->size();
  auto top = reinterpret_cast<util::u64>(high) & ~static_cast<util::u64>(15);
  top -= 8;  // rsp after ret == top; (top % 16) == 8
  auto* slots = reinterpret_cast<util::u64*>(top) - 7;  // 6 regs + ret addr
  for (int i = 0; i < 6; ++i) slots[i] = 0;             // rbp..r15 garbage-safe
  slots[6] = reinterpret_cast<util::u64>(&cof_fiber_trampoline);
  fiber_sp_ = slots;
  tsan_fiber_ = tsan_recreate_fiber(tsan_fiber_);
  stack_bottom_ = stack->base();
  stack_size_ = stack->size();
  asan_unpoison_stack(stack);
}

bool fiber::resume() {
  COF_CHECK(!done_);
  fiber* prev = tl_current_fiber;
  tl_current_fiber = this;
  tsan_sched_ = tsan_current_fiber();
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, stack_bottom_, stack_size_);
  tsan_switch_to(tsan_fiber_);
  cof_ctx_switch(&sched_sp_, fiber_sp_);
  asan_finish_switch(fake_stack, nullptr, nullptr);
  tl_current_fiber = prev;
  if (done_) tsan_retire_fiber(tsan_fiber_);
  return done_;
}

void fiber::yield() {
  fiber* f = tl_current_fiber;
  COF_CHECK_MSG(f != nullptr, "fiber::yield outside a fiber");
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, f->sched_bottom_, f->sched_size_);
  tsan_switch_to(f->tsan_sched_);
  cof_ctx_switch(&f->fiber_sp_, f->sched_sp_);
  asan_finish_switch(fake_stack, &f->sched_bottom_, &f->sched_size_);
}

#endif

}  // namespace xpu

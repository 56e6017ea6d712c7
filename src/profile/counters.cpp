#include "profile/counters.hpp"

#include <cmath>

namespace prof {

const char* ev_name(ev e) {
  switch (e) {
    case ev::global_load: return "global_load";
    case ev::global_load_bytes: return "global_load_bytes";
    case ev::global_load_repeat: return "global_load_repeat";
    case ev::global_store: return "global_store";
    case ev::global_store_bytes: return "global_store_bytes";
    case ev::local_load: return "local_load";
    case ev::local_store: return "local_store";
    case ev::atomic_op: return "atomic_op";
    case ev::compare: return "compare";
    case ev::swar_op: return "swar_op";
    case ev::branch: return "branch";
    case ev::loop_iter: return "loop_iter";
    case ev::work_item: return "work_item";
    case ev::count_: break;
  }
  return "?";
}

event_counts event_counts::scaled(double f) const {
  event_counts r;
  for (int i = 0; i < kNumEvents; ++i) {
    r.v[i] = static_cast<u64>(std::llround(static_cast<double>(v[i]) * f));
  }
  return r;
}

std::array<std::atomic<u64>, kNumEvents> counters::acc_{};

void counters::add_bulk(const event_counts& c) {
  for (int i = 0; i < kNumEvents; ++i) {
    if (c.v[i] != 0) acc_[i].fetch_add(c.v[i], std::memory_order_relaxed);
  }
}

void counters::reset() {
  for (auto& a : acc_) a.store(0, std::memory_order_relaxed);
}

event_counts counters::snapshot() {
  event_counts c;
  for (int i = 0; i < kNumEvents; ++i) c.v[i] = acc_[i].load(std::memory_order_relaxed);
  return c;
}

}  // namespace prof

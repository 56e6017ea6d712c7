#include "core/shard.hpp"

#include <algorithm>
#include <thread>

namespace cof::shard {

using util::usize;

device_set::device_set(usize n) {
  COF_CHECK_MSG(n >= 1, "device_set needs at least one device");
  if (n == 1) {
    devices_.push_back(&xpu::device::simulator());
  } else {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned per_dev = std::max(1u, hw / static_cast<unsigned>(n));
    owned_.reserve(n);
    for (usize d = 0; d < n; ++d) {
      owned_.push_back(
          std::make_unique<xpu::device>("xpu" + std::to_string(d), per_dev));
      devices_.push_back(owned_.back().get());
    }
  }
  failed_ = std::make_unique<std::atomic<bool>[]>(devices_.size());
  for (usize d = 0; d < devices_.size(); ++d) failed_[d].store(false);
}

usize device_set::alive_count() const {
  usize n = 0;
  for (usize d = 0; d < devices_.size(); ++d) {
    if (alive(d)) ++n;
  }
  return n;
}

usize device_set::mark_failed(usize d) {
  COF_CHECK(d < devices_.size());
  failed_[d].store(true, std::memory_order_release);
  return alive_count();
}

usize device_set::pick_alive(usize hint) const {
  if (hint < devices_.size() && alive(hint)) return hint;
  for (usize d = 0; d < devices_.size(); ++d) {
    if (alive(d)) return d;
  }
  util::die("no alive device in device_set");
}

}  // namespace cof::shard

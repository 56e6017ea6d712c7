// Multi-device sharding: a device_set owns N simulated xpu devices
// (distinct pools/arenas standing in for multi-GPU or multi-socket) with
// per-device liveness. The engine gives each device its own consumers,
// pipelines and spill runs, all taking from one chunk queue; the k-way
// merge folds the per-consumer runs back into one byte-identical record
// stream for any device count.
//
// Failure model: a device that exhausts its bounded retries is marked
// failed; the consumer holding the chunk pushes it back onto the shared
// queue for the survivors, the device's other consumers stop at their next
// take, and the run completes degraded. When the last device dies the run
// fails with the original site-named error.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "xpu/device.hpp"

namespace cof::shard {

using util::usize;

/// N simulated accelerators with per-device liveness. For n == 1 this is a
/// non-owning view of the process-wide simulator, so single-device runs
/// keep their accounting (and the facades' metering) exactly where every
/// existing test and bench expects it.
class device_set {
 public:
  /// n == 1 binds the global simulator; n > 1 constructs owned devices
  /// "xpu0".."xpuN-1", each with its own pool sized to share the host
  /// (threads = max(1, hardware_concurrency / n)).
  explicit device_set(usize n);

  usize size() const { return devices_.size(); }
  xpu::device& at(usize d) { return *devices_[d]; }
  const std::string& name(usize d) const { return devices_[d]->name(); }

  bool alive(usize d) const {
    return !failed_[d].load(std::memory_order_acquire);
  }
  usize alive_count() const;

  /// Mark device d failed (idempotent); returns the number of survivors.
  usize mark_failed(usize d);

  /// Some alive device, preferring `hint` if it still lives. Dies if none
  /// survive — callers must check alive_count() first on the failure path.
  usize pick_alive(usize hint) const;

 private:
  std::vector<std::unique_ptr<xpu::device>> owned_;
  std::vector<xpu::device*> devices_;
  // deque<atomic> is non-movable; unique_ptr keeps the set movable-free
  // but simple. Sized once in the ctor, never resized.
  std::unique_ptr<std::atomic<bool>[]> failed_;
};

}  // namespace cof::shard

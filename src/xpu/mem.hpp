// Simulated device memory. A device_buffer is a distinct host allocation
// standing in for device-resident global memory: host<->device traffic is a
// real memcpy and is metered, so the GPU timing model can charge PCIe
// transfer costs from observed byte counts. Its contents start
// uninitialised, as clCreateBuffer without a host pointer, sycl::buffer(range)
// and malloc_device specify: a kernel's worst-case output array costs host
// memory only where the kernel writes.
#pragma once

#include <memory>

#include "util/common.hpp"

namespace xpu {

using util::u64;
using util::usize;

class device;  // device.hpp

/// Cumulative transfer/allocation accounting for one device.
struct memory_stats {
  u64 bytes_allocated = 0;
  u64 bytes_peak = 0;
  u64 bytes_live = 0;
  u64 h2d_bytes = 0;
  u64 h2d_ops = 0;
  u64 d2h_bytes = 0;
  u64 d2h_ops = 0;
};

/// A device-side allocation bound to a device. Movable, not copyable.
class device_buffer {
 public:
  device_buffer() = default;
  device_buffer(device& dev, usize bytes);
  ~device_buffer();

  device_buffer(device_buffer&& other) noexcept;
  device_buffer& operator=(device_buffer&& other) noexcept;
  device_buffer(const device_buffer&) = delete;
  device_buffer& operator=(const device_buffer&) = delete;

  char* data() { return storage_.get(); }
  const char* data() const { return storage_.get(); }
  usize size() const { return size_; }
  bool valid() const { return dev_ != nullptr; }

  /// Host-to-device copy of n bytes into [offset, offset+n). Metered.
  void write(usize offset, const void* src, usize n);
  /// Device-to-host copy of n bytes from [offset, offset+n). Metered.
  void read(usize offset, void* dst, usize n) const;

 private:
  void release();

  device* dev_ = nullptr;
  std::unique_ptr<char[]> storage_;
  usize size_ = 0;
};

}  // namespace xpu

#include "xpu/mem.hpp"

#include <cstring>
#include <utility>

#include "xpu/device.hpp"

namespace xpu {

device_buffer::device_buffer(device& dev, usize bytes)
    : dev_(&dev), storage_(new char[bytes]), size_(bytes) {  // default-init: no zero fill
  dev_->on_alloc(bytes);
}

device_buffer::~device_buffer() { release(); }

device_buffer::device_buffer(device_buffer&& other) noexcept
    : dev_(std::exchange(other.dev_, nullptr)),
      storage_(std::move(other.storage_)),
      size_(std::exchange(other.size_, 0)) {}

device_buffer& device_buffer::operator=(device_buffer&& other) noexcept {
  if (this != &other) {
    release();
    dev_ = std::exchange(other.dev_, nullptr);
    storage_ = std::move(other.storage_);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void device_buffer::release() {
  if (dev_ != nullptr) {
    dev_->on_free(size_);
    dev_ = nullptr;
  }
  storage_.reset();
  size_ = 0;
}

void device_buffer::write(usize offset, const void* src, usize n) {
  COF_CHECK_MSG(offset + n <= size_, "device write out of bounds");
  std::memcpy(storage_.get() + offset, src, n);
  dev_->on_h2d(n);
}

void device_buffer::read(usize offset, void* dst, usize n) const {
  COF_CHECK_MSG(offset + n <= size_, "device read out of bounds");
  std::memcpy(dst, storage_.get() + offset, n);
  dev_->on_d2h(n);
}

}  // namespace xpu

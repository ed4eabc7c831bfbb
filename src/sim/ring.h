// Growable FIFO ring over a power-of-two array.
//
// Elements are constructed in place at the back and destroyed as soon as
// they are popped from the front, so a popped packet's shared payload body
// is released at once rather than lingering in a dead slot. The array
// doubles when full and never shrinks: once a ring has reached its peak
// occupancy, pushing and popping allocate nothing.
#ifndef MCC_SIM_RING_H
#define MCC_SIM_RING_H

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace mcc::sim {

template <typename T>
class ring {
 public:
  ring() = default;
  ring(const ring&) = delete;
  ring& operator=(const ring&) = delete;
  ~ring() {
    while (!empty()) pop_front();
    release();
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The i-th element from the front (0 = front).
  T& operator[](std::size_t i) { return data_[(head_ + i) & (capacity_ - 1)]; }
  T& front() { return data_[head_]; }
  const T& front() const { return data_[head_]; }

  /// Constructs T{args...} at the back (brace-initialised, so aggregates
  /// work) and returns it.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow();
    T* slot = data_ + ((head_ + size_) & (capacity_ - 1));
    ::new (static_cast<void*>(slot)) T{std::forward<Args>(args)...};
    ++size_;
    return *slot;
  }

  /// Destroys the front element. The ring must not be empty.
  void pop_front() {
    std::destroy_at(data_ + head_);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

 private:
  static constexpr std::size_t initial_capacity = 8;

  /// Doubles the array, moving the elements to its start in FIFO order.
  void grow() {
    const std::size_t cap = capacity_ == 0 ? initial_capacity : 2 * capacity_;
    T* data = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = (*this)[i];
      ::new (static_cast<void*>(data + i)) T(std::move(old));
      std::destroy_at(&old);
    }
    release();
    data_ = data;
    capacity_ = cap;
    head_ = 0;
  }

  void release() {
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, capacity_);
  }

  T* data_ = nullptr;
  std::size_t capacity_ = 0;  // 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_RING_H

// A fixed-capacity vector with inline storage, used for per-request
// priority vectors (the paper's requests carry 1-12 QoS dimensions). It
// never allocates: N elements and a one-byte count live inline, so the
// type stays trivially copyable and a Request holding one moves as a
// plain memcpy through rings, drain buffers and slot pools.

#ifndef CSFC_COMMON_SMALL_VECTOR_H_
#define CSFC_COMMON_SMALL_VECTOR_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <type_traits>

namespace csfc {

/// Vector of trivially-copyable T holding at most N elements inline. Growing
/// past N aborts in every build: callers validate sizes at ingress (trace
/// parser, workload and metrics configs), so an overflow here is a bug, and
/// silently truncating a priority vector would change scheduling results.
/// Only the operations the simulator needs are provided (this is
/// deliberately not a full std::vector clone).
template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector requires trivially copyable elements");
  static_assert(N > 0 && N <= UINT8_MAX, "the count is one byte");

 public:
  SmallVector() = default;

  SmallVector(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }

  SmallVector(size_t count, const T& value) { resize(count, value); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() { size_ = 0; }

  void push_back(const T& v) {
    if (size_ == N) Overflow();
    data_[size_++] = v;
  }

  void resize(size_t n, const T& fill = T()) {
    if (n > N) Overflow();
    for (size_t i = size_; i < n; ++i) data_[i] = fill;
    size_ = static_cast<uint8_t>(n);
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  T& operator[](size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  T& back() { return (*this)[size_ - 1u]; }
  const T& back() const { return (*this)[size_ - 1u]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  bool operator==(const SmallVector& other) const {
    if (size_ != other.size_) return false;
    for (size_t i = 0; i < size_; ++i) {
      if (data_[i] != other.data_[i]) return false;
    }
    return true;
  }

 private:
  [[noreturn]] static void Overflow() {
    std::fprintf(stderr, "SmallVector: more than %zu elements\n", N);
    std::abort();
  }

  T data_[N] = {};
  uint8_t size_ = 0;
};

}  // namespace csfc

#endif  // CSFC_COMMON_SMALL_VECTOR_H_

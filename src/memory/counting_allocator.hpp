// std-compatible allocator that reports through pbds::memory's counters.
//
// Used for filter's packed blocks (s.packToArray in the paper, Fig. 8):
// stream::pack allocates each block's buffer once, at exactly its survivor
// count, so every packed block shows up in the space accounting.
// Allocations honour alignof(T) and share parray's path
// (tracked_alloc.hpp), including its huge-page backing for buffers of at
// least huge_page_bytes.
#pragma once

#include <cstddef>
#include <vector>

#include "memory/tracked_alloc.hpp"

namespace pbds::memory {

template <typename T>
class counting_allocator {
 public:
  using value_type = T;

  counting_allocator() noexcept = default;
  template <typename U>
  counting_allocator(const counting_allocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(tracked_allocate(n * sizeof(T), alignof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    tracked_deallocate(p, n * sizeof(T), alignof(T));
  }

  friend bool operator==(const counting_allocator&,
                         const counting_allocator&) noexcept {
    return true;
  }
};

// std::vector whose allocations are space-accounted.
template <typename T>
using tracked_vector = std::vector<T, counting_allocator<T>>;

}  // namespace pbds::memory

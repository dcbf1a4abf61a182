// std-compatible allocator that reports through pbds::memory's counters.
//
// Used for the dynamically-resizing pack buffers inside filter
// (s.packToArray in the paper, Fig. 8), so that even transient grow/copy
// allocations show up in the space accounting. Allocations honour
// alignof(T) and share parray's path (tracked_alloc.hpp), including its
// huge-page backing once a buffer grows past huge_page_bytes.
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

// Dynamically-resizing buffer whose allocations are space-accounted.
template <typename T>
using tracked_vector = std::vector<T, counting_allocator<T>>;

}  // namespace pbds::memory

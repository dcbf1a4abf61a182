// The one allocation path for tracked buffers (parray, counting_allocator).
//
//   void* p = tracked_allocate(bytes, align);   // admission → raw → commit
//   ...
//   tracked_deallocate(p, bytes, align);        // note_free → raw release
//
// Admission (tracking.hpp's alloc_admission) runs the fault injector and
// the budget check before any memory is obtained; commit happens only
// after the raw allocation succeeded, so a throw — injected, a budget
// refusal, or the real allocator failing — leaves every counter untouched
// and any budget reservation retracted.
//
// Backing. A request of at least one huge page (huge_page_bytes) gets its
// own anonymous mapping, starting on a huge-page boundary and marked
// MADV_HUGEPAGE, and is returned to the kernel with munmap on release.
// Fresh large buffers otherwise fault in one 4 KiB page at a time, which
// dominates system time for the eager array library's materialized
// intermediates; with transparent huge pages each fault maps 2 MiB.
// Owning the mapping, rather than asking an aligned operator new for the
// memory, also keeps such buffers out of the malloc arenas, whose dynamic
// mmap threshold would otherwise retain freed multi-MiB blocks as
// resident memory. When THP is disabled, or madvise fails, the mapping
// simply stays on 4 KiB pages. Smaller requests use the aligned
// ::operator new / delete.
//
// Accounting is always at the *requested* byte count, never the mapped
// one: bytes_live/peak/total, num_allocs, the budget and the fault
// injector see exactly the same sequence whichever backing is used.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <new>

#include "memory/tracking.hpp"

namespace pbds::memory {

// Size of one transparent huge page on x86-64 / aarch64 (4 KiB base
// pages), and the request size from which tracked buffers are mapped
// directly.
inline constexpr std::size_t huge_page_bytes = std::size_t{2} << 20;

namespace detail {

[[nodiscard]] inline std::size_t base_page_bytes() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

// Map `bytes` (>= huge_page_bytes) starting at a huge-page-aligned address.
// The mapping over-reserves one huge page of address space so an aligned
// start is guaranteed to fit, then unmaps the slack on both sides. The
// range ends at the buffer's last base page: the whole huge pages inside it
// can be backed by THP, while a partial tail stays on base pages, so the
// buffer never keeps more than its requested bytes (rounded up to a base
// page) resident.
[[nodiscard]] inline void* map_huge(std::size_t bytes) {
  const std::size_t page = base_page_bytes();
  const std::size_t len = (bytes + page - 1) & ~(page - 1);
  if (len < bytes) throw std::bad_alloc();  // rounding overflowed
  const std::size_t span = len + huge_page_bytes;
  if (span < len) throw std::bad_alloc();
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start =
      (base + huge_page_bytes - 1) & ~std::uintptr_t{huge_page_bytes - 1};
  const std::size_t head = start - base;
  const std::size_t tail = span - head - len;
  if (head > 0) ::munmap(raw, head);
  if (tail > 0) ::munmap(reinterpret_cast<void*>(start + len), tail);
  void* p = reinterpret_cast<void*>(start);
  // Best effort: with THP off (or the advice refused) the range keeps
  // working on base pages.
  (void)::madvise(p, len, MADV_HUGEPAGE);
  return p;
}

}  // namespace detail

// Allocate `bytes` tracked bytes aligned to `align` (a power of two no
// larger than huge_page_bytes). Throws std::bad_alloc (or budget_exceeded)
// with the accounting unchanged.
[[nodiscard]] inline void* tracked_allocate(std::size_t bytes,
                                            std::size_t align) {
  alloc_admission adm(bytes);
  void* p = bytes >= huge_page_bytes
                ? detail::map_huge(bytes)
                : ::operator new(bytes, std::align_val_t(align));
  adm.commit();
  return p;
}

// Release a buffer from tracked_allocate; `bytes` and `align` must be the
// values it was allocated with.
inline void tracked_deallocate(void* p, std::size_t bytes,
                               std::size_t align) noexcept {
  note_free(bytes);
  if (bytes >= huge_page_bytes) {
    ::munmap(p, bytes);  // the kernel rounds up to the mapped base pages
  } else {
    ::operator delete(p, std::align_val_t(align));
  }
}

}  // namespace pbds::memory

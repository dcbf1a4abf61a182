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
// MADV_HUGEPAGE. Fresh large buffers otherwise fault in one 4 KiB page at
// a time, which dominates system time for the eager array library's
// materialized intermediates; with transparent huge pages each fault maps
// 2 MiB. Owning the mapping, rather than asking an aligned operator new
// for the memory, also keeps such buffers out of the malloc arenas, whose
// dynamic mmap threshold would otherwise retain freed multi-MiB blocks as
// resident memory. When THP is disabled, or madvise fails, the mapping
// simply stays on 4 KiB pages. Smaller requests use the aligned
// ::operator new / delete.
//
// Reuse. Releasing a large buffer unmaps its partial 4 KiB tail and keeps
// its whole-huge-page prefix, already faulted in, in a process-wide
// mapping cache. The next large allocation moves cached pages into its
// own prefix with mremap, which relinks the page tables instead of
// copying, so the kernel neither faults nor zeroes them again. Where the
// kernel refuses a move, the rest of the buffer is faulted fresh; no
// address the process may have given up is ever mapped MAP_FIXED. The cache
// is bounded (see mapping_cache): it never lets live plus cached bytes
// pass the high-water mark live bytes reached on their own, nor an active
// budget, and it goes back to the kernel once it has sat unused for
// kIdleDrainNs, or when a mapping fails.
//
// Accounting is always at the *requested* byte count, never the mapped
// one: bytes_live/peak/total, num_allocs, the budget and the fault
// injector see exactly the same sequence whichever backing is used, and
// cached pages are in none of them.
#pragma once

#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include "memory/tracking.hpp"
#include "telemetry/metrics.hpp"

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

// The mapped length of a large buffer: its bytes rounded up to a base
// page. The mapping ends there, so a partial tail huge page stays on base
// pages and a buffer never keeps more than this resident.
// Less than `bytes` when the rounding overflows.
[[nodiscard]] inline std::size_t mapped_length(std::size_t bytes) noexcept {
  const std::size_t page = base_page_bytes();
  return (bytes + page - 1) & ~(page - 1);
}

// Reserve `len` bytes of address space starting on a huge-page boundary,
// advised MADV_HUGEPAGE; nullptr when the kernel refuses. The mapping
// over-reserves one huge page so an aligned start is guaranteed to fit,
// then unmaps the slack on both sides. Nothing is faulted in yet.
[[nodiscard]] inline char* reserve_aligned(std::size_t len) {
  const std::size_t span = len + huge_page_bytes;
  if (span < len) return nullptr;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) return nullptr;
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start =
      (base + huge_page_bytes - 1) & ~std::uintptr_t{huge_page_bytes - 1};
  const std::size_t head = start - base;
  const std::size_t tail = span - head - len;
  if (head > 0) ::munmap(raw, head);
  if (tail > 0) ::munmap(reinterpret_cast<void*>(start + len), tail);
  auto* p = reinterpret_cast<char*>(start);
  // Best effort: with THP off (or the advice refused) the range keeps
  // working on base pages.
  (void)::madvise(p, len, MADV_HUGEPAGE);
  return p;
}

// A cache that has not been filled or drawn from for this long goes back
// to the kernel at the next small tracked allocation.
inline constexpr std::int64_t kIdleDrainNs = 100'000'000;  // 100 ms

[[nodiscard]] inline std::int64_t coarse_now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC_COARSE, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// Freed whole huge pages, kept mapped for the next large buffer. Each
// range is huge-page aligned and a multiple of huge_page_bytes long. A
// range may span several kernel VMAs (a buffer assembled from several
// cached ranges is released as one), so it is moved one huge page at a
// time: a huge-page-aligned huge page never straddles a VMA boundary of
// these ranges, and kernels before 6.17 refuse to move a range that
// spans VMAs.
//
// Bounds, checked whenever pages enter the cache and after every tracked
// allocation while it holds any:
//   live + cached <= live_high, the largest bytes_live seen right after a
//   large allocation — so the cache only holds memory the process had
//   already made resident for live buffers;
//   live + cached <= budget_limit() while a budget is active;
//   unused for longer than kIdleDrainNs → drained at the next tracked
//   allocation (a large one counts as a use, so in effect a small one).
// The ranges are guarded by `lock`, which is never held across a system
// call: pages are taken out of the list before they are moved or
// unmapped. `g_cached_bytes` mirrors the list's sum so the
// small-allocation path can skip everything with one relaxed load.
struct cached_range {
  std::uintptr_t start;
  std::size_t bytes;
};

struct mapping_cache {
  std::mutex lock;
  std::vector<cached_range> ranges;
  std::atomic<std::int64_t> live_high{0};
  std::atomic<std::int64_t> last_use_ns{0};
};

inline std::atomic<std::int64_t> g_cached_bytes{0};

// Never destroyed: buffers in static objects are released after static
// destructors have run.
inline mapping_cache& cache() {
  static mapping_cache& c = *new mapping_cache;
  return c;
}

// Bytes the cache holds (whole huge pages). For tests.
[[nodiscard]] inline std::int64_t cached_mapping_bytes() {
  return g_cached_bytes.load(std::memory_order_relaxed);
}

// Moves one huge page of cached mapping from `from` to `to`, inside the
// caller's reservation, with mremap's contract: on failure `to` may have
// been unmapped already. Tests swap in a failing version.
using move_page_fn = void* (*)(void* from, void* to);

inline void* mremap_page(void* from, void* to) {
  return ::mremap(from, huge_page_bytes, huge_page_bytes,
                  MREMAP_MAYMOVE | MREMAP_FIXED, to);
}

inline std::atomic<move_page_fn> g_move_page{&mremap_page};

// The most the cache may hold next to the current live bytes.
[[nodiscard]] inline std::int64_t cache_room() {
  std::int64_t cap = cache().live_high.load(std::memory_order_relaxed);
  const std::int64_t limit = budget_limit();
  if (limit > 0 && limit < cap) cap = limit;
  return std::max<std::int64_t>(0, cap - bytes_live());
}

// Give cached pages back to the kernel until at most `keep` bytes stay.
// Returns whether anything was released.
inline bool trim_cache(std::int64_t keep) noexcept {
  auto& c = cache();
  bool released = false;
  for (;;) {
    cached_range cut{};
    {
      std::lock_guard<std::mutex> g(c.lock);
      const std::int64_t held = g_cached_bytes.load(std::memory_order_relaxed);
      if (held <= keep || c.ranges.empty()) break;
      cached_range& r = c.ranges.back();
      // Whole huge pages only; rounding the excess up keeps the bound.
      cut.bytes = std::min(r.bytes, (static_cast<std::size_t>(held - keep) +
                                     huge_page_bytes - 1) &
                                        ~(huge_page_bytes - 1));
      r.bytes -= cut.bytes;
      cut.start = r.start + r.bytes;
      if (r.bytes == 0) c.ranges.pop_back();
      g_cached_bytes.fetch_sub(static_cast<std::int64_t>(cut.bytes),
                               std::memory_order_relaxed);
    }
    ::munmap(reinterpret_cast<void*>(cut.start), cut.bytes);
    released = true;
  }
  if (released) telemetry::count(telemetry::counter::mapping_cache_drains);
  return released;
}

// After a tracked allocation: enforce the cache's bounds.
inline void bound_cache() {
  const std::int64_t held = g_cached_bytes.load(std::memory_order_relaxed);
  if (held == 0) return;
  const std::int64_t idle =
      coarse_now_ns() - cache().last_use_ns.load(std::memory_order_relaxed);
  const std::int64_t room = cache_room();
  if (idle > kIdleDrainNs) {
    trim_cache(0);
  } else if (held > room) {
    trim_cache(room);
  }
}

// Take cached pages out of the cache for a destination that still needs
// `need` bytes, best fit: the smallest range that covers `need` (split),
// else the largest range whole. An empty range when the cache is empty.
[[nodiscard]] inline cached_range take_cached(std::size_t need) {
  auto& c = cache();
  if (g_cached_bytes.load(std::memory_order_relaxed) == 0) return {0, 0};
  std::lock_guard<std::mutex> g(c.lock);
  if (c.ranges.empty()) return {0, 0};
  // `a` before `b`: a range that covers `need` before one that does not;
  // among those that cover it the smallest, otherwise the largest.
  auto pick = std::min_element(
      c.ranges.begin(), c.ranges.end(),
      [need](const cached_range& a, const cached_range& b) {
        const bool a_fits = a.bytes >= need;
        if (a_fits != (b.bytes >= need)) return a_fits;
        return a_fits ? a.bytes < b.bytes : a.bytes > b.bytes;
      });
  const cached_range taken{pick->start, std::min(pick->bytes, need)};
  pick->start += taken.bytes;
  pick->bytes -= taken.bytes;
  if (pick->bytes == 0) {
    *pick = c.ranges.back();
    c.ranges.pop_back();
  }
  g_cached_bytes.fetch_sub(static_cast<std::int64_t>(taken.bytes),
                           std::memory_order_relaxed);
  c.last_use_ns.store(coarse_now_ns(), std::memory_order_relaxed);
  return taken;
}

// Move taken pages to `dst`, one huge page at a time. Returns the bytes
// moved. If a move is refused, the rest of `r` is unmapped, and the state
// of the huge page at dst + (bytes moved) is unknown: the kernel may have
// unmapped it, and another thread's mmap may since have been placed there.
inline std::size_t move_taken(cached_range r, char* dst) noexcept {
  const move_page_fn move = g_move_page.load(std::memory_order_relaxed);
  std::size_t done = 0;
  for (; done < r.bytes; done += huge_page_bytes) {
    if (move(reinterpret_cast<void*>(r.start + done), dst + done) ==
        MAP_FAILED) {
      ::munmap(reinterpret_cast<void*>(r.start + done), r.bytes - done);
      break;
    }
  }
  return done;
}

// Map a fresh huge page at `page` after a refused move, only where nothing
// is mapped: MAP_FIXED would silently replace a mapping another thread may
// have been given there. Returns whether `page` is ours again.
[[nodiscard]] inline bool remap_refused_page(char* page) noexcept {
  void* q = ::mmap(page, huge_page_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1, 0);
  if (q == page) {
    (void)::madvise(page, huge_page_bytes, MADV_HUGEPAGE);
    return true;
  }
  // A kernel without MAP_FIXED_NOREPLACE takes the address as a hint.
  if (q != MAP_FAILED) ::munmap(q, huge_page_bytes);
  return false;
}

// reserve_aligned, draining the cache and retrying once when refused.
[[nodiscard]] inline char* reserve_or_drain(std::size_t len) {
  char* p = reserve_aligned(len);
  if (p == nullptr && trim_cache(0)) p = reserve_aligned(len);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Map a large buffer: reserve an aligned range, then back its whole huge
// pages from the cache where it can.
[[nodiscard]] inline void* map_large(std::size_t bytes) {
  const std::size_t len = mapped_length(bytes);
  if (len < bytes) throw std::bad_alloc();
  char* p = reserve_or_drain(len);
  const std::size_t whole = len & ~(huge_page_bytes - 1);
  std::size_t reused = 0;
  while (reused < whole) {
    const cached_range r = take_cached(whole - reused);
    if (r.bytes == 0) break;
    const std::size_t moved = move_taken(r, p + reused);
    reused += moved;
    if (moved == r.bytes) continue;
    // A refused move: the rest is faulted fresh, in this reservation if
    // the refused page can be mapped again, else in a new one. The page
    // itself is left as it is; at worst that leaks one untouched huge
    // page of address space.
    if (!remap_refused_page(p + reused)) {
      const std::size_t after = reused + huge_page_bytes;
      if (reused > 0) ::munmap(p, reused);
      if (len > after) ::munmap(p + after, len - after);
      p = reserve_or_drain(len);
      reused = 0;
    }
    break;
  }
  telemetry::count(telemetry::counter::mapping_bytes_reused, reused);
  telemetry::count(telemetry::counter::mapping_bytes_fresh, len - reused);
  return p;
}

// Release a large buffer (already subtracted from bytes_live): unmap the
// partial tail, cache as much of the whole-huge-page prefix as the bounds
// allow, unmap the rest.
inline void unmap_large(void* ptr, std::size_t bytes) noexcept {
  auto* p = static_cast<char*>(ptr);
  const std::size_t len = mapped_length(bytes);
  const std::size_t whole = len & ~(huge_page_bytes - 1);
  if (len > whole) ::munmap(p + whole, len - whole);
  std::size_t keep = 0;
  {
    auto& c = cache();
    std::lock_guard<std::mutex> g(c.lock);
    const std::int64_t room =
        cache_room() - g_cached_bytes.load(std::memory_order_relaxed);
    if (room > 0) {
      keep = std::min(whole, static_cast<std::size_t>(room) &
                                 ~(huge_page_bytes - 1));
    }
    if (keep > 0) {
      try {
        c.ranges.push_back({reinterpret_cast<std::uintptr_t>(p), keep});
        g_cached_bytes.fetch_add(static_cast<std::int64_t>(keep),
                                 std::memory_order_relaxed);
        c.last_use_ns.store(coarse_now_ns(), std::memory_order_relaxed);
      } catch (...) {
        keep = 0;
      }
    }
  }
  if (whole > keep) ::munmap(p + keep, whole - keep);
}

// Raise live_high to at least `live`.
inline void note_live_high(std::int64_t live) {
  auto& high = cache().live_high;
  std::int64_t cur = high.load(std::memory_order_relaxed);
  while (live > cur &&
         !high.compare_exchange_weak(cur, live, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

// Allocate `bytes` tracked bytes aligned to `align` (a power of two no
// larger than huge_page_bytes). Throws std::bad_alloc (or budget_exceeded)
// with the accounting unchanged.
[[nodiscard]] inline void* tracked_allocate(std::size_t bytes,
                                            std::size_t align) {
  alloc_admission adm(bytes);
  void* p;
  if (bytes >= huge_page_bytes) {
    p = detail::map_large(bytes);
    adm.commit();
    detail::note_live_high(bytes_live());
  } else {
    p = ::operator new(bytes, std::align_val_t(align));
    adm.commit();
  }
  detail::bound_cache();
  return p;
}

// Release a buffer from tracked_allocate; `bytes` and `align` must be the
// values it was allocated with.
inline void tracked_deallocate(void* p, std::size_t bytes,
                               std::size_t align) noexcept {
  note_free(bytes);
  if (bytes >= huge_page_bytes) {
    detail::unmap_large(p, bytes);
  } else {
    ::operator delete(p, std::align_val_t(align));
  }
}

}  // namespace pbds::memory

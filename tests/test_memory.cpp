// Unit tests for the allocation accounting (pbds::memory) — the substrate
// behind every "space" number in the evaluation.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <thread>
#include <optional>
#include <type_traits>
#include <vector>

#include "array/parray.hpp"
#include "benchmarks/policies.hpp"
#include "memory/budget.hpp"
#include "memory/counting_allocator.hpp"
#include "memory/tracked_alloc.hpp"
#include "memory/tracking.hpp"
#include "differential.hpp"
#include "smaps.hpp"

namespace {

namespace mem = pbds::memory;
constexpr std::size_t kHuge = mem::huge_page_bytes;

TEST(Memory, AllocFreeBalance) {
  std::int64_t live0 = mem::bytes_live();
  mem::note_alloc(1234);
  EXPECT_EQ(mem::bytes_live(), live0 + 1234);
  mem::note_free(1234);
  EXPECT_EQ(mem::bytes_live(), live0);
}

TEST(Memory, PeakTracksHighWaterMark) {
  mem::reset_peak();
  std::int64_t base = mem::bytes_peak();
  mem::note_alloc(1000);
  mem::note_alloc(2000);
  mem::note_free(1000);
  mem::note_alloc(500);
  EXPECT_EQ(mem::bytes_peak(), base + 3000);
  mem::note_free(2000);
  mem::note_free(500);
  EXPECT_EQ(mem::bytes_peak(), base + 3000);  // peak is sticky
  mem::reset_peak();
  EXPECT_EQ(mem::bytes_peak(), mem::bytes_live());
}

TEST(Memory, TotalIsCumulative) {
  std::int64_t t0 = mem::bytes_total();
  mem::note_alloc(100);
  mem::note_free(100);
  mem::note_alloc(100);
  mem::note_free(100);
  EXPECT_EQ(mem::bytes_total(), t0 + 200);
}

TEST(Memory, SpaceMeterMeasuresRegion) {
  // Allocate before the meter: counts toward peak (max residency includes
  // pre-existing buffers) but not toward allocated_bytes.
  auto pre = pbds::parray<char>::filled(1 << 10, 'x');
  mem::space_meter meter;
  {
    auto tmp = pbds::parray<char>::filled(1 << 14, 'y');
    EXPECT_GE(meter.peak_delta_bytes(), 1 << 14);
  }
  EXPECT_GE(meter.peak_bytes(), (1 << 10) + (1 << 14));
  EXPECT_EQ(meter.allocated_bytes(), 1 << 14);
  EXPECT_EQ(meter.alloc_count(), 1);
}

TEST(Memory, SpaceMeterResetsPeak) {
  {
    auto big = pbds::parray<char>::filled(1 << 16, 'z');
  }  // peak now includes a freed 64 KiB buffer
  mem::space_meter meter;  // resets the high-water mark
  EXPECT_EQ(meter.peak_bytes(), mem::bytes_live());
}

TEST(Memory, CountingAllocatorRoutesThroughCounters) {
  std::int64_t live0 = mem::bytes_live();
  {
    mem::tracked_vector<std::int64_t> v;
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_GE(mem::bytes_live() - live0,
              static_cast<std::int64_t>(1000 * sizeof(std::int64_t)));
  }
  EXPECT_EQ(mem::bytes_live(), live0);
}

TEST(Memory, CountingAllocatorEquality) {
  mem::counting_allocator<int> a;
  mem::counting_allocator<double> b;
  EXPECT_TRUE(a == mem::counting_allocator<int>(b));
}

// --- over-aligned pack buffers ----------------------------------------------

// Copies of an over-aligned element record whether they landed on an
// alignof(T) boundary. filter packs survivors into tracked_vector buffers,
// so a counting_allocator that ignores alignof(T) shows up here.
std::atomic<int> g_misaligned_copies{0};

struct alignas(64) wide64 {
  std::uint64_t v = 0;
  wide64() = default;
  explicit wide64(std::uint64_t x) : v(x) {}
  wide64(const wide64& o) : v(o.v) {
    if (reinterpret_cast<std::uintptr_t>(this) % alignof(wide64) != 0)
      g_misaligned_copies.fetch_add(1, std::memory_order_relaxed);
  }
  wide64& operator=(const wide64&) = default;
};

template <typename P>
std::vector<std::uint64_t> filter_wide(const pbds::parray<wide64>& in) {
  auto out = P::to_array(
      P::filter([](const wide64& w) { return w.v % 3 != 0; }, P::view(in)));
  std::vector<std::uint64_t> vals;
  for (const auto& w : out) vals.push_back(w.v);
  return vals;
}

TEST(Memory, FilterOverAlignedElementsStaysAligned) {
  const std::size_t n = 50000;
  auto in = pbds::parray<wide64>::tabulate(
      n, [](std::size_t i) { return wide64(i); });
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < n; ++i)
    if (i % 3 != 0) expected.push_back(i);

  g_misaligned_copies = 0;
  EXPECT_EQ(filter_wide<pbds::array_policy>(in), expected);
  EXPECT_EQ(filter_wide<pbds::rad_policy>(in), expected);
  EXPECT_EQ(filter_wide<pbds::delay_policy>(in), expected);
  EXPECT_EQ(g_misaligned_copies.load(), 0);
}

TEST(Memory, CountingAllocatorHonoursAlignment) {
  mem::tracked_vector<wide64> v;
  for (std::uint64_t i = 0; i < 100; ++i) {
    v.emplace_back(i);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  }
}

// --- exact-size pack buffers -------------------------------------------------

// filter packs each block's survivors into one tracked buffer of exactly
// their count. Against an all-rejecting filter over the same source (same
// piece table, sizes, offsets and scan partials), a filter that keeps k
// elements in b non-empty blocks must therefore add exactly b allocations
// and k * sizeof(T) bytes; array and rad then add their concatenated
// output (one allocation of k elements, none when k == 0).
constexpr std::size_t kPackBlock = 64;
constexpr std::size_t kPackN = kPackBlock * 10 + 17;  // ragged last block

std::uint64_t key(std::int64_t x) { return static_cast<std::uint64_t>(x); }
std::uint64_t key(const wide64& w) { return w.v; }

// Every fifth element is dropped and every third block keeps nothing.
bool keep(std::uint64_t x) { return x % 5 != 0 && (x / kPackBlock) % 3 != 1; }

struct alloc_delta {
  std::int64_t allocs;
  std::int64_t bytes;
};

template <typename Fn>
alloc_delta measure(const Fn& fn) {
  mem::space_meter m;
  { auto out = fn(); }
  return {m.alloc_count(), m.allocated_bytes()};
}

template <typename P, typename T, typename Src>
void expect_filter_allocates_survivors(const Src& src, const char* source) {
  SCOPED_TRACE(::testing::Message() << P::name << " over " << source);
  std::int64_t survivors = 0, nonempty = 0;
  for (std::size_t lo = 0; lo < kPackN; lo += kPackBlock) {
    std::int64_t k = 0;
    for (std::size_t i = lo; i < lo + kPackBlock && i < kPackN; ++i)
      k += keep(i) ? 1 : 0;
    survivors += k;
    nonempty += k > 0 ? 1 : 0;
  }
  ASSERT_GT(survivors, 0);
  ASSERT_LT(nonempty, static_cast<std::int64_t>(kPackN / kPackBlock));
  const bool eager = !std::is_same_v<P, pbds::delay_policy>;
  const std::int64_t bytes = survivors * static_cast<std::int64_t>(sizeof(T));
  const std::int64_t want_allocs = nonempty + (eager ? 1 : 0);
  const std::int64_t want_bytes = bytes + (eager ? bytes : 0);

  auto p = [](const T& x) { return keep(key(x)); };
  auto none = [](const T&) { return false; };
  auto op = [](const T& x) -> std::optional<T> {
    if (keep(key(x))) return x;
    return std::nullopt;
  };
  auto op_none = [](const T&) -> std::optional<T> { return std::nullopt; };

  for (bool bulk : {true, false}) {
    SCOPED_TRACE(bulk ? "bulk paths" : "element-at-a-time fallback");
    std::optional<pbds::stream::scoped_bulk_disable> off;
    if (!bulk) off.emplace();
    auto f0 = measure([&] { return P::filter(none, src); });
    auto f1 = measure([&] { return P::filter(p, src); });
    EXPECT_EQ(f1.allocs - f0.allocs, want_allocs) << "filter";
    EXPECT_EQ(f1.bytes - f0.bytes, want_bytes) << "filter";
    auto g0 = measure([&] { return P::filter_op(op_none, src); });
    auto g1 = measure([&] { return P::filter_op(op, src); });
    EXPECT_EQ(g1.allocs - g0.allocs, want_allocs) << "filter_op";
    EXPECT_EQ(g1.bytes - g0.bytes, want_bytes) << "filter_op";
    EXPECT_EQ(P::length(P::filter(p, src)),
              static_cast<std::size_t>(survivors));
  }
}

template <typename P, typename T>
void expect_filters_allocate_survivors() {
  auto in = pbds::parray<T>::tabulate(
      kPackN, [](std::size_t i) { return T(i); });
  expect_filter_allocates_survivors<P, T>(P::view(in), "a pointer source");
  // A filter's output: a region BID (staged runs) for delay, a parray
  // for array and rad.
  auto region = P::filter([](const T&) { return true; }, P::view(in));
  expect_filter_allocates_survivors<P, T>(region, "a region source");
  // Index-computed elements: a tabulate stream for delay and rad.
  auto computed = P::tabulate(kPackN, [](std::size_t i) { return T(i); });
  expect_filter_allocates_survivors<P, T>(computed, "a compute source");
}

TEST(Memory, FilterAllocatesExactlyWhatItKeeps) {
  pbds::scoped_block_size blk(kPackBlock);
  expect_filters_allocate_survivors<pbds::array_policy, std::int64_t>();
  expect_filters_allocate_survivors<pbds::rad_policy, std::int64_t>();
  expect_filters_allocate_survivors<pbds::delay_policy, std::int64_t>();
  expect_filters_allocate_survivors<pbds::array_policy, wide64>();
  expect_filters_allocate_survivors<pbds::rad_policy, wide64>();
  expect_filters_allocate_survivors<pbds::delay_policy, wide64>();
}

// --- huge-page-backed large allocations -------------------------------------

// Large-path tests run with the ambient PBDS_* environment cleared: an
// exported PBDS_BUDGET_BYTES would refuse their multi-MiB buffers. Raw
// mmap is invisible to LeakSanitizer, so the bytes_live checks here are
// the leak check for this path; cached mappings outlive their buffers, so
// LeakSanitizer could not tell them from live ones either.
class MemoryLarge : public ::testing::Test {
 protected:
  pbds::testing::scoped_env env_;
};

TEST_F(MemoryLarge, LargeParrayAccountsRequestedBytes) {
  for (std::size_t bytes : {kHuge, kHuge + 1, 5 * kHuge + 4096 + 3}) {
    const std::int64_t live0 = mem::bytes_live();
    const std::int64_t total0 = mem::bytes_total();
    const std::int64_t allocs0 = mem::num_allocs();
    {
      auto a = pbds::parray<char>::uninitialized(bytes);
      EXPECT_EQ(mem::bytes_live() - live0, static_cast<std::int64_t>(bytes));
      EXPECT_EQ(mem::bytes_total() - total0,
                static_cast<std::int64_t>(bytes));
      EXPECT_EQ(mem::num_allocs() - allocs0, 1);
    }
    EXPECT_EQ(mem::bytes_live(), live0);
    EXPECT_EQ(mem::bytes_total() - total0, static_cast<std::int64_t>(bytes));
  }
}

struct counter_snapshot {
  std::int64_t live = mem::bytes_live();
  std::int64_t total = mem::bytes_total();
  std::int64_t allocs = mem::num_allocs();
  std::int64_t reserved =
      mem::detail::g_budget_reserved.load(std::memory_order_relaxed);

  void expect_unchanged() const {
    EXPECT_EQ(mem::bytes_live(), live);
    EXPECT_EQ(mem::bytes_total(), total);
    EXPECT_EQ(mem::num_allocs(), allocs);
    EXPECT_EQ(mem::detail::g_budget_reserved.load(std::memory_order_relaxed),
              reserved);
  }
};

TEST_F(MemoryLarge, InjectedFaultOnLargeParrayLeavesCountersUnchanged) {
  counter_snapshot before;
  {
    auto faults = mem::scoped_alloc_faults::fail_nth(0);
    EXPECT_THROW((void)pbds::parray<char>::uninitialized(4 * kHuge),
                 std::bad_alloc);
    EXPECT_EQ(faults.injected(), 1);
  }
  before.expect_unchanged();
}

TEST_F(MemoryLarge, BudgetRefusalOfLargeParrayLeavesCountersUnchanged) {
  counter_snapshot before;
  {
    mem::budget_scope budget(mem::bytes_live() + 2 * kHuge);
    EXPECT_THROW((void)pbds::parray<char>::uninitialized(4 * kHuge),
                 pbds::budget_exceeded);
  }
  before.expect_unchanged();
}

TEST_F(MemoryLarge, FailedMappingRetractsReservation) {
  // 1 PiB exceeds any user address space, so the mapping itself fails —
  // after admission reserved the bytes against an (ample) budget.
  constexpr std::size_t kPiB = std::size_t{1} << 50;
  counter_snapshot before;
  {
    mem::budget_scope budget(mem::bytes_live() + 2 * std::int64_t{kPiB});
    try {
      (void)pbds::parray<char>::uninitialized(kPiB);
      ADD_FAILURE() << "a 1 PiB mapping succeeded";
    } catch (const pbds::budget_exceeded&) {
      ADD_FAILURE() << "refused by the budget, not by mmap";
    } catch (const std::bad_alloc&) {
    }
  }
  before.expect_unchanged();
}

TEST_F(MemoryLarge, TrackedVectorGrowsAcrossThreshold) {
  const std::int64_t live0 = mem::bytes_live();
  {
    mem::tracked_vector<std::uint64_t> v;
    const std::size_t n = 3 * kHuge / sizeof(std::uint64_t) + 5;
    for (std::size_t i = 0; i < n; ++i) v.push_back(i * 0x9e3779b97f4a7c15ull);
    ASSERT_GE(v.capacity() * sizeof(std::uint64_t), kHuge);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kHuge, 0u);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(v[i], i * 0x9e3779b97f4a7c15ull) << "index " << i;
    EXPECT_EQ(mem::bytes_live() - live0,
              static_cast<std::int64_t>(v.capacity() * sizeof(std::uint64_t)));
  }
  EXPECT_EQ(mem::bytes_live(), live0);
}

// --- recycled huge-page mappings ---------------------------------------------

std::int64_t cached() { return mem::detail::cached_mapping_bytes(); }

std::uint64_t reused_counter() {
  return pbds::telemetry::snapshot().get(
      pbds::telemetry::counter::mapping_bytes_reused);
}

std::uint64_t fresh_counter() {
  return pbds::telemetry::snapshot().get(
      pbds::telemetry::counter::mapping_bytes_fresh);
}

constexpr std::size_t k64MiB = std::size_t{64} << 20;

TEST_F(MemoryLarge, FreedBufferCachesItsWholeHugePages) {
  mem::detail::trim_cache(0);
  { auto a = pbds::parray<char>::filled(k64MiB, 1); }
  EXPECT_EQ(cached(), static_cast<std::int64_t>(k64MiB));
  mem::detail::trim_cache(0);
  // The partial 4 KiB tail goes back to the kernel; the prefix is kept.
  { auto a = pbds::parray<char>::filled(3 * kHuge + 4096 + 5, 1); }
  EXPECT_EQ(cached(), static_cast<std::int64_t>(3 * kHuge));
  mem::detail::trim_cache(0);
  EXPECT_EQ(cached(), 0);
}

TEST_F(MemoryLarge, ReuseAccountsLikeAColdAllocation) {
  struct deltas {
    std::int64_t live, total, allocs;
    std::uint64_t reused, fresh;
  };
  auto allocate_and_free = [] {
    const counter_snapshot before;
    const std::uint64_t reused0 = reused_counter();
    const std::uint64_t fresh0 = fresh_counter();
    deltas d{};
    {
      auto a = pbds::parray<char>::uninitialized(k64MiB);
      d = {mem::bytes_live() - before.live, mem::bytes_total() - before.total,
           mem::num_allocs() - before.allocs, reused_counter() - reused0,
           fresh_counter() - fresh0};
      std::memset(a.data(), 0x5a, a.size());
      for (std::size_t i = 0; i < a.size(); i += 4096) {
        if (a[i] != 0x5a) ADD_FAILURE() << "byte " << i << " not written";
      }
    }
    EXPECT_EQ(mem::bytes_live(), before.live);
    return d;
  };
  mem::detail::trim_cache(0);
  const deltas cold = allocate_and_free();
  ASSERT_EQ(cached(), static_cast<std::int64_t>(k64MiB));
  const deltas warm = allocate_and_free();
  EXPECT_EQ(warm.live, cold.live);
  EXPECT_EQ(warm.total, cold.total);
  EXPECT_EQ(warm.allocs, cold.allocs);
  EXPECT_EQ(cold.live, static_cast<std::int64_t>(k64MiB));
  if (pbds::telemetry::metrics_enabled()) {
    EXPECT_EQ(cold.reused, 0u);
    EXPECT_EQ(cold.fresh, k64MiB);
    EXPECT_EQ(warm.reused, k64MiB);
    EXPECT_EQ(warm.fresh, 0u);
  }
  // The second buffer drew the cache empty, then refilled it on release.
  EXPECT_EQ(cached(), static_cast<std::int64_t>(k64MiB));
}

TEST_F(MemoryLarge, ReusedBufferKeepsHugePages) {
  if (!pbds::testing::thp_available())
    GTEST_SKIP() << "transparent huge pages are disabled ("
                 << pbds::testing::thp_mode() << ")";
  mem::detail::trim_cache(0);
  { auto a = pbds::parray<char>::filled(k64MiB, 1); }
  ASSERT_EQ(cached(), static_cast<std::int64_t>(k64MiB));
  auto b = pbds::parray<char>::uninitialized(k64MiB);
  EXPECT_EQ(cached(), 0);
  // Not touched since the move: any huge page here came with the cache.
  const auto lo = reinterpret_cast<std::uintptr_t>(b.data());
  EXPECT_GT(pbds::testing::anon_huge_kb(lo, lo + k64MiB), 0);
}

TEST_F(MemoryLarge, RefusedAllocationLeavesCacheUntouched) {
  mem::detail::trim_cache(0);
  { auto a = pbds::parray<char>::filled(8 * kHuge, 1); }
  ASSERT_EQ(cached(), static_cast<std::int64_t>(8 * kHuge));
  const counter_snapshot before;
  {
    auto faults = mem::scoped_alloc_faults::fail_nth(0);
    EXPECT_THROW((void)pbds::parray<char>::uninitialized(4 * kHuge),
                 std::bad_alloc);
  }
  EXPECT_EQ(cached(), static_cast<std::int64_t>(8 * kHuge));
  {
    mem::budget_scope budget(mem::bytes_live() + 2 * kHuge);
    EXPECT_THROW((void)pbds::parray<char>::uninitialized(4 * kHuge),
                 pbds::budget_exceeded);
  }
  EXPECT_EQ(cached(), static_cast<std::int64_t>(8 * kHuge));
  before.expect_unchanged();
}

TEST_F(MemoryLarge, CacheStaysWithinBudget) {
  mem::detail::trim_cache(0);
  const std::int64_t live0 = mem::bytes_live();
  { auto a = pbds::parray<char>::filled(32 * kHuge, 1); }
  ASSERT_EQ(cached(), static_cast<std::int64_t>(32 * kHuge));
  const std::int64_t limit = live0 + 12 * std::int64_t{kHuge};
  mem::budget_scope budget(limit);
  auto expect_within = [&](const char* where) {
    EXPECT_LE(cached() + mem::bytes_live(), limit) << where;
  };
  {
    auto a = pbds::parray<char>::uninitialized(4 * kHuge);
    expect_within("after a reusing allocation");
    auto b = pbds::parray<char>::uninitialized(4 * kHuge + 4096);
    expect_within("after a second one");
    { auto s = pbds::parray<char>::uninitialized(1000); }
    expect_within("after a small allocation");
  }
  expect_within("after the releases");
  EXPECT_GT(cached(), 0) << "the budget left room to cache";
  {
    auto c = pbds::parray<char>::uninitialized(10 * kHuge);
    expect_within("after a large allocation");
  }
  expect_within("at the end");
  EXPECT_EQ(mem::bytes_live(), live0);
}

TEST_F(MemoryLarge, IdleCacheDrainsAtNextSmallAllocation) {
  { auto a = pbds::parray<char>::filled(4 * kHuge, 1); }
  ASSERT_GT(cached(), 0);
  { auto s = pbds::parray<char>::uninitialized(64); }
  EXPECT_GT(cached(), 0) << "drained while still in use";
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(mem::detail::kIdleDrainNs) +
      std::chrono::milliseconds(50));
  EXPECT_GT(cached(), 0) << "drained without an allocation";
  { auto s = pbds::parray<char>::uninitialized(64); }
  EXPECT_EQ(cached(), 0);
}

// Stands in for mremap while in scope: every `fail_every`-th huge-page
// move is refused. Refusals rotate through what a kernel may leave at the
// destination: still mapped; unmapped (kernels before 6.17 unmap it before
// rejecting a source that spans several VMAs); or unmapped and then taken
// by an unrelated mapping, as another thread's mmap may do. Such a foreign
// page is filled with kForeignByte; expect_foreign_pages_intact() checks
// that nothing replaced or wrote it.
class refused_moves {
 public:
  static constexpr unsigned char kForeignByte = 0xf7;

  refused_moves(unsigned fail_every, unsigned first_kind) {
    fail_every_.store(fail_every);
    calls_.store(0);
    refusals_.store(first_kind);
    first_kind_ = first_kind;
    mem::detail::g_move_page.store(&move);
  }
  refused_moves(const refused_moves&) = delete;
  refused_moves& operator=(const refused_moves&) = delete;
  ~refused_moves() {
    mem::detail::g_move_page.store(&mem::detail::mremap_page);
    std::lock_guard<std::mutex> g(lock_);
    // Left-mapped destinations were abandoned by the allocator; they and
    // the foreign pages belong to this test.
    for (std::uintptr_t page : left_mapped_)
      ::munmap(reinterpret_cast<void*>(page), kHuge);
    for (std::uintptr_t page : foreign_)
      ::munmap(reinterpret_cast<void*>(page), kHuge);
    left_mapped_.clear();
    foreign_.clear();
  }

  unsigned refusals() const { return refusals_.load() - first_kind_; }

  void expect_foreign_pages_intact() const {
    std::lock_guard<std::mutex> g(lock_);
    for (std::uintptr_t page : foreign_) {
      const auto* b = reinterpret_cast<const unsigned char*>(page);
      std::size_t wrong = 0;
      for (std::size_t i = 0; i < kHuge; ++i) wrong += b[i] != kForeignByte;
      EXPECT_EQ(wrong, 0u) << "foreign page " << std::hex << page;
    }
  }

  std::size_t foreign_pages() const {
    std::lock_guard<std::mutex> g(lock_);
    return foreign_.size();
  }

  // Whether [p, p + n) overlaps a page this test owns.
  bool overlaps_owned(const void* p, std::size_t n) const {
    const auto lo = reinterpret_cast<std::uintptr_t>(p);
    std::lock_guard<std::mutex> g(lock_);
    for (const auto* pages : {&left_mapped_, &foreign_}) {
      for (std::uintptr_t page : *pages) {
        if (page < lo + n && lo < page + kHuge) return true;
      }
    }
    return false;
  }

 private:
  static void* move(void* from, void* to) {
    if (calls_.fetch_add(1) % fail_every_.load() != fail_every_.load() - 1)
      return mem::detail::mremap_page(from, to);
    const unsigned kind = refusals_.fetch_add(1) % 3;
    const auto page = reinterpret_cast<std::uintptr_t>(to);
    if (kind == 0) {
      std::lock_guard<std::mutex> g(lock_);
      left_mapped_.push_back(page);
    } else {
      ::munmap(to, kHuge);
    }
    if (kind == 2) {
      void* q = ::mmap(to, kHuge, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1,
                       0);
      if (q == to) {
        std::memset(q, kForeignByte, kHuge);
        std::lock_guard<std::mutex> g(lock_);
        foreign_.push_back(page);
      } else if (q != MAP_FAILED) {
        ::munmap(q, kHuge);
      }
    }
    errno = kind == 0 ? ENOMEM : EFAULT;
    return MAP_FAILED;
  }

  static inline std::atomic<unsigned> calls_{0};
  static inline std::atomic<unsigned> fail_every_{1};
  static inline std::atomic<unsigned> refusals_{0};
  static inline std::mutex lock_;
  static inline std::vector<std::uintptr_t> left_mapped_;
  static inline std::vector<std::uintptr_t> foreign_;
  unsigned first_kind_ = 0;
};

TEST_F(MemoryLarge, RefusedMoveNeverReplacesAnotherMapping) {
  for (unsigned kind = 0; kind < 3; ++kind) {
    SCOPED_TRACE(kind);
    mem::detail::trim_cache(0);
    { auto a = pbds::parray<char>::filled(8 * kHuge, 1); }
    ASSERT_EQ(cached(), static_cast<std::int64_t>(8 * kHuge));
    const std::int64_t live0 = mem::bytes_live();
    {
      // Two pages move, the third is refused.
      refused_moves refuse(3, kind);
      {
        const std::size_t n = 8 * kHuge + 4096;
        auto b = pbds::parray<char>::filled(n, 2);
        EXPECT_EQ(refuse.refusals(), 1u);
        EXPECT_EQ(refuse.foreign_pages(), kind == 2 ? 1u : 0u);
        EXPECT_FALSE(refuse.overlaps_owned(b.data(), n));
        // The refused range is not returned to the cache.
        EXPECT_EQ(cached(), 0);
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < n; ++i) wrong += b[i] != 2;
        EXPECT_EQ(wrong, 0u);
        refuse.expect_foreign_pages_intact();
      }
      refuse.expect_foreign_pages_intact();
      EXPECT_EQ(mem::bytes_live(), live0);
    }
  }
  mem::detail::trim_cache(0);
}

// Allocates, pattern-fills, verifies and frees 2–9 MiB buffers from a
// 4-worker pool. Returns the bytes found overwritten by another owner.
std::int64_t churn_private_buffers(std::size_t iters) {
  const unsigned before = pbds::sched::num_workers();
  pbds::sched::set_num_workers(4);
  std::atomic<std::int64_t> foreign_bytes{0};
  pbds::parallel_for(
      0, iters,
      [&](std::size_t i) {
        // 2–9 MiB, with partial tails of varying length.
        const std::size_t words =
            (kHuge + (i * 0x9e3779b97f4a7c15ull) % (7 * kHuge)) / 8;
        auto a = pbds::parray<std::uint64_t>::uninitialized(words);
        const std::uint64_t pattern = (i + 1) * 0xbf58476d1ce4e5b9ull;
        for (std::size_t j = 0; j < words; ++j) a[j] = pattern ^ j;
        std::this_thread::yield();
        std::int64_t foreign = 0;
        for (std::size_t j = 0; j < words; ++j)
          foreign += a[j] != (pattern ^ j) ? 1 : 0;
        foreign_bytes.fetch_add(foreign * 8, std::memory_order_relaxed);
      },
      1);
  pbds::sched::set_num_workers(before);
  return foreign_bytes.load();
}

TEST_F(MemoryLarge, ConcurrentReuseKeepsBuffersPrivate) {
  const std::int64_t live0 = mem::bytes_live();
  const std::uint64_t reused0 = reused_counter();
  EXPECT_EQ(churn_private_buffers(96), 0);
  EXPECT_EQ(mem::bytes_live(), live0);
  if (pbds::telemetry::metrics_enabled()) {
    EXPECT_GT(reused_counter(), reused0) << "no buffer was recycled";
  }
}

TEST_F(MemoryLarge, ConcurrentReuseWithRefusedMovesKeepsBuffersPrivate) {
  const std::int64_t live0 = mem::bytes_live();
  {
    refused_moves refuse(4, 0);
    EXPECT_EQ(churn_private_buffers(96), 0);
    EXPECT_GT(refuse.refusals(), 0u) << "no move was refused";
    refuse.expect_foreign_pages_intact();
  }
  EXPECT_EQ(mem::bytes_live(), live0);
  mem::detail::trim_cache(0);
}

}  // namespace

// Unit tests for the allocation accounting (pbds::memory) — the substrate
// behind every "space" number in the evaluation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
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
// the leak check for this path.
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

}  // namespace

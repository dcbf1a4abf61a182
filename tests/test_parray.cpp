// Unit tests for parray<T> (construction, ownership, element lifetimes,
// allocation accounting).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <new>
#include <string>
#include <utility>

#include "array/parray.hpp"
#include "memory/tracked_alloc.hpp"
#include "memory/tracking.hpp"
#include "differential.hpp"
#include "smaps.hpp"

namespace {

using pbds::parray;
constexpr std::size_t kHuge = pbds::memory::huge_page_bytes;

TEST(Parray, DefaultIsEmpty) {
  parray<int> a;
  EXPECT_EQ(a.size(), 0u);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.begin(), a.end());
}

TEST(Parray, TabulateValues) {
  auto a = parray<int>::tabulate(1000, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(a.size(), 1000u);
  for (std::size_t i = 0; i < 1000; ++i)
    ASSERT_EQ(a[i], static_cast<int>(i * i));
}

TEST(Parray, Filled) {
  auto a = parray<std::string>::filled(50, "xyz");
  for (const auto& s : a) EXPECT_EQ(s, "xyz");
}

TEST(Parray, MoveTransfersOwnership) {
  auto a = parray<int>::tabulate(10, [](std::size_t i) {
    return static_cast<int>(i);
  });
  const int* p = a.data();
  parray<int> b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): documented
  EXPECT_EQ(b.size(), 10u);
  parray<int> c;
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c[7], 7);
}

TEST(Parray, CloneIsDeep) {
  auto a = parray<int>::filled(20, 5);
  auto b = a.clone();
  b[0] = 99;
  EXPECT_EQ(a[0], 5);
  EXPECT_EQ(b[0], 99);
  EXPECT_NE(a.data(), b.data());
}

TEST(Parray, NonTrivialElementsDestroyed) {
  static std::atomic<int> live{0};
  struct counted {
    counted() { live++; }
    counted(const counted&) { live++; }
    ~counted() { live--; }
  };
  live = 0;
  {
    auto a = parray<counted>::tabulate(100, [](std::size_t) {
      return counted{};
    });
    EXPECT_EQ(live.load(), 100);
  }
  EXPECT_EQ(live.load(), 0);
}

TEST(Parray, AllocationIsAccounted) {
  std::int64_t before = pbds::memory::bytes_live();
  {
    auto a = parray<double>::filled(1000, 1.0);
    EXPECT_EQ(pbds::memory::bytes_live() - before,
              static_cast<std::int64_t>(1000 * sizeof(double)));
  }
  EXPECT_EQ(pbds::memory::bytes_live(), before);
}

TEST(Parray, ZeroSizedAllocatesNothing) {
  std::int64_t allocs = pbds::memory::num_allocs();
  auto a = parray<int>::tabulate(0, [](std::size_t) { return 0; });
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(pbds::memory::num_allocs(), allocs);
}

TEST(Parray, MoveOnlyElementTypes) {
  // parray of parrays (used by flatten in the array library).
  auto nested = parray<parray<int>>::tabulate(10, [](std::size_t i) {
    return parray<int>::filled(i, static_cast<int>(i));
  });
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_EQ(nested[i].size(), i);
    if (i > 0) {
      EXPECT_EQ(nested[i][0], static_cast<int>(i));
    }
  }
}

TEST(Parray, OverAlignedTypes) {
  struct alignas(64) wide {
    double v[8];
  };
  auto a = parray<wide>::tabulate(33, [](std::size_t i) {
    wide w{};
    w.v[0] = static_cast<double>(i);
    return w;
  });
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % 64, 0u);
  EXPECT_EQ(a[32].v[0], 32.0);
}

TEST(Parray, LargeTabulateParallelized) {
  // Large enough to split across workers; checks no element is skipped.
  auto a = parray<std::uint32_t>::tabulate(1 << 20, [](std::size_t i) {
    return static_cast<std::uint32_t>(i ^ 0xdeadbeefu);
  });
  for (std::size_t i = 0; i < a.size(); i += 4097)
    ASSERT_EQ(a[i], static_cast<std::uint32_t>(i ^ 0xdeadbeefu));
}

TEST(Parray, SizeOverflowIsRejected) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const std::int64_t live0 = pbds::memory::bytes_live();
  const std::int64_t allocs0 = pbds::memory::num_allocs();
  EXPECT_THROW((void)parray<std::uint64_t>::uninitialized(kMax / 4),
               std::bad_alloc);
  // (kMax / 8 + 2) * 8 wraps to 8 bytes.
  EXPECT_THROW((void)parray<std::uint64_t>::uninitialized(kMax / 8 + 2),
               std::bad_alloc);
  EXPECT_EQ(pbds::memory::bytes_live(), live0);
  EXPECT_EQ(pbds::memory::num_allocs(), allocs0);
}

// Large-path tests run with the ambient PBDS_* environment cleared: an
// exported PBDS_BUDGET_BYTES would refuse their multi-MiB buffers.
class ParrayLarge : public ::testing::Test {
 protected:
  pbds::testing::scoped_env env_;
};

TEST_F(ParrayLarge, LargeBufferIsHugePageAligned) {
  for (std::size_t bytes : {kHuge, kHuge + 1, 3 * kHuge + 123}) {
    auto a = parray<char>::uninitialized(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % kHuge, 0u)
        << bytes << " bytes";
  }
  struct alignas(64) wide {
    double v[8];
  };
  auto w = parray<wide>::filled(kHuge / sizeof(wide) + 1, wide{});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % kHuge, 0u);
}

TEST_F(ParrayLarge, ElementsDestroyedBeforeUnmap) {
  // Each destructor reads its element: destroying after the release would
  // read pages the buffer no longer owns, and skipping an element would
  // miss the count.
  static std::atomic<std::int64_t> destroyed{0};
  struct tagged {
    std::uint64_t tag = 0x5eed;
    ~tagged() {
      if (tag == 0x5eed) destroyed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  const std::size_t n = 2 * kHuge / sizeof(tagged) + 7;
  destroyed = 0;
  {
    auto a = parray<tagged>::tabulate(n, [](std::size_t) { return tagged{}; });
    ASSERT_GE(n * sizeof(tagged), kHuge);
  }
  EXPECT_EQ(destroyed.load(), static_cast<std::int64_t>(n));
}

TEST_F(ParrayLarge, TouchedLargeBufferUsesHugePages) {
  if (!pbds::testing::thp_available())
    GTEST_SKIP() << "transparent huge pages are disabled ("
                 << pbds::testing::thp_mode() << ")";
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  auto a = parray<char>::filled(kBytes, 1);
  const auto lo = reinterpret_cast<std::uintptr_t>(a.data());
  EXPECT_GT(pbds::testing::anon_huge_kb(lo, lo + kBytes), 0);
}

}  // namespace

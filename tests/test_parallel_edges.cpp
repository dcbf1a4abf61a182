// parallel_for / fork2join edge cases, across execution modes:
// empty and single-element ranges, ranges exactly at / one past the
// granularity boundary, and nested parallelism entered from a thread that
// is not part of the worker pool. Also sched::worker_local: per-worker
// accumulation must sum exactly from every kind of caller.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "sched/deterministic.hpp"
#include "sched/exec_policy.hpp"
#include "sched/parallel.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace pbds;  // NOLINT

// Run `body` under each execution mode; det mode uses a fixed seed.
template <typename F>
void for_each_mode(F body) {
  {
    SCOPED_TRACE("mode=sequential");
    sched::scoped_sequential g;
    body();
  }
  {
    SCOPED_TRACE("mode=deterministic");
    sched::scoped_deterministic g(21, 4);
    body();
  }
  {
    SCOPED_TRACE("mode=parallel");
    body();
  }
}

TEST(ParallelForEdges, EmptyRangeNeverInvokesBody) {
  for_each_mode([] {
    std::atomic<int> calls{0};
    parallel_for(5, 5, [&](std::size_t) { ++calls; });
    parallel_for(7, 3, [&](std::size_t) { ++calls; });  // hi < lo
    apply(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
  });
}

TEST(ParallelForEdges, SingleElementRange) {
  for_each_mode([] {
    std::atomic<int> calls{0};
    std::atomic<std::size_t> seen{~std::size_t{0}};
    parallel_for(41, 42, [&](std::size_t i) {
      ++calls;
      seen = i;
    });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(seen.load(), 41u);
    apply(1, [&](std::size_t i) { EXPECT_EQ(i, 0u); });
  });
}

TEST(ParallelForEdges, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  for_each_mode([] {
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(0, kN, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  });
}

TEST(ParallelForEdges, RangeExactlyAtGranularityDoesNotFork) {
  // n == granularity runs as one sequential leaf; n == granularity + 1
  // must split. The deterministic trace makes fork counts observable.
  constexpr std::size_t kG = 64;
  {
    sched::scoped_deterministic g(1, 4);
    parallel_for(0, kG, [](std::size_t) {}, kG);
    EXPECT_EQ(g.scheduler().num_forks(), 0u);
  }
  {
    sched::scoped_deterministic g(1, 4);
    parallel_for(0, kG + 1, [](std::size_t) {}, kG);
    EXPECT_GE(g.scheduler().num_forks(), 1u);
  }
}

TEST(ParallelForEdges, GranularityBoundaryStillCoversRange) {
  constexpr std::size_t kG = 64;
  for (std::size_t n : {kG - 1, kG, kG + 1, 2 * kG, 2 * kG + 1}) {
    for_each_mode([n] {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(0, n, [&](std::size_t i) { hits[i]++; }, kG);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " index " << i;
    });
  }
}

TEST(ParallelForEdges, NestedParallelForInsideFork2Join) {
  for_each_mode([] {
    constexpr std::size_t kN = 2000;
    std::vector<std::atomic<int>> left(kN), right(kN);
    fork2join(
        [&] { parallel_for(0, kN, [&](std::size_t i) { left[i]++; }); },
        [&] { parallel_for(0, kN, [&](std::size_t i) { right[i]++; }); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(left[i].load(), 1) << i;
      ASSERT_EQ(right[i].load(), 1) << i;
    }
  });
}

TEST(ParallelForEdges, NonPoolThreadRunsNestedParallelismSafely) {
  // A thread that is not a pool worker (worker_id() < 0) must fall back to
  // the safe sequential path for fork2join — including nested
  // parallel_for inside the branches — and still cover every index.
  (void)sched::get_scheduler();  // pool up before the foreign thread starts
  constexpr std::size_t kN = 4000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> ok{true};
  std::thread outsider([&] {
    if (sched::scheduler::worker_id() >= 0) {
      ok = false;  // precondition: this thread is not in the pool
      return;
    }
    fork2join(
        [&] { parallel_for(0, kN / 2, [&](std::size_t i) { hits[i]++; }); },
        [&] {
          parallel_for(kN / 2, kN, [&](std::size_t i) { hits[i]++; });
        });
  });
  outsider.join();
  EXPECT_TRUE(ok.load());
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForEdges, ApplyUsesGranularityOne) {
  // apply(n, f) treats each index as a block-sized task: under the
  // deterministic scheduler an n-leaf apply forks n - 1 times.
  sched::scoped_deterministic g(5, 4);
  apply(9, [](std::size_t) {});
  EXPECT_EQ(g.scheduler().num_forks(), 8u);
}

// --- worker_local -----------------------------------------------------------

constexpr std::size_t kIncrements = 1'000'000;

std::uint64_t total(const sched::worker_local<std::uint64_t>& acc) {
  return acc.combine(std::uint64_t{0},
                     [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

// Resize the global pool for one test, restoring the previous size after.
class scoped_pool_size {
 public:
  explicit scoped_pool_size(unsigned p) : before_(sched::num_workers()) {
    sched::set_num_workers(p);
  }
  ~scoped_pool_size() { sched::set_num_workers(before_); }
  scoped_pool_size(const scoped_pool_size&) = delete;
  scoped_pool_size& operator=(const scoped_pool_size&) = delete;

 private:
  unsigned before_;
};

TEST(WorkerLocal, RealPoolSumIsExact) {
  scoped_pool_size pool(4);
  sched::worker_local<std::uint64_t> acc;
  EXPECT_EQ(acc.size(), sched::get_scheduler().num_slots() + 1);
  parallel_for(0, kIncrements, [&](std::size_t) { acc.local() += 1; });
  EXPECT_EQ(total(acc), kIncrements);
}

TEST(WorkerLocal, SequentialAndDeterministicSumsAreExact) {
  {
    sched::scoped_sequential g;
    sched::worker_local<std::uint64_t> acc;
    parallel_for(0, kIncrements, [&](std::size_t) { acc.local() += 1; });
    EXPECT_EQ(total(acc), kIncrements);
  }
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE(::testing::Message() << "det seed=" << seed);
    sched::scoped_deterministic g(seed, 4);
    sched::worker_local<std::uint64_t> acc;
    parallel_for(0, kIncrements / 16,
                 [&](std::size_t) { acc.local() += 1; });
    EXPECT_EQ(total(acc), kIncrements / 16);
  }
}

TEST(WorkerLocal, NonPoolThreadUsesTheExtraSlot) {
  sched::worker_local<std::uint64_t> acc;
  std::atomic<bool> outside{false};
  std::thread outsider([&] {
    outside = sched::scheduler::worker_id() < 0;
    parallel_for(0, kIncrements, [&](std::size_t) { acc.local() += 1; });
  });
  outsider.join();
  ASSERT_TRUE(outside.load());
  EXPECT_EQ(total(acc), kIncrements);
  EXPECT_EQ(acc.slot_value(acc.size() - 1), kIncrements);
}

TEST(WorkerLocal, GuestWorkerSumIsExact) {
  scoped_pool_size pool(4);
  sched::worker_local<std::uint64_t> acc;
  std::atomic<int> guest_id{-1};
  std::thread guest([&] {
    sched::guest_worker g(sched::get_scheduler());
    if (!g.enrolled()) return;
    guest_id = sched::scheduler::worker_id();
    parallel_for(0, kIncrements, [&](std::size_t) { acc.local() += 1; });
  });
  guest.join();
  // Guests take ids above the workers and below num_slots(), so they never
  // share the extra slot.
  ASSERT_GE(guest_id.load(), 4);
  EXPECT_LT(static_cast<std::size_t>(guest_id.load()), acc.size() - 1);
  EXPECT_EQ(total(acc), kIncrements);
  EXPECT_EQ(acc.slot_value(acc.size() - 1), 0u);
}

TEST(WorkerLocal, NestedParallelForSumIsExact) {
  scoped_pool_size pool(4);
  for_each_mode([] {
    sched::worker_local<std::uint64_t> acc;
    parallel_for(0, 1000, [&](std::size_t) {
      parallel_for(0, 1000, [&](std::size_t) { acc.local() += 1; });
    });
    EXPECT_EQ(total(acc), kIncrements);
  });
}

TEST(WorkerLocal, SlotsAreAtLeastACacheLineApart) {
  sched::worker_local<std::uint64_t> acc;
  std::set<std::uintptr_t> addrs;
  for (std::size_t i = 0; i < acc.size(); ++i)
    addrs.insert(reinterpret_cast<std::uintptr_t>(&acc.slot_value(i)));
  ASSERT_EQ(addrs.size(), acc.size());
  for (auto it = addrs.begin(); std::next(it) != addrs.end(); ++it)
    EXPECT_GE(*std::next(it) - *it, 64u);
}

}  // namespace

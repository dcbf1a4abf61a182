// Unit tests for the stream layer (Fig. 8's s.* functions): each adapter
// in isolation, deep compositions, and laziness (O(1) construction); and
// the pack scratch behind filter under nesting, stealing and failure.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/delayed.hpp"
#include "memory/tracking.hpp"
#include "sched/deterministic.hpp"
#include "sched/exec_policy.hpp"
#include "sched/scheduler.hpp"
#include "stream/streams.hpp"

namespace {

namespace st = pbds::stream;

template <typename S>
std::vector<typename S::value_type> drain(S s, std::size_t n) {
  std::vector<typename S::value_type> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(s.next());
  return out;
}

TEST(Streams, TabulateProducesIndexedValues) {
  auto s = st::tabulate_stream{[](std::size_t i) { return 3 * i; },
                               std::size_t{10}};
  auto v = drain(s, 4);
  EXPECT_EQ(v, (std::vector<std::size_t>{30, 33, 36, 39}));
}

TEST(Streams, PointerStreamReadsMemory) {
  int data[] = {5, 6, 7};
  st::pointer_stream<int> s{data};
  EXPECT_EQ(drain(s, 3), (std::vector<int>{5, 6, 7}));
}

TEST(Streams, MapTransforms) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                  std::size_t{0}};
  auto s = st::map_stream{base, [](int x) { return x * x; }};
  EXPECT_EQ(drain(s, 5), (std::vector<int>{0, 1, 4, 9, 16}));
}

TEST(Streams, ZipPairsInLockstep) {
  auto a = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                               std::size_t{0}};
  auto b = st::tabulate_stream{[](std::size_t i) { return (int)(10 * i); },
                               std::size_t{0}};
  auto s = st::zip_stream{a, b};
  auto v = drain(s, 3);
  EXPECT_EQ(v[2], (std::pair<int, int>(2, 20)));
}

TEST(Streams, ScanIsExclusive) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i + 1; },
                                  std::size_t{0}};
  auto s = st::scan_stream{base, [](int a, int b) { return a + b; }, 100};
  EXPECT_EQ(drain(s, 4), (std::vector<int>{100, 101, 103, 106}));
}

TEST(Streams, ScanInclusiveIncludesCurrent) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i + 1; },
                                  std::size_t{0}};
  auto s = st::scan_inclusive_stream{base,
                                     [](int a, int b) { return a + b; }, 100};
  EXPECT_EQ(drain(s, 4), (std::vector<int>{101, 103, 106, 110}));
}

TEST(Streams, ReduceFoldsLeft) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                  std::size_t{0}};
  // Non-commutative op to pin the fold direction: f(acc, x) = 2*acc + x.
  int got = st::reduce(base, 4, [](int a, int b) { return 2 * a + b; }, 1);
  // ((((1*2+0)*2+1)*2+2)*2+3) = 27
  EXPECT_EQ(got, 27);
}

TEST(Streams, ApplyVisitsEachOnce) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                  std::size_t{0}};
  std::vector<int> seen;
  st::apply(base, 5, [&](int x) { seen.push_back(x); });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Streams, PackKeepsSurvivorsInOrder) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                  std::size_t{0}};
  auto out = st::pack(base, 10, [](int x) { return x % 3 == 0; });
  EXPECT_EQ(std::vector<int>(out.begin(), out.end()),
            (std::vector<int>{0, 3, 6, 9}));
}

TEST(Streams, PackOpTransformsAndFilters) {
  auto base = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                  std::size_t{0}};
  auto out = st::pack_op(base, 6, [](int x) -> std::optional<double> {
    if (x % 2 == 0) return x * 0.5;
    return std::nullopt;
  });
  EXPECT_EQ(std::vector<double>(out.begin(), out.end()),
            (std::vector<double>{0.0, 1.0, 2.0}));
}

TEST(Streams, DeepCompositionFusesCorrectly) {
  // map . scan . map . zip . tabulate, all in one nested type.
  auto t1 = st::tabulate_stream{[](std::size_t i) { return (int)i; },
                                std::size_t{0}};
  auto t2 = st::tabulate_stream{[](std::size_t i) { return (int)(i * i); },
                                std::size_t{0}};
  auto z = st::zip_stream{t1, t2};
  auto m1 = st::map_stream{z, [](const std::pair<int, int>& p) {
                             return p.first + p.second;
                           }};
  auto sc = st::scan_inclusive_stream{m1, [](int a, int b) { return a + b; },
                                      0};
  auto m2 = st::map_stream{sc, [](int x) { return x * 10; }};
  // inputs: i + i^2 = 0, 2, 6, 12; inclusive sums: 0, 2, 8, 20; x10.
  EXPECT_EQ(drain(m2, 4), (std::vector<int>{0, 20, 80, 200}));
}

TEST(Streams, ConstructionDoesNotEvaluate) {
  // Building a pipeline must not call the element function (O(1) cost,
  // Fig. 8's "these operations require only O(1) work").
  int calls = 0;
  auto t = st::tabulate_stream{[&calls](std::size_t i) {
                                 ++calls;
                                 return (int)i;
                               },
                               std::size_t{0}};
  auto m = st::map_stream{t, [](int x) { return x + 1; }};
  auto s = st::scan_stream{m, [](int a, int b) { return a + b; }, 0};
  EXPECT_EQ(calls, 0);
  (void)s.next();
  EXPECT_EQ(calls, 1);
}

TEST(Streams, MoveOnlyValuesFlowThroughPack) {
  auto base = st::tabulate_stream{
      [](std::size_t i) { return std::make_unique<int>((int)i); },
      std::size_t{0}};
  auto out =
      st::pack(base, 5, [](const std::unique_ptr<int>& p) { return *p > 2; });
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(*out[0], 3);
  EXPECT_EQ(*out[1], 4);
}

// --- pack scratch: re-entrancy and failure ----------------------------------
//
// Each thread packs filter blocks through one reusable scratch. A predicate
// that runs a parallel filter of its own packs inner blocks on the same
// thread while the outer block still holds that scratch, and at the inner
// joins the thread may run other outer blocks' packs. Every such inner
// call must get a scratch of its own.

namespace dl = pbds::delayed;
namespace sched = pbds::sched;

constexpr std::size_t kNestBlock = 32;
constexpr std::size_t kNestN = kNestBlock * 40 + 5;
constexpr std::size_t kInnerN = kNestBlock * 6;

std::int64_t nest_input(std::size_t i) {
  return static_cast<std::int64_t>((i * 7919) % 1000);
}

// The inner filter's survivor count for outer element x, and its
// sequential reference.
std::size_t inner_count(std::int64_t x) {
  auto inner = dl::filter(
      [x](std::size_t i) { return (i * static_cast<std::size_t>(x)) % 7 == 3; },
      dl::iota(kInnerN));
  return dl::length(inner);
}
std::size_t inner_count_reference(std::int64_t x) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < kInnerN; ++i)
    c += (i * static_cast<std::size_t>(x)) % 7 == 3 ? 1 : 0;
  return c;
}

struct nested_result {
  std::vector<std::int64_t> kept;    // filter: trivially copyable
  std::vector<std::string> labels;   // filter_op: constructed and destroyed
  bool operator==(const nested_result&) const = default;
};

std::optional<std::string> label(std::int64_t x, std::size_t c) {
  if (c % 3 == 0) return std::nullopt;
  return std::string(24, static_cast<char>('a' + c % 26)) + std::to_string(x);
}

nested_result nested_filter_run() {
  pbds::scoped_block_size blk(kNestBlock);
  auto in = pbds::parray<std::int64_t>::tabulate(kNestN, nest_input);
  auto kept = dl::to_array(dl::filter(
      [](std::int64_t x) { return inner_count(x) % 2 == 0; }, dl::view(in)));
  auto labels = dl::to_array(dl::filter_op(
      [](std::int64_t x) { return label(x, inner_count(x)); }, dl::view(in)));
  return {{kept.begin(), kept.end()}, {labels.begin(), labels.end()}};
}

nested_result nested_filter_reference() {
  nested_result r;
  for (std::size_t i = 0; i < kNestN; ++i) {
    std::int64_t x = nest_input(i);
    std::size_t c = inner_count_reference(x);
    if (c % 2 == 0) r.kept.push_back(x);
    if (auto l = label(x, c)) r.labels.push_back(*l);
  }
  return r;
}

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

TEST(PackScratch, NestedFilterInPredicateIsScheduleIndependent) {
  const nested_result want = nested_filter_reference();
  ASSERT_FALSE(want.kept.empty());
  ASSERT_FALSE(want.labels.empty());
  nested_result seq;
  {
    sched::scoped_sequential g;
    seq = nested_filter_run();
  }
  EXPECT_TRUE(seq == want);
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE(::testing::Message() << "det seed=" << seed);
    sched::scoped_deterministic g(seed, 4);
    EXPECT_TRUE(nested_filter_run() == seq);
  }
  scoped_pool_size pool(4);
  for (int rep = 0; rep < 4; ++rep) {
    SCOPED_TRACE(::testing::Message() << "real pool, repetition " << rep);
    EXPECT_TRUE(nested_filter_run() == seq);
  }
}

// An element type whose live instances are counted, so a survivor left
// undestroyed in the scratch (or destroyed twice) shows up.
std::atomic<std::int64_t> g_live_counted{0};

struct counted {
  std::int64_t v = 0;
  counted() { g_live_counted.fetch_add(1); }
  explicit counted(std::int64_t x) : v(x) { g_live_counted.fetch_add(1); }
  counted(const counted& o) : v(o.v) { g_live_counted.fetch_add(1); }
  counted(counted&& o) noexcept : v(o.v) { g_live_counted.fetch_add(1); }
  counted& operator=(const counted&) = default;
  ~counted() { g_live_counted.fetch_sub(1); }
};

struct predicate_failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

constexpr std::size_t kFailN = kNestBlock * 12 + 9;

bool keep_counted(const counted& c) { return c.v % 3 != 0; }

pbds::parray<counted> counted_input() {
  return pbds::parray<counted>::tabulate(
      kFailN, [](std::size_t i) { return counted(static_cast<std::int64_t>(i)); });
}

// After a failed filter, the calling thread's scratch is free and a filter
// over the same input packs the right survivors.
void expect_scratch_usable(const pbds::parray<counted>& in) {
  EXPECT_FALSE(pbds::stream::detail::thread_pack_scratch().in_use);
  auto out = dl::to_array(dl::filter(keep_counted, dl::view(in)));
  std::size_t k = 0;
  for (std::size_t i = 0; i < kFailN; ++i) {
    if (i % 3 == 0) continue;
    ASSERT_LT(k, out.size());
    EXPECT_EQ(out[k].v, static_cast<std::int64_t>(i));
    ++k;
  }
  EXPECT_EQ(k, out.size());
  EXPECT_FALSE(pbds::stream::detail::thread_pack_scratch().in_use);
}

TEST(PackScratch, ThrowingPredicateLeavesScratchUsable) {
  pbds::scoped_block_size blk(kNestBlock);
  auto in = counted_input();
  const std::int64_t live0 = pbds::memory::bytes_live();
  const std::int64_t objects0 = g_live_counted.load();
  // Mid-block: block 5 has already constructed survivors when it throws.
  auto throwing = [](const counted& c) {
    if (c.v == static_cast<std::int64_t>(5 * kNestBlock + 7))
      throw predicate_failure("predicate failed");
    return keep_counted(c);
  };
  {
    sched::scoped_sequential g;
    EXPECT_THROW((void)dl::filter(throwing, dl::view(in)), predicate_failure);
    EXPECT_EQ(pbds::memory::bytes_live(), live0);
    EXPECT_EQ(g_live_counted.load(), objects0);
    expect_scratch_usable(in);
  }
  {
    scoped_pool_size pool(4);
    EXPECT_THROW((void)dl::filter(throwing, dl::view(in)), predicate_failure);
    EXPECT_EQ(pbds::memory::bytes_live(), live0);
    EXPECT_EQ(g_live_counted.load(), objects0);
    expect_scratch_usable(in);
  }
  EXPECT_EQ(pbds::memory::bytes_live(), live0);
  EXPECT_EQ(g_live_counted.load(), objects0);
}

TEST(PackScratch, FaultAtExactSizeAllocationLeavesScratchUsable) {
  pbds::scoped_block_size blk(kNestBlock);
  sched::scoped_sequential g;
  auto in = counted_input();
  const std::int64_t live0 = pbds::memory::bytes_live();
  const std::int64_t objects0 = g_live_counted.load();
  std::int64_t total;
  {
    pbds::memory::space_meter m;
    (void)dl::filter(keep_counted, dl::view(in));
    total = m.alloc_count();
  }
  // The piece table, then one exact-size buffer per block, then offsets:
  // failing each allocation in turn hits every block's pack buffer.
  ASSERT_GT(total, static_cast<std::int64_t>(kFailN / kNestBlock));
  for (std::int64_t nth = 0; nth < total; ++nth) {
    SCOPED_TRACE(::testing::Message() << "fail_nth(" << nth << ")");
    {
      auto faults = pbds::memory::scoped_alloc_faults::fail_nth(nth);
      EXPECT_THROW((void)dl::filter(keep_counted, dl::view(in)),
                   std::bad_alloc);
      EXPECT_EQ(faults.injected(), 1);
    }
    EXPECT_EQ(pbds::memory::bytes_live(), live0);
    EXPECT_EQ(g_live_counted.load(), objects0);
    expect_scratch_usable(in);
  }
}

}  // namespace

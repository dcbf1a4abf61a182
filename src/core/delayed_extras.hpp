// Extended operations on block-delayed sequences.
//
// These are the conveniences a ParlayLib-style release ships alongside the
// Fig. 1 core: all are built *on top of* the core ops (so their cost
// follows from the Fig. 11 semantics by composition) or follow the same
// blocked structure (parallel across blocks, sequential streams within).
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>

#include "core/delayed.hpp"
#include "text/text.hpp"

namespace pbds::delayed {

// map then flatten: for each element, an inner sequence; concatenation of
// all of them. The inner sequences must be random-access (RADs); BID
// inners are forced by flatten.
template <typename F, typename Seq>
[[nodiscard]] auto flat_map(F f, const Seq& s) {
  return flatten(map(std::move(f), as_seq(s)));
}

// Split a sequence of pairs into two sequences (both delayed views of the
// same source — each O(1); consuming both evaluates the source twice,
// which the cost semantics makes visible; force first if that matters).
template <typename Seq>
[[nodiscard]] auto unzip(const Seq& s) {
  auto inner = as_seq(s);
  auto firsts = map([](const auto& p) { return p.first; }, inner);
  auto seconds = map([](const auto& p) { return p.second; }, inner);
  return std::pair(std::move(firsts), std::move(seconds));
}

// Indices where the predicate holds (parlay's pack_index): a filter over
// iota, so the index sequence is never materialized and the survivors
// stay packed per block.
template <typename P>
[[nodiscard]] auto pack_index(std::size_t n, P p) {
  return filter(std::move(p), iota(n));
}

// Alias for filter_op under its Haskell/SML names (Fig. 1's footnote).
template <typename F, typename Seq>
[[nodiscard]] auto map_maybe(F f, const Seq& s) {
  return filter_op(std::move(f), as_seq(s));
}

// Index of the first element satisfying p, or nullopt. Blocks are examined
// IN ORDER, each by a sequential stream scan, so the traversal stops at
// the first satisfying block boundary — an early exit with O(B) overshoot,
// without violating the purity requirements on block functions. (A fully
// parallel variant would speculate on all blocks; sequential-over-blocks
// is the right default when matches are expected early.)
template <typename P, typename Seq>
[[nodiscard]] std::optional<std::size_t> find_if(const P& p, const Seq& s) {
  auto bd = bid_of(as_seq(s));
  std::size_t nb = bd.num_blocks();
  for (std::size_t j = 0; j < nb; ++j) {
    auto st = bd.block(j);
    std::size_t len = bd.block_length(j);
    for (std::size_t k = 0; k < len; ++k) {
      if (p(st.next())) return j * bd.block_size + k;
    }
  }
  return std::nullopt;
}

// First index whose element equals x.
template <typename Seq, typename T>
[[nodiscard]] std::optional<std::size_t> index_of(const Seq& s, const T& x) {
  return find_if([&x](const auto& y) { return y == x; }, s);
}

// Element-wise equality of two sequences.
template <typename S1, typename S2>
[[nodiscard]] bool equal(const S1& a, const S2& b) {
  auto sa = as_seq(a);
  auto sb = as_seq(b);
  if (sa.size() != sb.size()) return false;
  return all_of([](const auto& p) { return p.first == p.second; },
                zip(sa, sb));
}

// Tokens as a library operation (parlay's `tokens`): the (start, length)
// pairs of the maximal runs where `keep` holds. Built from two fused
// pack_index filters zipped blockwise — no index array materializes.
template <typename Keep>
[[nodiscard]] auto tokens(const parray<char>& text, Keep keep) {
  std::size_t n = text.size();
  const char* s = text.data();
  auto starts = pack_index(n, [s, keep](std::size_t i) {
    return keep(s[i]) && (i == 0 || !keep(s[i - 1]));
  });
  auto ends = filter(
      [s, n, keep](std::size_t j) {
        return keep(s[j - 1]) && (j == n || !keep(s[j]));
      },
      tabulate(n, [](std::size_t i) { return i + 1; }));
  return map(
      [](const std::pair<std::size_t, std::size_t>& se) {
        return std::pair<std::size_t, std::size_t>(se.first,
                                                   se.second - se.first);
      },
      zip(starts, ends));
}

[[nodiscard]] inline auto tokens(const parray<char>& text) {
  return tokens(text, [](char c) { return !text::is_space(c); });
}

// Histogram into `buckets` counters: counts[key(x)]++ over the sequence,
// fused traversal, relaxed atomics (keys from different blocks collide).
// Not sched::worker_local: `buckets` is unbounded, so per-worker copies
// would cost num_slots() × buckets counters.
template <typename Seq, typename KeyFn>
[[nodiscard]] parray<std::size_t> histogram(const Seq& s, std::size_t buckets,
                                            const KeyFn& key) {
  auto counts = parray<std::atomic<std::size_t>>::tabulate(
      buckets, [](std::size_t) { return 0; });
  apply_each(as_seq(s), [&](const auto& x) {
    counts[key(x)].fetch_add(1, std::memory_order_relaxed);
  });
  return parray<std::size_t>::tabulate(buckets, [&](std::size_t b) {
    return counts[b].load(std::memory_order_relaxed);
  });
}

}  // namespace pbds::delayed

// inverted-index — building an inverted index, one of the workloads the
// paper reports improving inside PBBS with block-delayed sequences (§1:
// "applied to improve ... inverted indices").
//
// Each newline-terminated line of the corpus is a document. The kernel:
//   1. computes each position's document id with an inclusive scan of the
//      newline indicator (BID),
//   2. zips the ids with positions and filterOps the word starts into
//      (first-letter bucket, document id) postings — the flattened
//      postings stream is never materialized,
//   3. accumulates per-bucket posting counts and checksums via an
//      effectful fused traversal, each worker into its own
//      sched::worker_local copy of the index, and sums the copies after
//      the join.
//
// The whole thing is scan -> zip -> filterOp -> apply, i.e. every fusion
// feature at once on a realistic text-indexing workload.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>

#include "array/parray.hpp"
#include "sched/parallel.hpp"
#include "text/text.hpp"

namespace pbds::bench {

struct index_bucket {
  std::uint64_t postings = 0;  // number of (word, doc) postings
  std::uint64_t doc_hash = 0;  // order-independent checksum of doc ids
  friend bool operator==(const index_bucket&, const index_bucket&) = default;
};

using inverted_index = std::array<index_bucket, 26>;

template <typename P>
inverted_index build_index(const parray<char>& corpus) {
  std::size_t n = corpus.size();
  const char* s = corpus.data();
  // Document id of position i = number of newlines at positions < i, which
  // is the EXCLUSIVE scan of the newline indicator.
  auto is_nl = P::map(
      [s](std::size_t i) -> std::uint32_t { return s[i] == '\n' ? 1 : 0; },
      P::iota(n));
  auto [docids, num_docs] = P::scan(
      [](std::uint32_t a, std::uint32_t b) { return a + b; },
      std::uint32_t{0}, is_nl);
  (void)num_docs;
  // (bucket, doc) postings at word starts.
  auto postings = P::filter_op(
      [s, n](const std::pair<std::size_t, std::uint32_t>& pos_doc)
          -> std::optional<std::pair<std::uint8_t, std::uint32_t>> {
        std::size_t i = pos_doc.first;
        char c = s[i];
        bool start = !text::is_space(c) &&
                     (i == 0 || text::is_space(s[i - 1]));
        if (!start || c < 'a' || c > 'z') return std::nullopt;
        return std::pair<std::uint8_t, std::uint32_t>(
            static_cast<std::uint8_t>(c - 'a'), pos_doc.second);
      },
      P::zip(P::iota(n), docids));
  // Accumulate the index. Fused traversal; each worker adds into its own
  // slot with plain +=, and the slots are summed after the join. Wrapping
  // uint64 addition is commutative, so the result is independent of
  // traversal order and of which worker ran which block.
  sched::worker_local<inverted_index> acc;
  P::apply_each(postings,
                [&](const std::pair<std::uint8_t, std::uint32_t>& bd) {
                  index_bucket& b = acc.local()[bd.first];
                  b.postings += 1;
                  b.doc_hash += (bd.second + 1) * 0x9e3779b97f4a7c15ull;
                });
  return acc.combine(inverted_index{},
                     [](inverted_index sum, const inverted_index& part) {
                       for (std::size_t b = 0; b < sum.size(); ++b) {
                         sum[b].postings += part[b].postings;
                         sum[b].doc_hash += part[b].doc_hash;
                       }
                       return sum;
                     });
}

inline inverted_index index_reference(const parray<char>& corpus) {
  inverted_index out{};
  std::size_t n = corpus.size();
  std::uint32_t doc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    char c = corpus[i];
    bool start = !text::is_space(c) &&
                 (i == 0 || text::is_space(corpus[i - 1]));
    if (start && c >= 'a' && c <= 'z') {
      auto b = static_cast<std::size_t>(c - 'a');
      out[b].postings += 1;
      out[b].doc_hash += (doc + 1) * 0x9e3779b97f4a7c15ull;
    }
    if (c == '\n') ++doc;
  }
  return out;
}

}  // namespace pbds::bench

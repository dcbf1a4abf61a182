// bid-fusion: the delay impl of the kernels whose pipelines use BID
// operations (filter, flatten, scan) — see perfbench/README.md.
#include "workloads.hpp"

namespace perfbench {

void make_bid_fusion(workload& w, std::uint64_t seed, const sizes& sz) {
  using pbds::delay_policy;
  namespace text = pbds::text;
  namespace geom = pbds::geom;
  inputs& in = *w.in;
  auto s = [seed](std::uint64_t k) { return derive_seed(seed, k); };
  auto& ks = w.kernels;

  w.impl = "delay";
  in.primes_n = static_cast<std::int64_t>(sz.n(4'000'000) + s(0) % 1024);
  in.words = text::random_words(sz.n(16'000'000), 7.0, s(1));
  in.index_lines = text::random_lines(sz.n(16'000'000), 60.0, 8.0, s(2));
  in.linrec = bench::linearrec_input(sz.n(8'000'000), s(3));
  in.big_a = pbds::bignum::random_bignum(sz.n(8'000'000), s(4));
  in.big_b = pbds::bignum::random_bignum(sz.n(8'000'000), s(5));
  in.grep_lines = text::random_lines(sz.n(16'000'000), 30.0, 8.0, s(6));
  in.disk = geom::points_in_disk(sz.n(1'000'000), s(7));
  in.graph = pbds::graph::rmat(sz.scale < 1 ? 10 : 18,
                               sz.n(3'000'000), s(8));
  in.events = bench::bestcut_input(sz.n(4'000'000), s(9));

  ks.push_back(primes_kernel<delay_policy>(in));
  ks.push_back(tokens_kernel<delay_policy>(in));
  ks.push_back(make_kernel<delay_policy>(
      "inv-index", bytes_of(in.index_lines), true,
      [&in]<typename P>() { return bench::build_index<P>(in.index_lines); },
      kIdentity, [&in] { return bench::index_reference(in.index_lines); },
      kEqual));
  ks.push_back(linearrec_kernel<delay_policy>(in));
  ks.push_back(make_kernel<delay_policy>(
      "bignum-add", bytes_of(in.big_a) + bytes_of(in.big_b), true,
      [&in]<typename P>() { return bench::bignum_add<P>(in.big_a, in.big_b); },
      kIdentity,
      [&in] { return pbds::bignum::reference_add(in.big_a, in.big_b); },
      [](const bench::bignum_sum& got, const parray<std::uint8_t>& want) {
        std::size_t n = got.digits.size();
        return want.size() == n + 1 && want[n] == got.carry_out &&
               std::memcmp(got.digits.data(), want.data(), n) == 0;
      }));
  ks.push_back(make_kernel<delay_policy>(
      "grep", bytes_of(in.grep_lines), true,
      [&in]<typename P>() { return bench::grep<P>(in.grep_lines, "ab"); },
      kIdentity,
      [&in] { return bench::grep_reference(in.grep_lines, "ab"); },
      kEqual));
  ks.push_back(make_kernel<delay_policy>(
      "quickhull", bytes_of(in.disk), true,
      [&in]<typename P>() { return bench::quickhull<P>(in.disk); },
      kIdentity, [&in] { return bench::quickhull_reference(in.disk); },
      kEqual));
  ks.push_back(make_kernel<delay_policy>(
      "bfs",
      (in.graph.num_vertices() + 1) * sizeof(std::uint64_t) +
          in.graph.num_edges() * sizeof(pbds::graph::vertex),
      true, [&in]<typename P>() { return bench::bfs<P>(in.graph, 0); },
      [](const auto& parents) { return bfs_levels(parents, 0); },
      [&in] { return pbds::graph::reference_distances(in.graph, 0); },
      kEqual));
  ks.push_back(make_kernel<delay_policy>(
      "bestcut", bytes_of(in.events), true,
      [&in]<typename P>() { return bench::bestcut<P>(in.events); },
      kIdentity, [&in] { return bench::bestcut_reference(in.events); },
      near));
}

}  // namespace perfbench

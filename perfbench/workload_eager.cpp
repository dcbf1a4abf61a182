// eager-arrays: the array impl, which materialises every intermediate —
// see perfbench/README.md.
#include "workloads.hpp"

namespace perfbench {

void make_eager_arrays(workload& w, std::uint64_t seed, const sizes& sz) {
  using pbds::array_policy;
  namespace text = pbds::text;
  inputs& in = *w.in;
  auto s = [seed](std::uint64_t k) { return derive_seed(seed, k); };
  auto& ks = w.kernels;

  w.impl = "array";
  in.mcss_values = bench::mcss_input(sz.n(16'000'000), s(0));
  in.fit_points = bench::linefit_input(sz.n(8'000'000), s(1));
  in.wc_lines = text::random_lines(sz.n(16'000'000), 30.0, 8.0, s(2));
  in.primes_n = static_cast<std::int64_t>(sz.n(4'000'000) + s(3) % 1024);
  in.words = text::random_words(sz.n(16'000'000), 7.0, s(4));
  in.linrec = bench::linearrec_input(sz.n(8'000'000), s(5));

  ks.push_back(mcss_kernel<array_policy>(in));
  ks.push_back(linefit_kernel<array_policy>(in));
  ks.push_back(wc_kernel<array_policy>(in));
  ks.push_back(primes_kernel<array_policy>(in));
  ks.push_back(tokens_kernel<array_policy>(in));
  ks.push_back(linearrec_kernel<array_policy>(in));
}

}  // namespace perfbench

// rad-fusion: the delay impl of map/zip/reduce-only kernels, where RAD
// fusion alone applies — see perfbench/README.md.
#include "workloads.hpp"

namespace perfbench {

void make_rad_fusion(workload& w, std::uint64_t seed, const sizes& sz) {
  using pbds::delay_policy;
  namespace text = pbds::text;
  namespace geom = pbds::geom;
  inputs& in = *w.in;
  auto s = [seed](std::uint64_t k) { return derive_seed(seed, k); };
  auto& ks = w.kernels;

  w.impl = "delay";
  in.integrate_n = sz.n(16'000'000);
  in.integrate_hi = 1000.0 + static_cast<double>(s(0) % 1000);
  in.fit_points = bench::linefit_input(sz.n(8'000'000), s(1));
  in.mcss_values = bench::mcss_input(sz.n(16'000'000), s(2));
  in.wc_lines = text::random_lines(sz.n(16'000'000), 30.0, 8.0, s(3));
  std::size_t rows = sz.n(8'000'000) / 100 + 1;
  in.matrix = bench::spmv_input(rows, 100, s(4));
  in.vector = bench::spmv_vector(rows, s(5));
  in.tris = geom::random_triangles(sz.n(256, 16), s(6));
  in.rays = geom::random_rays(sz.n(16'384, 16), s(7));

  // integrate has no reference loop, only a closed form; the tests'
  // tolerance against it applies.
  ks.push_back(make_kernel<delay_policy>(
      "integrate", 0, false,
      [&in]<typename P>() {
        return bench::integrate<P>(in.integrate_n, 1.0, in.integrate_hi);
      },
      kIdentity,
      [&in] { return bench::integrate_exact(1.0, in.integrate_hi); },
      [](double got, double exact) {
        return std::fabs(got - exact) <= 1e-3 * exact;
      }));
  ks.push_back(linefit_kernel<delay_policy>(in));
  ks.push_back(mcss_kernel<delay_policy>(in));
  ks.push_back(wc_kernel<delay_policy>(in));
  ks.push_back(make_kernel<delay_policy>(
      "sparse-mxv",
      bytes_of(in.matrix.offsets) + bytes_of(in.matrix.cols) +
          bytes_of(in.matrix.vals) + bytes_of(in.vector),
      true,
      [&in]<typename P>() { return bench::spmv<P>(in.matrix, in.vector); },
      kIdentity,
      [&in] { return bench::spmv_reference(in.matrix, in.vector); },
      [](const parray<double>& got, const std::vector<double>& want) {
        return all_near(got, want);
      }));
  ks.push_back(make_kernel<delay_policy>(
      "raycast", bytes_of(in.tris) + bytes_of(in.rays), true,
      [&in]<typename P>() { return bench::raycast<P>(in.rays, in.tris); },
      kIdentity, [&in] { return bench::raycast_reference(in.rays, in.tris); },
      [](const parray<double>& got, const std::vector<double>& want) {
        return all_near(got, want);
      }));
}

}  // namespace perfbench

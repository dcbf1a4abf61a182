// The benchmark's workloads: inputs generated from the seed, and the
// kernels of src/benchmarks/ each workload times, with the checks that
// decide whether a timed run's output is correct. perfbench/README.md
// records why each workload holds the kernels it does.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common/harness.hpp"
#include "benchmarks/bestcut.hpp"
#include "benchmarks/bfs.hpp"
#include "benchmarks/bignum_add.hpp"
#include "benchmarks/grep.hpp"
#include "benchmarks/integrate.hpp"
#include "benchmarks/inverted_index.hpp"
#include "benchmarks/linearrec.hpp"
#include "benchmarks/linefit.hpp"
#include "benchmarks/mcss.hpp"
#include "benchmarks/policies.hpp"
#include "benchmarks/primes.hpp"
#include "benchmarks/quickhull.hpp"
#include "benchmarks/raycast.hpp"
#include "benchmarks/spmv.hpp"
#include "benchmarks/tokens.hpp"
#include "benchmarks/wc.hpp"
#include "geom/geom3d.hpp"
#include "graph/graph.hpp"
#include "span_trace.hpp"
#include "text/text.hpp"

namespace perfbench {

namespace bench = pbds::bench;
using pbds::parray;

// --- output comparison ----------------------------------------------------------

// Bit-exact equality: every impl at every P must produce identical bits.
template <typename T>
bool same(const T& a, const T& b) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::memcmp(&a, &b, sizeof(T)) == 0;
  } else {
    return a == b;
  }
}
template <typename T>
bool same(const parray<T>& a, const parray<T>& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}
inline bool same(const bench::line& a, const bench::line& b) {
  return same(a.slope, b.slope) && same(a.intercept, b.intercept);
}
inline bool same(const bench::bignum_sum& a, const bench::bignum_sum& b) {
  return same(a.digits, b.digits) && a.carry_out == b.carry_out;
}

// Tolerance for comparing against the sequential *_reference loops, which
// associate floating-point sums differently from the blocked libraries.
inline bool near(double got, double want) {
  if (got == want) return true;
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}
template <typename A, typename B>
bool all_near(const A& got, const B& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!near(got[i], want[i])) return false;
  return true;
}

// The level of every vertex implied by a BFS parent array (-1 when
// unreached). Which parent wins a CAS race depends on the schedule, but
// the levels do not, so they are what runs are compared on.
inline std::vector<std::int64_t> bfs_levels(
    const parray<std::atomic<pbds::graph::vertex>>& parent,
    pbds::graph::vertex source) {
  using pbds::graph::kNoVertex;
  constexpr std::int64_t kUnknown = -2;
  std::size_t n = parent.size();
  std::vector<std::int64_t> level(n, kUnknown);
  level[source] = 0;
  std::vector<std::size_t> path;
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t u = v;
    path.clear();
    while (level[u] == kUnknown) {
      auto p = parent[u].load(std::memory_order_relaxed);
      if (p == kNoVertex) {
        level[u] = -1;
        break;
      }
      path.push_back(u);
      if (path.size() > n || p >= n) return {};  // a cycle: not a BFS tree
      u = p;
    }
    std::int64_t l = level[u];
    while (!path.empty()) {
      if (l >= 0) ++l;
      level[path.back()] = l;
      path.pop_back();
    }
  }
  return level;
}

// Derived seeds, one per generated input.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + k + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- kernels ------------------------------------------------------------------

// One kernel of a workload. `run` executes the timed impl, `run_traced`
// the same kernel through traced_policy; `check` compares the output of
// the last run with the expected one and releases it.
class kernel {
 public:
  virtual ~kernel() = default;
  kernel(std::string name, std::size_t input_bytes)
      : name_(std::move(name)),
        span_name_("kernel." + name_),
        input_bytes_(input_bytes) {}
  kernel(const kernel&) = delete;
  kernel& operator=(const kernel&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const char* span_name() const { return span_name_.c_str(); }
  [[nodiscard]] std::size_t input_bytes() const { return input_bytes_; }
  [[nodiscard]] virtual bool has_reference_loop() const = 0;

  // Computes the expected output (array impl; the caller runs this with
  // one worker) and checks it against the kernel's reference. `corrupt`
  // damages the stored expected output, for the benchmark's self-test.
  virtual void prepare(bool corrupt) = 0;
  virtual void run() = 0;
  virtual void run_traced() = 0;
  [[nodiscard]] virtual bool check() = 0;
  // Runs the sequential reference loop once (for seq.ratio_p1).
  virtual void run_reference() = 0;

 private:
  std::string name_, span_name_;
  std::size_t input_bytes_;
};

template <typename T>
void corrupt_value(T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    v = std::nextafter(v, std::numeric_limits<T>::infinity());
  } else if constexpr (std::is_integral_v<T>) {
    v += 1;
  } else if constexpr (requires { v.data(); v.size(); }) {
    if (v.size() == 0) throw std::logic_error("nothing to corrupt");
    corrupt_value(v.data()[0]);
  } else {
    throw std::logic_error("expected output of this kernel not corruptible");
  }
}

// Impl is the policy timed; Fn is a lambda template<P>() -> R running the
// kernel under policy P; Canon maps R to the form compared bit-exactly;
// RefFn runs the sequential reference; RefOk(expected, reference) accepts
// or rejects the array impl's output against it.
template <typename Impl, typename Fn, typename Canon, typename RefFn,
          typename RefOk>
class kernel_impl final : public kernel {
  using result_t = decltype(std::declval<Fn&>().template operator()<Impl>());
  using canon_t = std::decay_t<decltype(std::declval<Canon&>()(
      std::declval<result_t>()))>;

 public:
  kernel_impl(std::string name, std::size_t input_bytes, bool ref_loop,
              Fn fn, Canon canon, RefFn ref, RefOk ref_ok)
      : kernel(std::move(name), input_bytes),
        ref_loop_(ref_loop),
        fn_(std::move(fn)),
        canon_(std::move(canon)),
        ref_(std::move(ref)),
        ref_ok_(std::move(ref_ok)) {}

  [[nodiscard]] bool has_reference_loop() const override { return ref_loop_; }

  void prepare(bool corrupt) override {
    expected_.emplace(
        canon_(fn_.template operator()<pbds::array_policy>()));
    expected_ok_ = ref_ok_(*expected_, ref_());
    if (corrupt) corrupt_value(*expected_);
  }
  void run() override { last_.emplace(fn_.template operator()<Impl>()); }
  void run_traced() override {
    last_.emplace(fn_.template operator()<traced_policy<Impl>>());
  }
  bool check() override {
    if (!last_) return false;
    bool ok = expected_ok_ && same(canon_(std::move(*last_)), *expected_);
    last_.reset();
    return ok;
  }
  void run_reference() override {
    pbds::bench_common::do_not_optimize(ref_());
  }

 private:
  bool ref_loop_;
  Fn fn_;
  Canon canon_;
  RefFn ref_;
  RefOk ref_ok_;
  std::optional<canon_t> expected_;
  bool expected_ok_ = false;
  std::optional<result_t> last_;
};

template <typename Impl, typename Fn, typename Canon, typename RefFn,
          typename RefOk>
std::unique_ptr<kernel> make_kernel(std::string name, std::size_t in_bytes,
                                    bool ref_loop, Fn fn, Canon canon,
                                    RefFn ref, RefOk ok) {
  return std::make_unique<kernel_impl<Impl, Fn, Canon, RefFn, RefOk>>(
      std::move(name), in_bytes, ref_loop, std::move(fn), std::move(canon),
      std::move(ref), std::move(ok));
}

inline constexpr auto kIdentity = [](auto&& r) {
  return std::decay_t<decltype(r)>(std::move(r));
};
inline constexpr auto kEqual = [](const auto& got, const auto& want) {
  return got == want;
};

template <typename T>
std::size_t bytes_of(const parray<T>& a) {
  return a.size() * sizeof(T);
}

// --- inputs -------------------------------------------------------------------

// Sizes match pbdsbench's defaults, except raycast: 20k rays against 2k
// triangles take ~1 s at P=1, longer than a whole round. 16k rays against
// 256 triangles keep eight blocks of rays to spread over the workers in a
// tenth of that. `scale` shrinks every size for the self-test.
struct sizes {
  double scale = 1.0;
  [[nodiscard]] std::size_t n(std::size_t full, std::size_t floor = 64) const {
    return std::max(floor, static_cast<std::size_t>(full * scale));
  }
};

// Every input the three workloads use; a workload fills only its own.
struct inputs {
  std::int64_t primes_n = 0;
  std::size_t integrate_n = 0;
  double integrate_hi = 1000.0;
  parray<char> words, index_lines, grep_lines, wc_lines;
  parray<bench::affine> linrec;
  parray<pbds::bignum::digit> big_a, big_b;
  parray<pbds::geom::point2d> disk, fit_points;
  pbds::graph::csr_graph graph;
  parray<pbds::geom::axis_event> events;
  parray<std::int64_t> mcss_values;
  bench::csr_matrix matrix;
  parray<double> vector;
  parray<pbds::geom::triangle> tris;
  parray<pbds::geom::ray> rays;
};

struct workload {
  std::string name;
  std::string impl;  // the policy the timed runs use
  std::unique_ptr<inputs> in;
  std::vector<std::unique_ptr<kernel>> kernels;
};

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"bid-fusion", "rad-fusion",
                                                 "eager-arrays"};
  return names;
}

// Kernels shared by bid-fusion/rad-fusion (delay impl) and eager-arrays
// (array impl); Impl picks which.
template <typename Impl>
std::unique_ptr<kernel> primes_kernel(const inputs& in) {
  return make_kernel<Impl>(
      "primes", 0, true,
      [&in]<typename P>() { return bench::primes<P>(in.primes_n); },
      kIdentity,
      [&in] { return bench::reference_prime_count(in.primes_n); },
      [](const parray<std::int64_t>& got, std::size_t count) {
        return got.size() == count;
      });
}
template <typename Impl>
std::unique_ptr<kernel> tokens_kernel(const inputs& in) {
  return make_kernel<Impl>(
      "tokens", bytes_of(in.words), true,
      [&in]<typename P>() { return bench::tokens<P>(in.words); }, kIdentity,
      [&in] { return bench::tokens_reference(in.words); }, kEqual);
}
template <typename Impl>
std::unique_ptr<kernel> linearrec_kernel(const inputs& in) {
  return make_kernel<Impl>(
      "linearrec", bytes_of(in.linrec), true,
      [&in]<typename P>() { return bench::linearrec<P>(in.linrec); },
      kIdentity, [&in] { return bench::linearrec_reference(in.linrec); },
      [](const parray<double>& got, const std::vector<double>& want) {
        return all_near(got, want);
      });
}
template <typename Impl>
std::unique_ptr<kernel> mcss_kernel(const inputs& in) {
  return make_kernel<Impl>(
      "mcss", bytes_of(in.mcss_values), true,
      [&in]<typename P>() { return bench::mcss<P>(in.mcss_values); },
      kIdentity, [&in] { return bench::mcss_reference(in.mcss_values); },
      kEqual);
}
template <typename Impl>
std::unique_ptr<kernel> linefit_kernel(const inputs& in) {
  return make_kernel<Impl>(
      "linefit", bytes_of(in.fit_points), true,
      [&in]<typename P>() { return bench::linefit<P>(in.fit_points); },
      kIdentity, [&in] { return bench::linefit_reference(in.fit_points); },
      [](const bench::line& got, const bench::line& want) {
        return near(got.slope, want.slope) &&
               near(got.intercept, want.intercept);
      });
}
template <typename Impl>
std::unique_ptr<kernel> wc_kernel(const inputs& in) {
  return make_kernel<Impl>(
      "wc", bytes_of(in.wc_lines), true,
      [&in]<typename P>() { return bench::wc<P>(in.wc_lines); }, kIdentity,
      [&in] { return pbds::text::reference_wc(in.wc_lines); }, kEqual);
}

// Each workload's set-up function, in its own translation unit
// (workload_*.cpp) so the three compile in parallel: generates the inputs
// into w.in (the timed part of set-up) and binds the kernels; the caller
// runs prepare() on each kernel afterwards.
void make_bid_fusion(workload& w, std::uint64_t seed, const sizes& sz);
void make_rad_fusion(workload& w, std::uint64_t seed, const sizes& sz);
void make_eager_arrays(workload& w, std::uint64_t seed, const sizes& sz);

inline workload make_workload(const std::string& name, std::uint64_t seed,
                              const sizes& sz) {
  workload w;
  w.name = name;
  w.in = std::make_unique<inputs>();
  if (name == "bid-fusion") {
    make_bid_fusion(w, seed, sz);
  } else if (name == "rad-fusion") {
    make_rad_fusion(w, seed, sz);
  } else if (name == "eager-arrays") {
    make_eager_arrays(w, seed, sz);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// Every kernel name any workload times, for the per-kernel metrics.
inline const std::vector<std::string>& all_kernel_names() {
  static const std::vector<std::string> names = {
      "primes",  "tokens",    "inv-index", "linearrec", "bignum-add",
      "grep",    "quickhull", "bfs",       "bestcut",   "integrate",
      "linefit", "mcss",      "wc",        "sparse-mxv", "raycast"};
  return names;
}

}  // namespace perfbench

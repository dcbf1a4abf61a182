// perfbench — the repository benchmark's measuring program (run it through
// perfbench/run.py, which builds it first).
//
//   perfbench --workload bid-fusion|rad-fusion|eager-arrays --seed N
//             --seconds S --trace 0|1 [--commit TEXT] [--trace-file PATH]
//             [--scale F] [--corrupt-reference]
//
// A round is one pass over the workload's kernels at one pool size P.
// Untraced rounds alternate P=1 and P=nproc until the time is up; every
// kernel run is checked bit-exactly, outside its timed interval, against
// the array impl's output at P=1 (computed once at set-up), which is
// itself checked against the kernel's sequential reference. With --trace 1
// the untraced rounds get 60% of the time and traced rounds at P=1 the
// rest. The last line of stdout is the JSON result; the lines before it
// are the human-readable report with the machine stamp.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/block.hpp"
#include "machine.hpp"
#include "memory/tracking.hpp"
#include "sched/scheduler.hpp"
#include "span_trace.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  double scale = 1.0;
  bool corrupt_reference = false;
  std::string commit = "unknown";
  std::string trace_file = "perfbench-trace.json";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--commit TEXT] [--trace-file PATH] "
               "[--scale F] [--corrupt-reference]\n",
               msg.c_str());
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
        have_seconds = o.seconds > 0;
      } else if (a == "--trace") {
        std::string v = value();
        if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--scale") {
        o.scale = std::stod(value());
        if (!(o.scale > 0 && o.scale <= 1)) usage_error("--scale in (0, 1]");
      } else if (a == "--corrupt-reference") {
        o.corrupt_reference = true;
      } else if (a == "--commit") {
        o.commit = value();
      } else if (a == "--trace-file") {
        o.trace_file = value();
      } else {
        usage_error("unknown argument '" + a + "'");
      }
    } catch (const std::logic_error&) {
      usage_error("invalid value for " + a);
    }
  }
  if (!have_workload || !have_seed || !have_seconds)
    usage_error("--workload, --seed and --seconds (> 0) are required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end())
    usage_error("unknown workload '" + o.workload + "'");
  return o;
}

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest of p99/p95/p90/p75 with at least ten samples beyond it
// (nearest rank); the median when there are too few samples for any.
struct tail {
  int pct = 50;
  double value = 0;
};
tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  double n = static_cast<double>(v.size());
  for (int pct : {99, 95, 90, 75}) {
    double q = pct / 100.0;
    if (n * (1 - q) >= 10)
      return {pct, v[static_cast<std::size_t>(std::ceil(q * n)) - 1]};
  }
  return {50, median(v)};
}

// --- rounds -------------------------------------------------------------------

struct round_sample {
  double time_s = 0;  // sum of the kernels' timed intervals
  std::vector<double> kernel_s, kernel_peak_mb;
  double peak_mb = 0, alloc_mb = 0;
  double allocs = 0, minor_faults = 0, sys_s = 0, user_s = 0;
  double forks = 0, steals = 0, failed_steals = 0;
  std::map<std::string, span_totals> spans;  // traced rounds only
};

struct tally {
  long attempted = 0, failed = 0;
  std::map<std::string, long> failures;  // by kernel
};

unsigned g_current_p = 0;
void use_workers(unsigned p) {
  if (g_current_p == p) return;
  pbds::sched::set_num_workers(p);
  g_current_p = p;
}

// The vCPUs of a shared machine differ in speed, and a single-threaded
// run tends to stay on one of them for the whole run. So in a P=1 round
// each kernel call is pinned to the next allowed CPU, with the start
// shifted by one every round: every round spreads over all CPUs alike, and
// every kernel visits each of them. Pool threads inherit the creating
// thread's affinity, so the pin is lifted before a wider pool starts.
class cpu_rotation {
 public:
  cpu_rotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }
  void pin(std::size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void unpin() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};
cpu_rotation g_rotation;

constexpr double kMB = 1e6;

round_sample run_round(workload& w, unsigned p, bool traced, tally& t) {
  static std::size_t p1_rounds = 0;
  const std::size_t cpu_base = p == 1 ? p1_rounds++ : 0;
  if (p != 1) g_rotation.unpin();
  use_workers(p);
  namespace mem = pbds::memory;
  namespace tel = pbds::telemetry;
  round_sample r;
  auto& rec = span_recorder::get();
  rec.set_enabled(traced);
  pbds::sched::quiesce();
  usage u0 = read_usage();
  auto m0 = tel::snapshot();
  auto allocs0 = mem::num_allocs();
  {
    span_recorder::scope round_span("round");
    for (std::size_t i = 0; i < w.kernels.size(); ++i) {
      auto& k = w.kernels[i];
      if (p == 1) g_rotation.pin(cpu_base + i);
      pbds::sched::quiesce();
      mem::reset_peak();
      auto live0 = mem::bytes_live();
      auto total0 = mem::bytes_total();
      bool threw = false;
      std::int64_t t0 = now_ns();
      try {
        span_recorder::scope kernel_span(k->span_name());
        if (traced) {
          k->run_traced();
        } else {
          k->run();
        }
      } catch (const std::exception& e) {
        threw = true;
        std::fprintf(stderr, "perfbench: %s threw: %s\n", k->name().c_str(),
                     e.what());
      }
      double dt = (now_ns() - t0) * 1e-9;
      pbds::sched::quiesce();
      r.kernel_peak_mb.push_back(
          static_cast<double>(mem::bytes_peak() - live0) / kMB);
      r.peak_mb += r.kernel_peak_mb.back();
      r.alloc_mb += static_cast<double>(mem::bytes_total() - total0) / kMB;
      r.kernel_s.push_back(dt);
      r.time_s += dt;
      bool ok = k->check() && !threw;
      ++t.attempted;
      if (!ok) {
        ++t.failed;
        ++t.failures[k->name()];
      }
    }
  }
  usage u1 = read_usage();
  auto m1 = tel::snapshot();
  r.allocs = static_cast<double>(mem::num_allocs() - allocs0);
  r.minor_faults = static_cast<double>(u1.minor_faults - u0.minor_faults);
  r.sys_s = u1.sys_s - u0.sys_s;
  r.user_s = u1.user_s - u0.user_s;
  auto delta = [&](tel::counter c) {
    return static_cast<double>(m1.get(c) - m0.get(c));
  };
  r.forks = delta(tel::counter::forks);
  r.steals = delta(tel::counter::steals);
  r.failed_steals = delta(tel::counter::failed_steals);
  rec.set_enabled(false);
  if (traced) r.spans = rec.take_totals();
  return r;
}

template <typename F>
std::vector<double> field(const std::vector<round_sample>& rs, F f) {
  std::vector<double> v;
  v.reserve(rs.size());
  for (const auto& r : rs) v.push_back(f(r));
  return v;
}

// --- report -------------------------------------------------------------------

struct metric {
  std::string name, unit;
  double value;
};

void print_result(bool correct, const tally& t,
                  const std::vector<metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", t.attempted, t.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const options& o) {
  const unsigned nproc =
      std::max(1u, std::thread::hardware_concurrency());
  const std::string load_start = loadavg();
  const long long steal_start = steal_ticks();
  const sizes sz{o.scale};
  tally t;

  // Set-up: input generation plus pool start, three times; the median is
  // setup_s. Freeing the previous inputs is not timed.
  std::vector<double> setup_s;
  workload w;
  for (int i = 0; i < 3; ++i) {
    w.kernels.clear();
    w.in.reset();
    std::int64_t t0 = now_ns();
    pbds::sched::set_num_workers(nproc);
    g_current_p = nproc;
    w = make_workload(o.workload, o.seed, sz);
    setup_s.push_back((now_ns() - t0) * 1e-9);
  }

  // Expected outputs and reference checks, with one worker (not timed).
  use_workers(1);
  for (std::size_t i = 0; i < w.kernels.size(); ++i)
    w.kernels[i]->prepare(o.corrupt_reference && i == 0);
  std::vector<double> ref_s(w.kernels.size(), 0.0);
  if (o.trace) {
    for (std::size_t i = 0; i < w.kernels.size(); ++i) {
      if (!w.kernels[i]->has_reference_loop()) continue;
      std::vector<double> reps;
      for (int r = 0; r < 3; ++r) {
        std::int64_t t0 = now_ns();
        w.kernels[i]->run_reference();
        reps.push_back((now_ns() - t0) * 1e-9);
      }
      ref_s[i] = median(reps);
    }
  }

  // One warm-up round at each P, then the measured untraced rounds.
  run_round(w, 1, false, t);
  run_round(w, nproc, false, t);
  const bool rss_reset = reset_peak_rss();
  const std::int64_t start = now_ns();
  const double untraced_s = o.seconds * (o.trace ? 0.6 : 1.0);
  std::vector<round_sample> p1, pmax, traced;
  while ((now_ns() - start) * 1e-9 < untraced_s || p1.size() < 3) {
    p1.push_back(run_round(w, 1, false, t));
    pmax.push_back(run_round(w, nproc, false, t));
  }
  const double max_rss_mb = peak_rss_mb();
  if (o.trace) {
    while ((now_ns() - start) * 1e-9 < o.seconds || traced.size() < 3)
      traced.push_back(run_round(w, 1, true, t));
  }

  // Roofline probe: two buffers of 2x LLC each, so one copy touches 4x LLC.
  g_rotation.unpin();
  use_workers(nproc);
  const std::size_t llc = llc_kib() * 1024;
  const std::size_t probe_bytes =
      o.scale < 1 ? std::size_t{8} << 20
                  : std::max<std::size_t>(2 * llc, std::size_t{256} << 20);
  const double memcpy_bw = memcpy_gbps(probe_bytes, 5);

  // --- metrics ----------------------------------------------------------------
  const double time_p1 = median(field(p1, [](auto& r) { return r.time_s; }));
  const double time_pmax =
      median(field(pmax, [](auto& r) { return r.time_s; }));
  const tail p1_tail = tail_of(field(p1, [](auto& r) { return r.time_s; }));
  const tail pmax_tail =
      tail_of(field(pmax, [](auto& r) { return r.time_s; }));
  const double alloc_mb =
      median(field(p1, [](auto& r) { return r.alloc_mb; }));
  const double ok_frac =
      1.0 - static_cast<double>(t.failed) / static_cast<double>(t.attempted);

  std::vector<metric> e2e = {
      {"time_p1_s", "s", time_p1},
      {"time_pmax_s", "s", time_pmax},
      {"peak_mb", "MB", median(field(p1, [](auto& r) { return r.peak_mb; }))},
      {"alloc_mb", "MB", alloc_mb},
      {"max_rss_mb", "MB", max_rss_mb},
      {"setup_s", "s", median(setup_s)},
      {"ok_frac", "fraction", ok_frac},
  };

  std::vector<metric> layer;
  std::size_t input_bytes = 0;
  for (auto& k : w.kernels) input_bytes += k->input_bytes();
  if (o.trace) {
    const double gbps =
        (static_cast<double>(input_bytes) + 2 * alloc_mb * kMB) / time_pmax /
        1e9;
    layer = {
        {"sched.forks", "count",
         median(field(pmax, [](auto& r) { return r.forks; }))},
        {"sched.steals", "count",
         median(field(pmax, [](auto& r) { return r.steals; }))},
        {"sched.failed_steals", "count",
         median(field(pmax, [](auto& r) { return r.failed_steals; }))},
        {"sched.speedup", "x", time_p1 / time_pmax},
        {"sched.time_pmax_tail_s", "s", pmax_tail.value},
        {"memory.allocs", "count",
         median(field(p1, [](auto& r) { return r.allocs; }))},
        {"memory.minor_faults", "count",
         median(field(p1, [](auto& r) { return r.minor_faults; }))},
        {"memory.sys_s", "s",
         median(field(p1, [](auto& r) { return r.sys_s; }))},
        {"memory.gbps_computed", "GB/s", gbps},
        {"memory.memcpy_gbps", "GB/s", memcpy_bw},
        {"memory.roofline_frac", "fraction", gbps / memcpy_bw},
    };
    for (const char* layer_name : {"core", "array"}) {
      for (const char* op_name : kOpNames) {
        std::string span = std::string(layer_name) + "." + op_name;
        auto self = field(traced, [&](auto& r) {
          auto it = r.spans.find(span);
          return it == r.spans.end() ? 0.0 : it->second.self_s;
        });
        auto alloc = field(traced, [&](auto& r) {
          auto it = r.spans.find(span);
          return it == r.spans.end()
                     ? 0.0
                     : static_cast<double>(it->second.self_alloc_bytes) / kMB;
        });
        layer.push_back({span + ".self_s", "s", median(self)});
        layer.push_back({span + ".alloc_mb", "MB", median(alloc)});
      }
    }
    double lib_s = 0, ref_total = 0;
    for (std::size_t i = 0; i < w.kernels.size(); ++i) {
      if (!w.kernels[i]->has_reference_loop()) continue;
      lib_s += median(field(p1, [i](auto& r) { return r.kernel_s[i]; }));
      ref_total += ref_s[i];
    }
    layer.push_back({"seq.ratio_p1", "ratio", lib_s / ref_total});
    layer.push_back(
        {"trace.overhead", "ratio",
         median(field(traced, [](auto& r) { return r.time_s; })) / time_p1});
    for (const auto& name : all_kernel_names()) {
      double kp1 = 0, kpmax = 0;
      for (std::size_t i = 0; i < w.kernels.size(); ++i) {
        if (w.kernels[i]->name() != name) continue;
        kp1 = median(field(p1, [i](auto& r) { return r.kernel_s[i]; }));
        kpmax = median(field(pmax, [i](auto& r) { return r.kernel_s[i]; }));
      }
      layer.push_back({"kernel." + name + ".time_p1_s", "s", kp1});
      layer.push_back({"kernel." + name + ".time_pmax_s", "s", kpmax});
    }
    auto& rec = span_recorder::get();
    if (rec.write_chrome_trace(o.trace_file)) {
      std::printf("trace: %s (%zu spans, %zu dropped over the cap)\n",
                  o.trace_file.c_str(), rec.stored(), rec.dropped());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.trace_file.c_str());
      ++t.failed;
    }
  }

  // --- report -------------------------------------------------------------------
  std::printf("perfbench workload=%s impl=%s seed=%llu seconds=%g trace=%d "
              "scale=%g\n",
              o.workload.c_str(), w.impl.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.scale);
  std::printf("machine: nproc=%u cpu=\"%s\" llc=%zu KiB compiler=\"%s\" "
              "flags=\"%s\" block_size=%zu P=1,%u commit=%s\n",
              nproc, cpu_model().c_str(), llc / 1024, PERFBENCH_COMPILER,
              PERFBENCH_FLAGS, pbds::block_size(), nproc, o.commit.c_str());
  std::printf("run: loadavg start=%s end=%s steal_ticks=%lld "
              "memcpy=%.3f GB/s on 2 x %zu MiB buffers (LLC %zu MiB)\n",
              load_start.c_str(), loadavg().c_str(),
              steal_ticks() - steal_start, memcpy_bw, probe_bytes >> 20,
              llc >> 20);
  std::printf("rounds: P=1 %zu, P=%u %zu, traced P=1 %zu; input %.1f MB\n",
              p1.size(), nproc, pmax.size(), traced.size(),
              static_cast<double>(input_bytes) / kMB);
  std::printf("  time_p1_s   median %.6f s, p%d %.6f s over %zu rounds\n",
              time_p1, p1_tail.pct, p1_tail.value, p1.size());
  std::printf("  time_pmax_s median %.6f s, p%d %.6f s over %zu rounds\n",
              time_pmax, pmax_tail.pct, pmax_tail.value, pmax.size());
  for (const auto* rs : {&p1, &pmax}) {
    std::printf("  per round at P=%u (medians): minor_faults %.0f, "
                "sys %.4f s, user %.4f s, forks %.0f, steals %.0f, "
                "failed_steals %.0f, allocs %.0f\n",
                rs == &p1 ? 1 : nproc,
                median(field(*rs, [](auto& r) { return r.minor_faults; })),
                median(field(*rs, [](auto& r) { return r.sys_s; })),
                median(field(*rs, [](auto& r) { return r.user_s; })),
                median(field(*rs, [](auto& r) { return r.forks; })),
                median(field(*rs, [](auto& r) { return r.steals; })),
                median(field(*rs, [](auto& r) { return r.failed_steals; })),
                median(field(*rs, [](auto& r) { return r.allocs; })));
  }
  for (std::size_t i = 0; i < w.kernels.size(); ++i) {
    std::printf(
        "  kernel %-11s P=1 %.6f s  P=%u %.6f s  input %.1f MB  "
        "peak %.1f MB\n",
        w.kernels[i]->name().c_str(),
        median(field(p1, [i](auto& r) { return r.kernel_s[i]; })), nproc,
        median(field(pmax, [i](auto& r) { return r.kernel_s[i]; })),
        static_cast<double>(w.kernels[i]->input_bytes()) / kMB,
        median(field(p1, [i](auto& r) { return r.kernel_peak_mb[i]; })));
  }
  if (!rss_reset)
    std::printf("note: could not reset VmHWM; max_rss_mb includes set-up\n");
  for (const auto& [name, n] : t.failures)
    std::printf("FAILED: %s: %ld of its runs mismatched or threw\n",
                name.c_str(), n);
  for (const auto& m : o.trace ? layer : e2e)
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  const bool correct = t.failed == 0;
  print_result(correct, t, o.trace ? layer : e2e);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

// What the benchmark reads about the machine and the process: the report
// stamp (CPU, LLC, load, steal ticks), per-round resource usage, max RSS,
// and the memcpy bandwidth probe the roofline metric divides by.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sched/parallel.hpp"
#include "span_trace.hpp"

namespace perfbench {

inline std::string read_first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

inline std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Size in KiB of the highest-level cache cpu0 reports, 0 if unknown.
inline std::size_t llc_kib() {
  std::size_t best_level = 0, size = 0;
  for (int i = 0; i < 8; ++i) {
    std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    std::string level = read_first_line(dir + "/level");
    std::string sz = read_first_line(dir + "/size");
    if (level.empty() || sz.empty()) continue;
    std::size_t l = std::stoul(level);
    std::size_t kib = std::stoul(sz);  // "307200K"
    if (sz.back() == 'M') kib *= 1024;
    if (l >= best_level) best_level = l, size = kib;
  }
  return size;
}

// Steal ticks summed over all CPUs (8th value of /proc/stat's "cpu" line).
inline long long steal_ticks() {
  std::istringstream in(read_first_line("/proc/stat"));
  std::string cpu;
  long long v = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && (in >> v); ++i) steal = v;
  return steal;
}

inline std::string loadavg() {
  std::istringstream in(read_first_line("/proc/loadavg"));
  std::string a, b, c;
  in >> a >> b >> c;
  return a + "/" + b + "/" + c;
}

struct usage {
  double user_s = 0, sys_s = 0;
  long minor_faults = 0;
  long maxrss_kib = 0;
};

inline usage read_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return usage{secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_minflt,
               ru.ru_maxrss};
}

// The kernel's RSS high-water mark (VmHWM). getrusage's ru_maxrss cannot
// be reset, and set-up (which computes the array-impl expected outputs)
// would otherwise dominate it; writing "5" to clear_refs resets VmHWM.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}
inline double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return read_usage().maxrss_kib / 1024.0;
}

// Median GB/s of a parallel memcpy between two `bytes`-sized buffers, on
// the current pool. Bytes moved count the read and the write.
inline double memcpy_gbps(std::size_t bytes, int reps) {
  std::unique_ptr<char[]> src(new char[bytes]), dst(new char[bytes]);
  constexpr std::size_t kChunk = 1 << 20;
  std::size_t chunks = (bytes + kChunk - 1) / kChunk;
  auto each_chunk = [&](auto&& f) {
    pbds::parallel_for(
        0, chunks,
        [&](std::size_t c) {
          std::size_t lo = c * kChunk, len = std::min(kChunk, bytes - lo);
          f(lo, len);
        },
        1);
  };
  each_chunk([&](std::size_t lo, std::size_t len) {  // fault pages in
    std::memset(src.get() + lo, static_cast<int>(lo & 0x7f), len);
    std::memset(dst.get() + lo, 0, len);
  });
  std::vector<double> gbps;
  for (int r = 0; r < reps; ++r) {
    std::int64_t t0 = now_ns();
    each_chunk([&](std::size_t lo, std::size_t len) {
      std::memcpy(dst.get() + lo, src.get() + lo, len);
    });
    double s = (now_ns() - t0) * 1e-9;
    gbps.push_back(2.0 * static_cast<double>(bytes) / s / 1e9);
  }
  std::sort(gbps.begin(), gbps.end());
  return gbps[gbps.size() / 2];
}

}  // namespace perfbench

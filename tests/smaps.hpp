// /proc/self/smaps queries for the tests of huge-page-backed tracked
// buffers (src/memory/tracked_alloc.hpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

namespace pbds::testing {

// The transparent-huge-page mode line, e.g. "always [madvise] never";
// empty when the kernel does not expose it.
inline std::string thp_mode() {
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(thp, mode);
  return mode;
}

// True when MADV_HUGEPAGE can back a mapping with huge pages.
inline bool thp_available() {
  const std::string mode = thp_mode();
  return !mode.empty() && mode.find("[never]") == std::string::npos;
}

// Sums the AnonHugePages of the /proc/self/smaps mappings overlapping
// [lo, hi).
inline std::int64_t anon_huge_kb(std::uintptr_t lo, std::uintptr_t hi) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  std::int64_t kb = 0;
  while (std::getline(smaps, line)) {
    std::uintmax_t start = 0;
    std::uintmax_t end = 0;
    long long value = 0;
    if (std::sscanf(line.c_str(), "%jx-%jx ", &start, &end) == 2) {
      inside = start < hi && end > lo;
    } else if (inside &&
               std::sscanf(line.c_str(), "AnonHugePages: %lld kB", &value) ==
                   1) {
      kb += value;
    }
  }
  return kb;
}

}  // namespace pbds::testing

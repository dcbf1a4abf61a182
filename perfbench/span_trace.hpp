// Benchmark-side span tracing: a policy wrapper that times every call into
// a sequence library from the outside, plus the in-memory span recorder
// behind it. Nothing here reaches into src/ — spans sit around the calls
// the kernels make through their policy parameter P.
//
// A span records name, start, end, parent span and recording thread. When
// it closes, its self time (its duration minus the time its child spans on
// the same thread cover) and its self allocation (tracked bytes allocated
// while it was open, minus its children's) are added to per-name totals.
// The totals cover every span; only the first kMaxStoredSpans spans are
// kept for the Chrome-trace file, and the rest are counted as dropped.
//
// Allocation attribution reads the process-wide tracked-bytes counter, so
// it is exact only when the calling thread is the only one allocating —
// the benchmark therefore runs its traced rounds with one worker.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "array/parray.hpp"
#include "memory/tracking.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct span_totals {
  double self_s = 0;
  std::int64_t self_alloc_bytes = 0;
};

class span_recorder {
 public:
  static constexpr std::size_t kMaxStoredSpans = 100'000;

  static span_recorder& get() {
    static span_recorder r;
    return r;
  }

  // Spans open only while recording is on; `name` must outlive the
  // recorder (string literals or static tables).
  void set_enabled(bool on) { enabled_ = on; }

  // Per-name self totals since the last call, then cleared.
  std::map<std::string, span_totals> take_totals() {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, span_totals> out;
    for (const auto& [name, t] : totals_) {
      auto& o = out[name];
      o.self_s += t.self_s;
      o.self_alloc_bytes += t.self_alloc_bytes;
    }
    totals_.clear();
    return out;
  }

  // Writes the stored spans as Chrome-trace JSON ("X" complete events).
  bool write_chrome_trace(const std::string& path) const;

  [[nodiscard]] std::size_t stored() const { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  class scope {
   public:
    explicit scope(const char* name) {
      auto& r = get();
      if (!r.enabled_) return;
      active_ = true;
      auto& st = stack();
      frame f;
      f.name = name;
      f.id = r.next_id();
      f.parent = st.empty() ? -1 : st.back().id;
      f.alloc0 = pbds::memory::bytes_total();
      f.start = now_ns();
      st.push_back(f);
    }
    ~scope() {
      if (!active_) return;
      std::int64_t end = now_ns();
      auto& st = stack();
      frame f = st.back();
      st.pop_back();
      std::int64_t dur = end - f.start;
      std::int64_t alloc = pbds::memory::bytes_total() - f.alloc0;
      if (!st.empty()) {
        st.back().child_ns += dur;
        st.back().child_alloc += alloc;
      }
      get().close(f, end, alloc);
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    bool active_ = false;
  };

 private:
  struct frame {
    const char* name = nullptr;
    std::int64_t id = 0, parent = -1;
    std::int64_t start = 0, alloc0 = 0;
    std::int64_t child_ns = 0, child_alloc = 0;
  };
  struct record {
    const char* name;
    std::int64_t id, parent, start, end, alloc, self_ns;
    unsigned tid;
  };

  static std::vector<frame>& stack() {
    thread_local std::vector<frame> s;
    return s;
  }
  static unsigned thread_index() {
    static std::atomic<unsigned> next{0};
    thread_local unsigned t = next.fetch_add(1);
    return t;
  }
  std::int64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed);
  }

  void close(const frame& f, std::int64_t end, std::int64_t alloc) {
    std::int64_t self_ns = end - f.start - f.child_ns;
    std::lock_guard<std::mutex> lock(mu_);
    auto& t = totals_[f.name];
    t.self_s += static_cast<double>(self_ns) * 1e-9;
    t.self_alloc_bytes += alloc - f.child_alloc;
    if (spans_.size() < kMaxStoredSpans) {
      spans_.push_back(record{f.name, f.id, f.parent, f.start, end, alloc,
                              self_ns, thread_index()});
    } else {
      ++dropped_;
    }
  }

  bool enabled_ = false;
  std::atomic<std::int64_t> ids_{0};
  std::mutex mu_;  // guards totals_, spans_, dropped_
  std::map<const char*, span_totals> totals_;  // keyed by name pointer
  std::vector<record> spans_;
  std::size_t dropped_ = 0;
};

inline bool span_recorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  for (const auto& s : spans_) t0 = s.start < t0 ? s.start : t0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                  "\"dropped_spans\":%zu},\"traceEvents\":[",
               dropped_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"alloc_bytes\":%lld,\"self_us\":%.3f}}",
                 i ? "," : "", s.name, s.tid, (s.start - t0) * 1e-3,
                 (s.end - s.start) * 1e-3, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.alloc), s.self_ns * 1e-3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- the policy wrapper -------------------------------------------------------

enum class op : unsigned {
  tabulate, iota, map, zip, reduce, scan, scan_inclusive, filter, filter_op,
  flatten, to_array, apply_each, kCount
};
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(op::kCount);
inline constexpr std::array<const char*, kNumOps> kOpNames = {
    "tabulate", "iota",      "map",     "zip",      "reduce",   "scan",
    "scan_inclusive", "filter", "filter_op", "flatten", "to_array",
    "apply_each"};

// Span names are "<layer>.<op>": the delay policy's ops live in src/core
// and src/stream, the array policy's in src/array.
template <typename P>
const char* span_name(op o) {
  static const auto names = [] {
    std::string layer =
        std::string(P::name) == "array" ? "array" : "core";
    std::array<std::string, kNumOps> n;
    for (std::size_t i = 0; i < kNumOps; ++i)
      n[i] = layer + "." + kOpNames[i];
    return n;
  }();
  return names[static_cast<std::size_t>(o)].c_str();
}

// Wraps every op of policy P in a span. A kernel instantiated with
// traced_policy<P> calls the traced wrapper for the ops nested inside its
// lambdas too, because they name the same P.
template <typename P>
struct traced_policy {
  static constexpr const char* name = P::name;
  static constexpr const char* abbr = P::abbr;
  using scope = span_recorder::scope;

  template <typename T>
  static decltype(auto) view(const pbds::parray<T>& a) {
    return P::view(a);
  }
  template <typename Seq>
  static std::size_t length(const Seq& s) {
    return P::length(s);
  }
  template <typename F>
  static auto tabulate(std::size_t n, F f) {
    scope s(span_name<P>(op::tabulate));
    return P::tabulate(n, std::move(f));
  }
  static auto iota(std::size_t n) {
    scope s(span_name<P>(op::iota));
    return P::iota(n);
  }
  template <typename F, typename Seq>
  static auto map(F f, const Seq& s) {
    scope sc(span_name<P>(op::map));
    return P::map(std::move(f), s);
  }
  template <typename S1, typename S2>
  static auto zip(const S1& a, const S2& b) {
    scope s(span_name<P>(op::zip));
    return P::zip(a, b);
  }
  template <typename F, typename T, typename Seq>
  static T reduce(F f, T z, const Seq& s) {
    scope sc(span_name<P>(op::reduce));
    return P::reduce(std::move(f), std::move(z), s);
  }
  template <typename F, typename T, typename Seq>
  static auto scan(F f, T z, const Seq& s) {
    scope sc(span_name<P>(op::scan));
    return P::scan(std::move(f), std::move(z), s);
  }
  template <typename F, typename T, typename Seq>
  static auto scan_inclusive(F f, T z, const Seq& s) {
    scope sc(span_name<P>(op::scan_inclusive));
    return P::scan_inclusive(std::move(f), std::move(z), s);
  }
  template <typename Pred, typename Seq>
  static auto filter(Pred p, const Seq& s) {
    scope sc(span_name<P>(op::filter));
    return P::filter(std::move(p), s);
  }
  template <typename F, typename Seq>
  static auto filter_op(F f, const Seq& s) {
    scope sc(span_name<P>(op::filter_op));
    return P::filter_op(std::move(f), s);
  }
  template <typename Seq>
  static auto flatten(const Seq& s) {
    scope sc(span_name<P>(op::flatten));
    return P::flatten(s);
  }
  template <typename Seq, typename G>
  static void apply_each(const Seq& s, const G& g) {
    scope sc(span_name<P>(op::apply_each));
    P::apply_each(s, g);
  }
  template <typename Seq>
  static decltype(auto) to_array(Seq&& s) {
    scope sc(span_name<P>(op::to_array));
    return P::to_array(std::forward<Seq>(s));
  }
};

}  // namespace perfbench

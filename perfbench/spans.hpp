// Host-time spans recorded by the benchmark around its own calls into the
// library. Wall time is steady_clock; CPU time is whole-process CPU
// (CLOCK_PROCESS_CPUTIME_ID), which counts every thread, so a sharded run's
// barrier spin and worker time show up and the main thread's idle wait does
// not masquerade as a speed-up. Spans stay in memory until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One row of the loop profiler's per-tag table.
struct TagTotal {
  std::uint64_t count = 0;
  std::uint64_t units = 0;
  double total_s = 0.0;
};

struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int iteration = -1;
  std::int64_t start_ns = 0;  ///< steady clock, relative to the log's origin
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;  ///< whole-process CPU consumed inside the span
  /// Profiler totals attached as children of a run span: the dispatch
  /// count and work units of the tag. Such a span starts with its parent
  /// and lasts the tag's summed callback time.
  bool tag_total = false;
  std::uint64_t count = 0;
  std::uint64_t units = 0;

  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
 public:
  SpanLog() : origin_ns_(wall_ns()) { spans_.reserve(4096); }

  int open(std::string name, int parent, int iteration) {
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.iteration = iteration;
    s.cpu_s = process_cpu_s();
    s.start_ns = wall_ns() - origin_ns_;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = wall_ns() - origin_ns_;
    s.cpu_s = process_cpu_s() - s.cpu_s;
  }

  /// Time `fn()` as a span; returns what `fn` returns.
  template <typename Fn>
  auto timed(std::string name, int parent, int iteration, Fn&& fn) {
    const int id = open(std::move(name), parent, iteration);
    auto r = fn();
    close(id);
    return r;
  }

  void add_tag_total(const std::string& tag, int parent, const TagTotal& t) {
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    Span s;
    s.name = "tag:" + tag;
    s.parent = parent;
    s.iteration = p.iteration;
    s.start_ns = p.start_ns;
    s.end_ns = p.start_ns + static_cast<std::int64_t>(t.total_s * 1e9);
    s.tag_total = true;
    s.count = t.count;
    s.units = t.units;
    spans_.push_back(std::move(s));
  }

  [[nodiscard]] const Span& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Drop every span recorded after the first `n`.
  void truncate(std::size_t n) { spans_.resize(n); }

  /// Duration of the child of `parent` named `name`, 0 when there is none.
  [[nodiscard]] double child_seconds(int parent, const std::string& name) const {
    for (std::size_t i = spans_.size(); i-- > static_cast<std::size_t>(parent);) {
      if (spans_[i].parent == parent && spans_[i].name == name) return spans_[i].seconds();
    }
    return 0.0;
  }

  /// One JSON object per line, in recording order.
  void write_jsonl(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":" << s.parent
          << ",\"iteration\":" << s.iteration << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns;
      if (s.tag_total) {
        out << ",\"count\":" << s.count << ",\"units\":" << s.units;
      } else {
        out << ",\"cpu_s\":" << s.cpu_s;
      }
      out << "}\n";
    }
  }

 private:
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

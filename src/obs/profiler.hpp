// Event-loop profiler (DESIGN.md §8).
//
// Attributes wall-clock time and dispatch counts to event types via the
// one-byte EventTag carried in each event slot. This is the only obs
// component that touches the host clock, so its numbers are inherently
// non-deterministic — they go to a human-readable report only, never into
// exported artifacts that the determinism tests compare.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>

#include "obs/tags.hpp"
#include "util/histogram.hpp"

namespace lossburst::obs {

class LoopProfiler {
 public:
  LoopProfiler();

  /// One dispatched event of type `tag` that took `wall_ns` nanoseconds and
  /// completed `units` work units (packets serviced, for link tags).
  void record(EventTag tag, std::int64_t wall_ns, std::uint64_t units = 0) {
    PerTag& p = tags_[static_cast<std::size_t>(tag)];
    ++p.count;
    p.total_ns += wall_ns;
    if (wall_ns > p.max_ns) p.max_ns = wall_ns;
    p.units += units;
    p.hist.add(static_cast<double>(wall_ns));
  }

  [[nodiscard]] std::uint64_t count(EventTag tag) const {
    return tags_[static_cast<std::size_t>(tag)].count;
  }
  /// Work units completed under `tag` (packets, for link tags).
  [[nodiscard]] std::uint64_t units(EventTag tag) const {
    return tags_[static_cast<std::size_t>(tag)].units;
  }
  [[nodiscard]] std::int64_t total_ns(EventTag tag) const {
    return tags_[static_cast<std::size_t>(tag)].total_ns;
  }
  [[nodiscard]] const util::Histogram& histogram(EventTag tag) const {
    return tags_[static_cast<std::size_t>(tag)].hist;
  }
  [[nodiscard]] std::uint64_t total_count() const;

  /// Text table: per-tag count, share of wall time, mean/max dispatch cost.
  void report(std::ostream& out) const;

 private:
  struct PerTag {
    std::uint64_t count = 0;
    std::uint64_t units = 0;  ///< work units (packets) completed
    std::int64_t total_ns = 0;
    std::int64_t max_ns = 0;
    util::Histogram hist;  ///< dispatch cost in ns, log-ish fixed range
    PerTag();
  };

  std::array<PerTag, kEventTagCount> tags_;
};

}  // namespace lossburst::obs

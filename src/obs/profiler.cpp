#include "obs/profiler.hpp"

#include <iomanip>

namespace lossburst::obs {

// Dispatch costs cluster well under a microsecond; 100 ns bins over
// [0, 10 µs) keep the tails visible without churning memory.
LoopProfiler::PerTag::PerTag() : hist(0.0, 10'000.0, 100) {}

LoopProfiler::LoopProfiler() = default;

std::uint64_t LoopProfiler::total_count() const {
  std::uint64_t n = 0;
  for (const PerTag& p : tags_) n += p.count;
  return n;
}

void LoopProfiler::report(std::ostream& out) const {
  std::int64_t grand_ns = 0;
  for (const PerTag& p : tags_) grand_ns += p.total_ns;

  out << "event-loop profile (wall-clock; not deterministic)\n";
  out << std::left << std::setw(12) << "tag" << std::right << std::setw(12) << "count"
      << std::setw(12) << "total_ms" << std::setw(9) << "share" << std::setw(12)
      << "mean_ns" << std::setw(10) << "max_ns" << std::setw(12) << "units"
      << std::setw(12) << "ns_per_unit" << '\n';
  for (std::size_t i = 0; i < kEventTagCount; ++i) {
    const PerTag& p = tags_[i];
    if (p.count == 0) continue;
    const double share =
        grand_ns > 0 ? static_cast<double>(p.total_ns) / static_cast<double>(grand_ns) : 0.0;
    out << std::left << std::setw(12) << tag_name(static_cast<EventTag>(i)) << std::right
        << std::setw(12) << p.count << std::setw(12) << std::fixed << std::setprecision(3)
        << static_cast<double>(p.total_ns) * 1e-6 << std::setw(8) << std::setprecision(1)
        << share * 100.0 << '%' << std::setw(12) << std::setprecision(1)
        << static_cast<double>(p.total_ns) / static_cast<double>(p.count) << std::setw(10)
        << p.max_ns;
    if (p.units > 0) {
      out << std::setw(12) << p.units << std::setw(12) << std::setprecision(1)
          << static_cast<double>(p.total_ns) / static_cast<double>(p.units);
    }
    out << '\n';
  }
  out << std::left << std::setw(12) << "total" << std::right << std::setw(12)
      << total_count() << std::setw(12) << std::fixed << std::setprecision(3)
      << static_cast<double>(grand_ns) * 1e-6 << '\n';
}

}  // namespace lossburst::obs

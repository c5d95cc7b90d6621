// Exporters: interval-sampled CSV time series and Chrome trace_event JSON
// (DESIGN.md §8). Everything written here is keyed to simulated time, so
// identically-seeded runs emit byte-identical artifacts.
#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <ostream>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/time.hpp"

namespace lossburst::obs {

/// Periodically snapshots every registered metric into a pre-reserved flat
/// buffer (sampling allocates nothing once reserved). Column set is frozen
/// at construction: build it after all components have registered. CSV rows
/// report counters as per-interval deltas and gauges raw.
class IntervalSeries {
 public:
  explicit IntervalSeries(const Registry& registry);

  /// Pre-size the row buffer so sample() never reallocates mid-run.
  void reserve(std::size_t rows);

  void sample(util::TimePoint t);

  [[nodiscard]] std::size_t rows() const { return times_.size(); }
  [[nodiscard]] std::size_t columns() const { return names_.size(); }
  [[nodiscard]] util::TimePoint last_time() const {
    return times_.empty() ? util::TimePoint(-1) : times_.back();
  }
  /// Raw (undifferenced) value of column c in row r.
  [[nodiscard]] double value(std::size_t r, std::size_t c) const {
    return values_[r * names_.size() + c];
  }

  void write_csv(std::ostream& out) const;

 private:
  const Registry* registry_;
  std::vector<std::string> names_;
  std::vector<MetricKind> kinds_;
  std::vector<util::TimePoint> times_;
  std::vector<double> values_;  ///< rows() x columns(), row-major
};

/// Serialize the flight recorder as Chrome trace_event JSON (JSON Array
/// Format), loadable in Perfetto / chrome://tracing. Queue residency is
/// emitted as async "b"/"e" span pairs (FIFO spans overlap, so stack-nested
/// "X" events cannot represent them); drops/marks/delivers/dispatches as
/// instants; cwnd changes as "C" counter tracks. Timestamps are simulated
/// microseconds printed with fixed precision — deterministic byte-for-byte.
void write_chrome_trace(std::ostream& out, const FlightRecorder& rec);

/// Multi-recorder variant for sharded runs: one trace_event process (pid)
/// per recorder, named "shard <k>", with each shard's tracks as that
/// process's threads. Passing a single recorder emits the single-recorder
/// overload's output (pid 1) with the process named "shard 0".
void write_chrome_trace(std::ostream& out,
                        const std::vector<const FlightRecorder*>& shards);

/// Create `path`, hand the stream to `write`, and throw std::runtime_error
/// naming the path if it could not be opened or any write or the final
/// flush failed. Every exported artifact goes through here.
void write_artifact(const std::filesystem::path& path,
                    const std::function<void(std::ostream&)>& write);

/// Write every artifact the config asks for into cfg.dir (created if
/// missing): <prefix>intervals.csv, <prefix>trace.json and, when profiling,
/// <prefix>profile.txt. No-op when cfg.enabled() is false. Throws
/// std::runtime_error naming the first artifact that could not be written.
void export_artifacts(const ObsConfig& cfg, const Telemetry& telemetry,
                      const IntervalSeries& series);

}  // namespace lossburst::obs

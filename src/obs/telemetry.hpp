// Telemetry: the bundle a simulation attaches to make itself observable
// (DESIGN.md §8). Owns the metric registry, the flight recorder, and —
// when explicitly enabled — the event-loop profiler. Components reached by
// Simulator::set_telemetry() register their metrics and tracks here once at
// attach/construction time; the hot path afterwards only ever sees plain
// member increments and a single should() test.
#pragma once

#include <memory>
#include <string>

#include "obs/flow_table.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_ring.hpp"
#include "util/time.hpp"

namespace lossburst::obs {

namespace live {
class LivePublisher;
}

/// How an experiment run wants its telemetry: where to write artifacts and
/// how fine-grained to sample/trace. Default-constructed means "off".
struct ObsConfig {
  std::string dir;               ///< output directory; empty disables everything
  std::string prefix;            ///< artifact filename prefix, e.g. "fig7_"
  util::Duration interval = util::Duration::millis(100);  ///< CSV sample period
  /// Flight-recorder ring capacity in records (24 B each). The default is
  /// deliberately cache-resident (16 K records = 384 KB, a few hundred ms of
  /// dumbbell traffic): a larger ring keeps a longer window but its streaming
  /// writes evict the simulator's working set from L2 and the enabled-mode
  /// overhead climbs well past 10% (see BM_ObsOverhead).
  std::size_t trace_capacity = 1u << 14;
  std::uint32_t trace_kinds = kDefaultKinds;
  bool profile = false;          ///< also run the wall-clock loop profiler
  /// Optional live telemetry sink (not owned). When set, the run attaches
  /// its Telemetry bundles to the publisher and calls publish() once per
  /// sampling interval — with or without an output dir.
  live::LivePublisher* live = nullptr;

  [[nodiscard]] bool enabled() const { return !dir.empty() || live != nullptr; }
  /// True when file artifacts should be written at the end of the run.
  [[nodiscard]] bool writes_artifacts() const { return !dir.empty(); }
};

class Telemetry {
 public:
  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }
  [[nodiscard]] FlightRecorder& recorder() { return recorder_; }
  [[nodiscard]] const FlightRecorder& recorder() const { return recorder_; }
  [[nodiscard]] FlowTable& flows() { return flows_; }
  [[nodiscard]] const FlowTable& flows() const { return flows_; }

  LoopProfiler& enable_profiler() {
    if (!profiler_) profiler_ = std::make_unique<LoopProfiler>();
    return *profiler_;
  }
  [[nodiscard]] LoopProfiler* profiler() { return profiler_.get(); }
  [[nodiscard]] const LoopProfiler* profiler() const { return profiler_.get(); }

 private:
  Registry registry_;
  FlightRecorder recorder_;
  FlowTable flows_;
  std::unique_ptr<LoopProfiler> profiler_;
};

/// The instrumentation-site idiom: resolve an optional Telemetry* down to a
/// FlightRecorder* that is non-null only when this record kind should be
/// written. Compiles to two branches when telemetry is attached, one when
/// it is not.
inline FlightRecorder* trace_recorder(Telemetry* t, RecordKind k) {
  if (t == nullptr || !t->recorder().should(k)) return nullptr;
  return &t->recorder();
}

}  // namespace lossburst::obs

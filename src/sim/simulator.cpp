#include "sim/simulator.hpp"

#include <chrono>

#include "util/invariant.hpp"

namespace lossburst::sim {

std::uint64_t Simulator::run_until(TimePoint until) {
  return telemetry_ != nullptr ? dispatch<true, true>(until) : dispatch<false, true>(until);
}

std::uint64_t Simulator::run_before(TimePoint horizon) {
  return telemetry_ != nullptr ? dispatch<true, false>(horizon)
                               : dispatch<false, false>(horizon);
}

// The detached instantiations (what micro-benchmarks and parallel sweeps run)
// carry no per-event telemetry branch. The profiler/recorder gates are
// resolved once per call; toggling them mid-run takes effect at the next run.
template <bool Observed, bool Inclusive>
std::uint64_t Simulator::dispatch(TimePoint bound) {
  // Wall-clock audit (DESIGN.md §9): this is the only steady_clock use in
  // the simulation core. The measured interval brackets pop_and_run and
  // flows *only* into LoopProfiler::record — never into now_, the event
  // queue, or an RNG — so host load cannot perturb simulated results. The
  // flight recorder below stamps records with simulated time `t` for the
  // same reason.
  // lossburst-lint: allow(wall-clock): loop profiler measures host time per event; results see only simulated time
  using Clock = std::chrono::steady_clock;
  obs::LoopProfiler* prof = nullptr;
  obs::FlightRecorder* rec = nullptr;
  if constexpr (Observed) {
    prof = telemetry_->profiler();
    rec = obs::trace_recorder(telemetry_, obs::RecordKind::kEventDispatch);
  }
  std::uint64_t ran = 0;
  stop_requested_ = false;
  while (!queue_.empty()) {
    const TimePoint t = queue_.next_time();
    if (Inclusive ? t > bound : t >= bound) break;
    LOSSBURST_INVARIANT(t >= now_, "simulated clock would move backwards");
    now_ = t;
    if constexpr (Observed) {
      const std::uint64_t units_before = link_units_;
      if (prof != nullptr) {
        const Clock::time_point start = Clock::now();
        queue_.pop_and_run();
        const auto wall_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                .count();
        prof->record(queue_.last_dispatch_tag(), wall_ns, link_units_ - units_before);
      } else {
        queue_.pop_and_run();
      }
      LOSSBURST_INVARIANT(now_ == t,
                          "profiler instrumentation must not advance the simulated clock");
      if (rec != nullptr) {
        rec->record(obs::RecordKind::kEventDispatch, t.ns(), 0,
                    static_cast<std::uint64_t>(queue_.last_dispatch_tag()),
                    static_cast<std::uint32_t>(link_units_ - units_before));
      }
    } else {
      queue_.pop_and_run();
    }
    ++ran;
    ++executed_;
    if (stop_requested_) break;
  }
  // run_until advances the clock to the horizon so later scheduling (e.g. a
  // second run_until phase) starts from a consistent time.
  if constexpr (Inclusive) {
    if (!stop_requested_ && bound != TimePoint::max() && now_ < bound) now_ = bound;
  }
  return ran;
}

void Simulator::set_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr) telemetry_->registry().release(this);
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  obs::Registry& reg = telemetry_->registry();
  const EventQueue* q = &queue_;
  reg.add(obs::MetricKind::kCounter, "engine.scheduled",
          [](const void* c) {
            return static_cast<double>(static_cast<const EventQueue*>(c)->scheduled_count());
          },
          q, this);
  reg.add(obs::MetricKind::kCounter, "engine.fired",
          [](const void* c) {
            return static_cast<double>(static_cast<const EventQueue*>(c)->fired_count());
          },
          q, this);
  reg.add(obs::MetricKind::kCounter, "engine.cancelled",
          [](const void* c) {
            return static_cast<double>(static_cast<const EventQueue*>(c)->cancelled_count());
          },
          q, this);
  reg.add(obs::MetricKind::kGauge, "engine.events_live",
          [](const void* c) {
            return static_cast<double>(static_cast<const EventQueue*>(c)->size());
          },
          q, this);
  reg.add(obs::MetricKind::kGauge, "engine.heap_high_water",
          [](const void* c) {
            return static_cast<double>(static_cast<const EventQueue*>(c)->heap_high_water());
          },
          q, this);
}

}  // namespace lossburst::sim

// The simulator: a clock plus an event queue. Components hold a reference to
// it and schedule callbacks; there is exactly one logical thread of execution
// per simulator instance, so components need no synchronization. Distinct
// simulator instances share nothing, so independent runs may execute on
// different threads of a util::ThreadPool.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace lossburst::sim {

class Simulator {
 public:
  /// `seed` feeds the root RNG from which all component streams derive.
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// Schedule at an absolute time; must not be in the past.
  template <typename F>
  EventHandle at(TimePoint t, F&& fn, obs::EventTag tag = obs::EventTag::kGeneric) {
    if (t < now_) {
      throw std::logic_error("Simulator::at: scheduling into the past");
    }
    return queue_.schedule(t, std::forward<F>(fn), tag);
  }

  /// Schedule after a relative delay (>= 0).
  template <typename F>
  EventHandle in(Duration d, F&& fn, obs::EventTag tag = obs::EventTag::kGeneric) {
    return at(now_ + d, std::forward<F>(fn), tag);
  }

  /// Run until the queue drains or the clock passes `until`. Events at
  /// exactly `until` still run. Returns the number of events executed.
  std::uint64_t run_until(TimePoint until);

  /// Run until the queue drains.
  std::uint64_t run() { return run_until(TimePoint::max()); }

  /// Epoch slice (DESIGN.md §12): run events strictly before `horizon`,
  /// leaving the clock at the last executed event (never advanced to the
  /// horizon — the shard coordinator owns end-of-run clock placement).
  /// Events at exactly `horizon` belong to the next epoch.
  std::uint64_t run_before(TimePoint horizon);

  /// Time of the earliest pending event; TimePoint::max() when drained.
  [[nodiscard]] TimePoint next_event_time() const { return queue_.next_time(); }

  /// Move the clock forward to `t` without running anything (coordinator
  /// end-of-run placement; mirrors run_until's horizon advance). Backwards
  /// moves are ignored.
  void advance_to(TimePoint t) {
    if (t > now_) now_ = t;
  }

  /// Schedule a cross-shard arrival in serial dispatch order — see
  /// EventQueue::schedule_wedged. `virtual_sched_ns` is the instant the
  /// serial engine would have made the schedule call (the boundary link's
  /// finish_tx time).
  template <typename F>
  EventHandle wedge_at(TimePoint t, std::int64_t virtual_sched_ns, F&& fn,
                       obs::EventTag tag = obs::EventTag::kGeneric) {
    if (t < now_) {
      throw std::logic_error("Simulator::wedge_at: scheduling into the past");
    }
    return queue_.schedule_wedged(t, virtual_sched_ns, std::forward<F>(fn), tag);
  }

  /// Shard-mode switches, forwarded to the queue (DESIGN.md §12).
  void set_shard_mode(bool on) { queue_.set_shard_mode(on); }
  void prune_instants(std::int64_t upto_ns) { queue_.prune_instants(upto_ns); }

  /// Request that the current run_until return after the in-flight event.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

  /// Attach a telemetry bundle (DESIGN.md §8): registers the engine's own
  /// metrics and makes run_until feed the loop profiler / flight recorder.
  /// Pass nullptr to detach (also releases the engine's registry entries).
  /// The Telemetry object must outlive the simulator or the next detach.
  void set_telemetry(obs::Telemetry* telemetry);
  [[nodiscard]] obs::Telemetry* telemetry() const { return telemetry_; }

  /// Link-layer work-unit accounting (DESIGN.md §8): links call this once
  /// per packet whose serialization completes, so the profiler reports
  /// link work per packet alongside dispatch counts. One plain increment;
  /// no telemetry gate needed.
  void count_link_unit() { ++link_units_; }

 private:
  /// The one dispatch loop behind run_until (Inclusive: events at `bound`
  /// run, then the clock advances to it) and run_before (events at `bound`
  /// wait). Observed feeds the profiler / flight recorder; the detached
  /// instantiation carries no per-event telemetry branch.
  template <bool Observed, bool Inclusive>
  std::uint64_t dispatch(TimePoint bound);

  EventQueue queue_;
  TimePoint now_ = TimePoint::zero();
  util::Rng rng_;
  std::uint64_t executed_ = 0;
  std::uint64_t link_units_ = 0;
  bool stop_requested_ = false;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace lossburst::sim

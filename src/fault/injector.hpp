// FaultInjector: binds a FaultPlan to a concrete Network (DESIGN.md §10).
//
// Construction resolves every link name, allocates one LinkFaultState per
// impaired link, seeds its RNG streams from (plan.seed, first-mention
// order), attaches it to the Link, and schedules all flap/stall transitions
// on the simulator's event queue (tagged obs::EventTag::kFault). Everything
// is allocated here, up front — once the run starts, the fault layer's
// steady state is reads, counter increments, and RNG advances only.
//
// The injector must outlive the simulation run (declare it alongside the
// Network, before flows). Destruction detaches the states and releases the
// registry metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/channel.hpp"
#include "fault/plan.hpp"
#include "net/network.hpp"

namespace lossburst::fault {

class FaultInjector {
 public:
  /// Throws std::runtime_error when the plan names a link the network does
  /// not have — a misspelled plan must fail loudly, not silently inject
  /// nothing.
  FaultInjector(net::Network& net, const FaultPlan& plan);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Route every injected drop through `tracer` as well (typically the
  /// experiment's LossTrace, so injected losses join the queue-drop stream).
  void set_drop_tracer(net::QueueTracer* tracer);

  [[nodiscard]] bool active() const { return !entries_.empty(); }

  /// Counters for one impaired link (throws std::out_of_range if the plan
  /// does not mention it).
  [[nodiscard]] const FaultCounters& counters(const std::string& link) const;

  /// Sum of all per-link counters.
  [[nodiscard]] FaultCounters total() const;

 private:
  struct Entry {
    std::string name;
    net::Link* link = nullptr;
    std::unique_ptr<LinkFaultState> state;
  };

  Entry& entry_for(net::Link* link, const std::string& name);
  void schedule_flap(net::Link* link, const FlapSpec& spec);
  void schedule_stall(net::Link* link, const StallSpec& spec);

  net::Network& net_;
  std::vector<Entry> entries_;  ///< plan first-mention order (deterministic)
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace lossburst::fault

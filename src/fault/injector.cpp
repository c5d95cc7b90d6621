#include "fault/injector.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace lossburst::fault {

using util::Duration;
using util::TimePoint;

namespace {

net::Link* find_link(net::Network& net, const std::string& name) {
  for (const auto& link : net.links()) {
    if (link->name() == name) return link.get();
  }
  return nullptr;
}

std::int64_t to_ns(double seconds) { return Duration::from_seconds(seconds).ns(); }

}  // namespace

FaultInjector::FaultInjector(net::Network& net, const FaultPlan& plan) : net_(net) {
  // Resolve every link up front: a plan naming a missing link must fail
  // before anything is scheduled or attached.
  std::vector<net::Link*> resolved;
  const std::vector<std::string> names = plan.links();
  resolved.reserve(names.size());
  for (const std::string& name : names) {
    net::Link* link = find_link(net, name);
    if (link == nullptr) {
      throw std::runtime_error("fault plan names unknown link '" + name + "'");
    }
    resolved.push_back(link);
  }
  // A link has exactly one flap state machine: conflicting policies or
  // overlapping windows would make the edge-triggered down/up transitions
  // diverge from what the plan declares. parse_plan() rejects these with a
  // line number; this check guards plans built programmatically.
  for (std::size_t a = 0; a < plan.flaps.size(); ++a) {
    for (std::size_t b = a + 1; b < plan.flaps.size(); ++b) {
      if (const char* why = flap_conflict(plan.flaps[a], plan.flaps[b])) {
        throw std::runtime_error(std::string(why) + " for link '" +
                                 plan.flaps[a].link + "' in fault plan");
      }
    }
  }
  telemetry_ = net.sim().telemetry();

  entries_.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    Entry e;
    e.name = names[i];
    e.link = resolved[i];
    e.state = std::make_unique<LinkFaultState>();
    // Per-link streams derive from (plan seed, first-mention index) only, so
    // the decision sequence is independent of how specs interleave.
    util::Rng link_root = util::Rng(plan.seed).split(i + 1);
    e.state->gilbert = GilbertChannel(0.0, 1.0, 1.0, link_root.split(1));
    e.state->corrupt_rng = link_root.split(2);
    if (telemetry_ != nullptr) {
      e.state->obs_track = telemetry_->recorder().register_track("fault " + e.name);
      obs::Registry& reg = telemetry_->registry();
      const FaultCounters& c = e.state->counters;
      reg.add_counter("fault." + e.name + ".gilbert_drops", &c.gilbert_drops, this);
      reg.add_counter("fault." + e.name + ".flap_drops", &c.flap_drops, this);
      reg.add_counter("fault." + e.name + ".parked", &c.parked, this);
      reg.add_counter("fault." + e.name + ".corrupted", &c.corrupted, this);
      reg.add_counter("fault." + e.name + ".duplicated", &c.duplicated, this);
      reg.add_counter("fault." + e.name + ".down_transitions", &c.down_transitions, this);
      reg.add_counter("fault." + e.name + ".stall_windows", &c.stall_windows, this);
    }
    entries_.push_back(std::move(e));
  }

  auto state_of = [&](const std::string& name) -> LinkFaultState* {
    for (auto& e : entries_) {
      if (e.name == name) return e.state.get();
    }
    return nullptr;  // unreachable: names came from the same plan
  };

  for (const GilbertSpec& spec : plan.gilbert) {
    LinkFaultState* s = state_of(spec.link);
    // Re-seed with the already-derived per-link stream so spec order within
    // the plan does not perturb other links' streams.
    const std::size_t idx =
        static_cast<std::size_t>(std::find(names.begin(), names.end(), spec.link) -
                                 names.begin());
    util::Rng link_root = util::Rng(plan.seed).split(idx + 1);
    s->gilbert = GilbertChannel(spec.p_good_to_bad, spec.p_bad_to_good,
                                spec.drop_in_bad, link_root.split(1));
    s->gilbert_enabled = true;
    s->gilbert_start_ns = to_ns(spec.start_s);
    s->gilbert_stop_ns =
        spec.stop_s < 0.0 ? LinkFaultState::kForever : to_ns(spec.stop_s);
  }
  for (const CorruptSpec& spec : plan.corrupt) {
    LinkFaultState* s = state_of(spec.link);
    s->corrupt_enabled = true;
    s->corrupt_prob = spec.corrupt_prob;
    s->duplicate_prob = spec.duplicate_prob;
    s->corrupt_start_ns = to_ns(spec.start_s);
    s->corrupt_stop_ns =
        spec.stop_s < 0.0 ? LinkFaultState::kForever : to_ns(spec.stop_s);
  }

  // Attach states before scheduling transitions: a flap event must find the
  // state in place.
  for (Entry& e : entries_) e.link->attach_fault(e.state.get());

  for (const FlapSpec& spec : plan.flaps) {
    // Validated above: every flap spec for a link agrees on the policy.
    state_of(spec.link)->policy = spec.policy;
    schedule_flap(find_link(net_, spec.link), spec);
  }
  for (const StallSpec& spec : plan.stalls) {
    schedule_stall(find_link(net_, spec.link), spec);
  }
}

FaultInjector::~FaultInjector() {
  for (Entry& e : entries_) e.link->attach_fault(nullptr);
  if (telemetry_ != nullptr) telemetry_->registry().release(this);
}

void FaultInjector::schedule_flap(net::Link* link, const FlapSpec& spec) {
  if (link->is_boundary()) {
    // Down edges kill packets mid-flight; once a packet has been handed to
    // another shard its flight cannot be recalled race-free (DESIGN.md §12).
    throw std::runtime_error("fault plan: flap spec on shard-boundary link '" +
                             spec.link + "' is not supported");
  }
  sim::Simulator& sim = net_.sim();
  const std::int64_t period_ns = to_ns(spec.down_s) + to_ns(spec.up_s);
  for (std::size_t k = 0; k < spec.cycles; ++k) {
    const std::int64_t down_ns =
        to_ns(spec.at_s) + static_cast<std::int64_t>(k) * period_ns;
    const std::int64_t up_ns = down_ns + to_ns(spec.down_s);
    (void)sim.at(TimePoint(down_ns), [link] { link->fault_set_down(true); },
                 obs::EventTag::kFault);
    (void)sim.at(TimePoint(up_ns), [link] { link->fault_set_down(false); },
                 obs::EventTag::kFault);
  }
}

void FaultInjector::schedule_stall(net::Link* link, const StallSpec& spec) {
  if (link->is_boundary()) {
    // Stall windows park in-flight packets for later release; the parked set
    // cannot span a shard cut (DESIGN.md §12).
    throw std::runtime_error("fault plan: stall spec on shard-boundary link '" +
                             spec.link + "' is not supported");
  }
  sim::Simulator& sim = net_.sim();
  const std::int64_t period_ns =
      spec.every_s > 0.0 ? to_ns(spec.every_s) : to_ns(spec.dur_s);
  for (std::size_t k = 0; k < spec.count; ++k) {
    const std::int64_t begin_ns =
        to_ns(spec.at_s) + static_cast<std::int64_t>(k) * period_ns;
    const std::int64_t end_ns = begin_ns + to_ns(spec.dur_s);
    (void)sim.at(TimePoint(begin_ns), [link] { link->fault_set_stalled(true); },
                 obs::EventTag::kFault);
    (void)sim.at(TimePoint(end_ns), [link] { link->fault_set_stalled(false); },
                 obs::EventTag::kFault);
  }
}

void FaultInjector::set_drop_tracer(net::QueueTracer* tracer) {
  for (Entry& e : entries_) e.state->tracer = tracer;
}

const FaultCounters& FaultInjector::counters(const std::string& link) const {
  for (const Entry& e : entries_) {
    if (e.name == link) return e.state->counters;
  }
  throw std::out_of_range("no fault state for link '" + link + "'");
}

FaultCounters FaultInjector::total() const {
  FaultCounters sum;
  for (const Entry& e : entries_) {
    const FaultCounters& c = e.state->counters;
    sum.gilbert_drops += c.gilbert_drops;
    sum.flap_drops += c.flap_drops;
    sum.parked += c.parked;
    sum.corrupted += c.corrupted;
    sum.duplicated += c.duplicated;
    sum.down_transitions += c.down_transitions;
    sum.stall_windows += c.stall_windows;
  }
  return sum;
}

}  // namespace lossburst::fault

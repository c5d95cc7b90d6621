// Event-type tags for the event-loop profiler (DESIGN.md §8).
//
// Every schedule() call site may annotate its callback with a one-byte tag;
// the tag rides for free in the event slot's padding and lets the profiler
// attribute wall-time and dispatch counts per event/process type without any
// RTTI or per-event allocation. Untagged events fall into kGeneric.
#pragma once

#include <cstdint>
#include <string_view>

namespace lossburst::obs {

enum class EventTag : std::uint8_t {
  kGeneric = 0,   ///< untagged schedule() calls
  kLinkTx,        ///< Link "transmit done" (serialization complete)
  kLinkArrive,    ///< Link in-flight FIFO head arrival
  kTcpRto,        ///< TCP retransmission timer
  kTcpPacing,     ///< TCP Pacing emission tick
  kTcpDelAck,     ///< receiver delayed-ACK timer
  kTfrc,          ///< TFRC send / feedback / no-feedback timers
  kSource,        ///< CBR / on-off source ticks
  kPeriodic,      ///< sim::PeriodicProcess ticks (meters, samplers)
  kAppStart,      ///< flow start events
  kFault,         ///< fault-injection transitions (flap/stall edges, watchdogs)
  kControl,       ///< runtime control-plane application points (serve layer)
  kFecSource,     ///< FEC source ticks (source symbols + scheduled repairs)
  kFecFeedback,   ///< FEC sink feedback timer (frontier/NACK/fit reports)
  kTagCount,
};

inline constexpr std::size_t kEventTagCount =
    static_cast<std::size_t>(EventTag::kTagCount);

constexpr std::string_view tag_name(EventTag tag) {
  switch (tag) {
    case EventTag::kGeneric: return "generic";
    case EventTag::kLinkTx: return "link.tx";
    case EventTag::kLinkArrive: return "link.arrive";
    case EventTag::kTcpRto: return "tcp.rto";
    case EventTag::kTcpPacing: return "tcp.pacing";
    case EventTag::kTcpDelAck: return "tcp.delack";
    case EventTag::kTfrc: return "tfrc";
    case EventTag::kSource: return "source";
    case EventTag::kPeriodic: return "periodic";
    case EventTag::kAppStart: return "app.start";
    case EventTag::kFault: return "fault";
    case EventTag::kControl: return "control";
    case EventTag::kFecSource: return "fec.source";
    case EventTag::kFecFeedback: return "fec.feedback";
    case EventTag::kTagCount: break;
  }
  return "?";
}

}  // namespace lossburst::obs

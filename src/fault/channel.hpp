// Per-link fault-injection state (DESIGN.md §10).
//
// This header is the *datapath* half of the fault layer: a plain struct the
// Link consults inline on its transmit path. It holds the Gilbert-Elliott
// loss chain, the flap/stall gates, the corruption/duplication dice, and the
// impairment counters — all preallocated at plan-attach time, so steady-state
// operation never touches the heap. The control-plane half (plan parsing and
// the event-scheduled flap/stall transitions) lives in fault/plan.hpp and
// fault/injector.hpp.
//
// Determinism contract: every decision draws from util::Rng streams derived
// from the fault seed at attach time, advanced once per transmitted packet
// in serialization order. Two identically seeded runs therefore make
// identical drop decisions regardless of host threading.
#pragma once

#include <cstdint>
#include <limits>

#include "util/rng.hpp"

namespace lossburst::net {
class QueueTracer;
}  // namespace lossburst::net

namespace lossburst::fault {

/// What happens to packets already in flight (propagating) when a link goes
/// down: kDrop loses them (fiber cut), kPark holds them and delivers the
/// backlog when the link comes back up (layer-2 retransmission buffer).
enum class DownPolicy : std::uint8_t { kDrop, kPark };

/// Cause code carried in fault flight-recorder records (TraceRecord::b for
/// kFaultDrop, TraceRecord::a for kFaultEvent).
enum class FaultCause : std::uint8_t {
  kGilbert = 0,   ///< burst-loss channel said Bad
  kFlap,          ///< link down (in-flight or serialized into a dead link)
  kStall,         ///< router dequeue freeze window
  kCorrupt,       ///< payload corrupted; dropped by receiver checksum
  kDuplicate,     ///< packet duplicated on the wire
};

struct FaultCounters {
  std::uint64_t gilbert_drops = 0;    ///< packets eaten by the loss channel
  std::uint64_t flap_drops = 0;       ///< packets lost to a down link
  std::uint64_t parked = 0;           ///< packets held through a down interval
  /// Packets corrupted on the wire. Each is checksum-dropped where it is
  /// finally delivered (receiver-side semantics) unless a queue drops it
  /// first, so this is also the injected-corruption-loss count.
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;       ///< extra copies injected
  std::uint64_t down_transitions = 0; ///< up -> down edges
  std::uint64_t stall_windows = 0;    ///< dequeue freeze windows entered
};

/// Two-state Gilbert-Elliott loss chain, advanced once per packet in
/// transmission order. Parameters mirror analysis::GilbertFit: p = P(Good ->
/// Bad), q = P(Bad -> Good), and `drop_in_bad` is the loss probability while
/// in Bad (1.0 = classic Gilbert; the observed loss sequence then *is* the
/// state sequence, so transition counting recovers p and q exactly).
class GilbertChannel {
 public:
  GilbertChannel() = default;
  GilbertChannel(double p_good_to_bad, double p_bad_to_good, double drop_in_bad,
                 util::Rng rng)
      : rng_(rng), p_gb_(p_good_to_bad), p_bg_(p_bad_to_good),
        drop_in_bad_(drop_in_bad) {}

  /// Advance the chain by one transmitted packet; true = this packet is lost.
  bool next_lost() {
    if (bad_) {
      if (rng_.chance(p_bg_)) bad_ = false;
    } else {
      if (rng_.chance(p_gb_)) bad_ = true;
    }
    if (!bad_) return false;
    return drop_in_bad_ >= 1.0 || rng_.chance(drop_in_bad_);
  }

  [[nodiscard]] bool in_bad() const { return bad_; }
  [[nodiscard]] double p_good_to_bad() const { return p_gb_; }
  [[nodiscard]] double p_bad_to_good() const { return p_bg_; }

 private:
  util::Rng rng_;
  double p_gb_ = 0.0;
  double p_bg_ = 1.0;
  double drop_in_bad_ = 1.0;
  bool bad_ = false;  ///< chains start in Good
};

/// The per-link fault state a Link consults on its transmit/deliver path.
/// Owned by the FaultInjector, attached via Link::attach_fault(); the Link
/// only reads/advances it, the injector's scheduled events flip the
/// control-plane gates through Link::fault_set_down / fault_set_stalled.
struct LinkFaultState {
  static constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();

  // --- control-plane gates (flipped by injector-scheduled events) ---------
  bool down = false;      ///< link flap: no serialization, no arrivals
  bool stalled = false;   ///< router pause: dequeue frozen, flight unaffected
  DownPolicy policy = DownPolicy::kDrop;

  // --- Gilbert-Elliott loss channel --------------------------------------
  bool gilbert_enabled = false;
  std::int64_t gilbert_start_ns = 0;
  std::int64_t gilbert_stop_ns = kForever;
  GilbertChannel gilbert;

  // --- corruption / duplication ------------------------------------------
  bool corrupt_enabled = false;
  double corrupt_prob = 0.0;
  double duplicate_prob = 0.0;
  std::int64_t corrupt_start_ns = 0;
  std::int64_t corrupt_stop_ns = kForever;
  util::Rng corrupt_rng;

  // --- reporting ----------------------------------------------------------
  FaultCounters counters;
  /// Optional drop observer (e.g. the experiment's LossTrace) so injected
  /// losses merge into the same analysis stream as queue drops.
  net::QueueTracer* tracer = nullptr;
  std::uint16_t obs_track = 0;  ///< flight-recorder track for fault records

  /// True while serialization must not start (down or stalled).
  [[nodiscard]] bool gates_tx() const { return down || stalled; }

  /// Advance the loss channel for one serialized packet; true = drop it.
  [[nodiscard]] bool loss_drop(std::int64_t now_ns) {
    if (!gilbert_enabled || now_ns < gilbert_start_ns || now_ns >= gilbert_stop_ns) {
      return false;
    }
    if (!gilbert.next_lost()) return false;
    ++counters.gilbert_drops;
    return true;
  }

  /// Corruption die for one serialized packet (checksum-drop at receiver).
  [[nodiscard]] bool corrupt_now(std::int64_t now_ns) {
    if (!corrupt_enabled || corrupt_prob <= 0.0 || now_ns < corrupt_start_ns ||
        now_ns >= corrupt_stop_ns) {
      return false;
    }
    if (!corrupt_rng.chance(corrupt_prob)) return false;
    ++counters.corrupted;
    return true;
  }

  /// Duplication die for one serialized packet.
  [[nodiscard]] bool duplicate_now(std::int64_t now_ns) {
    if (!corrupt_enabled || duplicate_prob <= 0.0 || now_ns < corrupt_start_ns ||
        now_ns >= corrupt_stop_ns) {
      return false;
    }
    if (!corrupt_rng.chance(duplicate_prob)) return false;
    ++counters.duplicated;
    return true;
  }
};

}  // namespace lossburst::fault

// Flight recorder: a fixed-capacity ring of binary trace records
// (DESIGN.md §8).
//
// Records are 24-byte PODs stamped with *simulated* time only, so two
// identically-seeded runs produce bit-identical rings regardless of host
// load or thread placement. The ring drops the oldest record on wrap — a
// flight recorder keeps the most recent window, it never stalls or grows.
//
// Gating is at runtime: a per-kind bitmask plus a master enable; a disabled
// recorder costs the hot path one null/flag check.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace lossburst::obs {

enum class RecordKind : std::uint8_t {
  kEventDispatch = 0,  ///< engine dispatched an event (a = EventTag)
  kPktEnqueue,         ///< packet accepted by a queue (b = occupancy after)
  kPktDequeue,         ///< packet left a queue for serialization (b = occupancy after)
  kPktDrop,            ///< queue dropped the packet (b = occupancy)
  kPktMark,            ///< queue CE-marked the packet (b = occupancy)
  kPktDeliver,         ///< link delivered the packet to its endpoint
  kCwnd,               ///< sender congestion window changed (a = bit-cast double)
  kFaultDrop,          ///< fault layer dropped the packet (b = fault::FaultCause)
  kFaultEvent,         ///< fault control-plane transition (a = code, b = cause)
  kFecRepair,          ///< FEC source emitted a repair/retransmit (b = window len)
  kFecDecode,          ///< FEC decoder released a symbol by decoding (b = rank)
  kKindCount,
};

/// Bitmask helpers for FlightRecorder::configure().
constexpr std::uint32_t kind_bit(RecordKind k) {
  return 1u << static_cast<unsigned>(k);
}
inline constexpr std::uint32_t kAllKinds =
    (1u << static_cast<unsigned>(RecordKind::kKindCount)) - 1;
/// Default mask: the packet datapath and cwnd dynamics. Per-event dispatch
/// records are opt-in — they are an order of magnitude more frequent than
/// packet records and would churn the ring.
inline constexpr std::uint32_t kDefaultKinds =
    kAllKinds & ~kind_bit(RecordKind::kEventDispatch);

/// Pack a packet identity into the record's primary argument.
constexpr std::uint64_t pack_packet(std::uint32_t flow, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(flow) << 32) | (seq & 0xffff'ffffu);
}
constexpr std::uint32_t packet_flow(std::uint64_t a) {
  return static_cast<std::uint32_t>(a >> 32);
}
constexpr std::uint32_t packet_seq(std::uint64_t a) {
  return static_cast<std::uint32_t>(a & 0xffff'ffffu);
}

struct TraceRecord {
  std::int64_t t_ns = 0;     ///< simulated time
  std::uint64_t a = 0;       ///< kind-specific payload (packet id, cwnd bits)
  std::uint32_t b = 0;       ///< kind-specific payload (queue occupancy)
  std::uint16_t track = 0;   ///< emitting component (see register_track)
  std::uint8_t kind = 0;     ///< RecordKind
  std::uint8_t pad = 0;
};
static_assert(sizeof(TraceRecord) == 24);

class FlightRecorder {
 public:
  /// Track 0 is always the engine (event dispatch records).
  FlightRecorder() { track_names_.emplace_back("engine"); }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Allocate the ring (once, up front) and enable recording for the kinds
  /// in `mask`. Capacity 0 leaves the recorder disabled.
  void configure(std::size_t capacity, std::uint32_t mask = kDefaultKinds) {
    ring_.assign(capacity, TraceRecord{});
    mask_ = mask;
    enabled_ = capacity > 0;
    pos_ = 0;
    total_ = 0;
    kind_totals_.fill(0);
  }

  void set_enabled(bool on) { enabled_ = on && !ring_.empty(); }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// The hot-path gate: one flag test plus one shift.
  [[nodiscard]] bool should(RecordKind k) const {
    return enabled_ && (mask_ >> static_cast<unsigned>(k)) & 1u;
  }

  /// Append a record, overwriting the oldest once the ring is full.
  /// Callers must check should() first (kept separate so the common
  /// disabled case never computes the record payload).
  void record(RecordKind k, std::int64_t t_ns, std::uint16_t track, std::uint64_t a,
              std::uint32_t b) {
    TraceRecord& r = ring_[pos_];
    r.t_ns = t_ns;
    r.a = a;
    r.b = b;
    r.track = track;
    r.kind = static_cast<std::uint8_t>(k);
    pos_ = pos_ + 1 == ring_.size() ? 0 : pos_ + 1;
    ++total_;
    ++kind_totals_[static_cast<std::size_t>(k)];
  }

  /// Name a component's timeline track; returns its id. Registration order
  /// is construction order, hence deterministic.
  [[nodiscard]] std::uint16_t register_track(std::string name) {
    track_names_.push_back(std::move(name));
    return static_cast<std::uint16_t>(track_names_.size() - 1);
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Records currently held (min(total, capacity)).
  [[nodiscard]] std::size_t size() const {
    return total_ < ring_.size() ? static_cast<std::size_t>(total_) : ring_.size();
  }
  /// Records ever written; size() fewer than this were overwritten.
  [[nodiscard]] std::uint64_t total_records() const { return total_; }
  /// Records ever written, by kind — maintained in record() so consumers
  /// that only need activity counts (the live publisher's per-interval
  /// harvest) are O(kinds), never O(records), and stay exact across wraps.
  [[nodiscard]] const std::array<std::uint64_t,
                                 static_cast<std::size_t>(RecordKind::kKindCount)>&
  kind_totals() const {
    return kind_totals_;
  }
  [[nodiscard]] std::uint64_t dropped_records() const {
    return total_ - static_cast<std::uint64_t>(size());
  }

  /// i-th surviving record, oldest first.
  [[nodiscard]] const TraceRecord& at(std::size_t i) const {
    const std::size_t n = size();
    const std::size_t start = total_ > n ? pos_ : 0;
    const std::size_t idx = start + i;
    return ring_[idx >= ring_.size() ? idx - ring_.size() : idx];
  }

  [[nodiscard]] const std::vector<std::string>& track_names() const {
    return track_names_;
  }

 private:
  std::vector<TraceRecord> ring_;
  std::vector<std::string> track_names_;
  std::array<std::uint64_t, static_cast<std::size_t>(RecordKind::kKindCount)>
      kind_totals_{};
  std::size_t pos_ = 0;
  std::uint64_t total_ = 0;
  std::uint32_t mask_ = kDefaultKinds;
  bool enabled_ = false;
};

}  // namespace lossburst::obs

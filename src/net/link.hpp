// A unidirectional link: serialization at a fixed rate, then fixed
// propagation delay, fed by a queue discipline. This is the ns-2 link model.
//
// The propagation stage is an in-flight FIFO (DESIGN.md §7 "Packet
// datapath"): serialization finishes in start order and the propagation
// delay is a per-link constant, so arrivals at the far end are FIFO too.
// The link therefore keeps at most two pending events — one "transmit
// done" and one "head of flight arrives" — each capturing only `this`,
// instead of scheduling one fat packet-carrying event per packet in flight.
// Every dequeue, fault verdict and drop happens inside one of those events,
// stamped with its `now`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fault/channel.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "util/ring_buffer.hpp"

namespace lossburst::net {

/// Far end of a link whose receiver lives in another shard (DESIGN.md §12).
/// When attached, the link's serializer hands every surviving packet to
/// handoff() at the end of its serialization slot — in place of the local
/// flight/arrival path — and the destination shard replays propagation and
/// delivery on its side of the cut. Implemented by net::ShardedNetwork.
class BoundaryHop {
 public:
  virtual ~BoundaryHop() = default;
  /// `finish_ns` is the serialization end — the instant the serial engine
  /// would have scheduled the arrival at (the wedge key); arrival is
  /// finish + delay, computed by the destination. Duplicates call twice.
  virtual void handoff(const Packet& pkt, const PacketOptions* opt,
                       std::int64_t finish_ns) = 0;
};

class Link {
 public:
  /// `rate_bps` is the line rate in bits/second; `delay` the one-way
  /// propagation latency. The link takes ownership of its queue; packets
  /// are resolved against `pool` (one pool per Network).
  Link(sim::Simulator& sim, PacketPool& pool, std::string name, std::uint64_t rate_bps,
       Duration delay, std::unique_ptr<Queue> queue);
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offer a packet for transmission. May drop (queue's decision); either
  /// way ownership of the handle transfers to the link.
  void enqueue(PacketHandle h);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t rate_bps() const { return rate_bps_; }
  [[nodiscard]] Duration delay() const { return delay_; }
  [[nodiscard]] Queue& queue() { return *queue_; }
  [[nodiscard]] const Queue& queue() const { return *queue_; }
  [[nodiscard]] PacketPool& pool() { return pool_; }

  /// Serialization time for a packet of `bytes` at the line rate.
  [[nodiscard]] Duration tx_time(std::uint32_t bytes) const;

  /// Bandwidth-delay product of this link in data packets (for buffer
  /// sizing): rate * delay / packet size.
  [[nodiscard]] double bdp_packets(std::uint32_t pkt_bytes = kDataPacketBytes) const;

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }

  /// Debug conservation support (DESIGN.md §9): append every handle the
  /// link currently owns — queued, serializing, and in flight — in
  /// deterministic order. Used by the Network teardown leak check.
  void debug_append_handles(std::vector<PacketHandle>& out) const;

  /// Optional per-packet processing-time overhead, sampled before
  /// serialization. Used by the Dummynet emulation model to inject the
  /// scheduling noise a software router adds; nullptr (default) = ideal
  /// hardware router.
  // lossburst-lint: allow(datapath-alloc): constructed once at topology setup; the datapath only invokes it
  void set_processing_jitter(std::function<Duration()> fn) {
    processing_jitter_ = std::move(fn);
  }

  /// Mark this link as crossing a shard boundary (DESIGN.md §12): packets
  /// leave through `b->handoff()` at serialization end instead of entering
  /// the local flight. Set once at topology wiring; flap/stall fault specs
  /// are rejected on boundary links (their in-flight kill/park semantics
  /// cannot be replayed race-free across the cut).
  void set_boundary(BoundaryHop* b) { boundary_ = b; }
  [[nodiscard]] bool is_boundary() const { return boundary_ != nullptr; }

  /// Attach (or with nullptr detach) fault-injection state (DESIGN.md §10).
  /// The state is owned by the fault::FaultInjector and must outlive the
  /// attachment. With no state attached the datapath pays one null check.
  void attach_fault(fault::LinkFaultState* state) { fault_ = state; }
  [[nodiscard]] fault::LinkFaultState* fault() { return fault_; }

  /// Control-plane transitions, invoked by injector-scheduled events.
  /// Down: serialization stops and, under DownPolicy::kDrop, every packet in
  /// flight is lost; under kPark the flight freezes and replays (FIFO, never
  /// in the past) when the link comes back up. Queued packets stay queued —
  /// the router buffer survives an interface flap. Stalled freezes dequeue
  /// only; packets already in flight keep propagating.
  void fault_set_down(bool down);
  void fault_set_stalled(bool stalled);

 private:
  void start_tx();
  void finish_tx();
  void on_arrival();
  void deliver(PacketHandle h);
  void register_observability(obs::Telemetry& telemetry);
  void fault_drop(PacketHandle h, fault::FaultCause cause);
  void fault_drop_via(PacketHandle h, fault::FaultCause cause, fault::LinkFaultState* origin);
  void fault_record_event(bool enter, fault::FaultCause cause);

  struct InFlight {
    PacketHandle h;
    std::int64_t arrive_ns;
  };

  sim::Simulator& sim_;
  PacketPool& pool_;
  std::string name_;
  std::uint64_t rate_bps_;
  Duration delay_;
  std::unique_ptr<Queue> queue_;
  // lossburst-lint: allow(datapath-alloc): assigned once at topology setup, invoked per packet
  std::function<Duration()> processing_jitter_;

  // Precomputed serialization factor (see tx_time): real line rates divide
  // 8e9 (or at worst 8e12) evenly, so the per-packet cost is one multiply.
  enum class TxMode : std::uint8_t { kNanosExact, kPicosExact, kExact128 };
  TxMode tx_mode_ = TxMode::kExact128;
  std::uint64_t tx_per_byte_ = 0;     ///< ns/byte or ps/byte, per tx_mode_
  std::uint64_t mul_safe_bytes_ = 0;  ///< overflow guard for the fast path

  [[nodiscard]] Duration tx_time_slow(std::uint32_t bytes) const;

  PacketHandle tx_head_{};  ///< packet currently serializing
  util::RingBuffer<InFlight> flight_;
  sim::EventHandle arrive_event_;  ///< pending head-of-flight arrival
  fault::LinkFaultState* fault_ = nullptr;  ///< owned by the FaultInjector
  BoundaryHop* boundary_ = nullptr;         ///< owned by the ShardedNetwork
  bool busy_ = false;

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  obs::Telemetry* telemetry_ = nullptr;  ///< where our metrics were registered
  std::uint16_t obs_track_ = 0;          ///< flight-recorder track for deliveries
};

/// Deliver a packet into the first hop of its route (copying it into that
/// link's pool), or directly to its sink when the route is empty
/// (loopback-style, used in unit tests — no pool involved).
void inject(Packet&& pkt, const PacketOptions* opt = nullptr);

}  // namespace lossburst::net

// Router queue disciplines. The queue is where the paper's subject — the
// packet loss process — is generated, so every queue reports each drop (and
// ECN mark) through a tracer interface with the exact simulated timestamp.
//
// Queues store 8-byte PacketHandles in a growable ring buffer (std::deque
// would allocate block nodes during steady-state churn); the packets
// themselves stay put in the attached PacketPool. enqueue() takes ownership
// of the handle unconditionally: an accepted packet is stored, a dropped one
// is released back to the pool after the tracer sees it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"
#include "util/ring_buffer.hpp"

namespace lossburst::net {

/// Observes queue-level events. Implementations must not mutate the queue.
class QueueTracer {
 public:
  virtual ~QueueTracer() = default;
  virtual void on_drop(TimePoint t, const Packet& pkt, std::size_t queue_len_pkts) = 0;
  virtual void on_mark(TimePoint /*t*/, const Packet& /*pkt*/, std::size_t /*queue_len_pkts*/) {}
  virtual void on_enqueue(TimePoint /*t*/, const Packet& /*pkt*/, std::size_t /*queue_len_pkts*/) {}
};

struct QueueCounters {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t marked = 0;
  std::uint64_t dequeued = 0;
};

class Queue {
 public:
  virtual ~Queue() = default;

  /// Offer a packet. Returns true if accepted (packet stored, possibly CE
  /// marked); false if dropped — the handle is released back to the pool
  /// after the drop is reported, so the caller must not use it again.
  virtual bool enqueue(PacketHandle h) = 0;

  /// Remove the head packet; ownership of the handle transfers to the
  /// caller. Precondition: !empty().
  virtual PacketHandle dequeue() = 0;

  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual std::size_t len_packets() const = 0;
  [[nodiscard]] virtual std::size_t len_bytes() const = 0;

  [[nodiscard]] const QueueCounters& counters() const { return counters_; }

  /// Runtime retune (serve-layer control plane, DESIGN.md §13): change the
  /// capacity in packets, applied at a deterministic event boundary by the
  /// caller. Already-queued packets are never evicted — a shrunken buffer
  /// drains down to the new limit. Returns false for disciplines that have
  /// no packet-count capacity knob.
  virtual bool set_capacity_pkts(std::size_t /*capacity*/) { return false; }

  void set_tracer(QueueTracer* tracer) { tracer_ = tracer; }
  /// The owning link wires in the simulator (for exact drop timestamps) and
  /// the packet pool the stored handles resolve against.
  void attach(sim::Simulator* sim, PacketPool* pool) {
    sim_ = sim;
    pool_ = pool;
  }
  /// Flight-recorder track for this queue's records (set by the owning link
  /// when telemetry is attached; 0 = engine track, effectively untracked).
  void set_obs_track(std::uint16_t track) { obs_track_ = track; }

  /// Debug conservation support (DESIGN.md §9): append every handle the
  /// queue currently holds, in FIFO order. Used by the Network teardown
  /// leak check; not a datapath call.
  virtual void debug_append_handles(std::vector<PacketHandle>& out) const = 0;

 protected:
  /// Shared implementation of debug_append_handles for ring-backed queues.
  static void append_ring(const util::RingBuffer<PacketHandle>& ring,
                          std::vector<PacketHandle>& out) {
    for (std::size_t i = 0; i < ring.size(); ++i) out.push_back(ring[i]);
  }
  [[nodiscard]] TimePoint now() const { return sim_ ? sim_->now() : TimePoint::zero(); }
  [[nodiscard]] PacketPool& pool() { return *pool_; }
  [[nodiscard]] Packet& pkt(PacketHandle h) { return (*pool_)[h]; }

  /// Flight-recorder hook shared by all report paths. Costs one or two
  /// predictable branches when telemetry is detached or the record kind is
  /// masked off.
  void obs_record(obs::RecordKind k, const Packet& p, std::size_t qlen) {
    if (sim_ == nullptr) return;
    if (obs::FlightRecorder* rec = obs::trace_recorder(sim_->telemetry(), k)) {
      rec->record(k, now().ns(), obs_track_, obs::pack_packet(p.flow, p.seq),
                  static_cast<std::uint32_t>(qlen));
    }
  }

  /// Report + release: the tracer sees the packet while it is still live.
  void drop(PacketHandle h, std::size_t qlen) {
    ++counters_.dropped;
    const Packet& p = (*pool_)[h];
    obs_record(obs::RecordKind::kPktDrop, p, qlen);
    if (tracer_) tracer_->on_drop(now(), p, qlen);
    pool_->release(h);
  }
  void report_mark(const Packet& p, std::size_t qlen) {
    ++counters_.marked;
    obs_record(obs::RecordKind::kPktMark, p, qlen);
    if (tracer_) tracer_->on_mark(now(), p, qlen);
  }
  void report_enqueue(const Packet& p, std::size_t qlen) {
    ++counters_.enqueued;
    obs_record(obs::RecordKind::kPktEnqueue, p, qlen);
    if (tracer_) tracer_->on_enqueue(now(), p, qlen);
  }
  void report_dequeue(const Packet& p, std::size_t qlen) {
    ++counters_.dequeued;
    obs_record(obs::RecordKind::kPktDequeue, p, qlen);
  }

  sim::Simulator* sim_ = nullptr;
  PacketPool* pool_ = nullptr;
  QueueTracer* tracer_ = nullptr;
  QueueCounters counters_;
  std::uint16_t obs_track_ = 0;
};

/// FIFO tail-drop queue with a fixed capacity in packets — the discipline
/// the paper identifies as the major source of loss burstiness.
class DropTailQueue final : public Queue {
 public:
  explicit DropTailQueue(std::size_t capacity_pkts) : capacity_(capacity_pkts) {}

  bool enqueue(PacketHandle h) override;
  PacketHandle dequeue() override;
  [[nodiscard]] bool empty() const override { return q_.empty(); }
  [[nodiscard]] std::size_t len_packets() const override { return q_.size(); }
  [[nodiscard]] std::size_t len_bytes() const override { return bytes_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  bool set_capacity_pkts(std::size_t capacity) override {
    capacity_ = capacity;
    return true;
  }
  void debug_append_handles(std::vector<PacketHandle>& out) const override {
    append_ring(q_, out);
  }

 private:
  std::size_t capacity_;
  util::RingBuffer<PacketHandle> q_;
  std::size_t bytes_ = 0;
};

/// Random Early Detection (Floyd & Jacobson 1993), "gentle" variant.
/// Between min_th and max_th the drop/mark probability ramps to max_p; between
/// max_th and 2*max_th it ramps from max_p to 1. The inter-drop count rule
/// spreads drops out, which is exactly the de-bursting effect §5 discusses.
class RedQueue final : public Queue {
 public:
  struct Params {
    std::size_t capacity_pkts = 100;
    double min_th = 5;       ///< packets
    double max_th = 15;      ///< packets
    double max_p = 0.1;
    double weight = 0.002;   ///< EWMA weight w_q
    bool ecn_mark = false;   ///< mark ECN-capable packets instead of dropping
    bool gentle = true;
  };

  RedQueue(Params params, util::Rng rng) : params_(params), rng_(rng) {}

  bool enqueue(PacketHandle h) override;
  PacketHandle dequeue() override;
  [[nodiscard]] bool empty() const override { return q_.empty(); }
  [[nodiscard]] std::size_t len_packets() const override { return q_.size(); }
  [[nodiscard]] std::size_t len_bytes() const override { return bytes_; }
  void debug_append_handles(std::vector<PacketHandle>& out) const override {
    append_ring(q_, out);
  }

  [[nodiscard]] double avg_queue() const { return avg_; }

 private:
  /// Probability of dropping/marking at the current average queue size.
  [[nodiscard]] double drop_probability() const;

  Params params_;
  util::Rng rng_;
  util::RingBuffer<PacketHandle> q_;
  std::size_t bytes_ = 0;
  double avg_ = 0.0;
  std::int64_t count_since_last_ = -1;  ///< packets since last drop/mark
  TimePoint idle_since_ = TimePoint::zero();
  bool idle_ = true;
};

/// DropTail plus the "persistent ECN" signal of the authors' companion
/// proposal [22]: after any drop (congestion onset), every ECN-capable packet
/// is CE-marked for a configurable window (about one RTT), so *all* flows
/// sharing the bottleneck receive the congestion signal, not just the ones
/// whose packets happened to sit in the overflow burst.
class PersistentEcnQueue final : public Queue {
 public:
  PersistentEcnQueue(std::size_t capacity_pkts, Duration mark_window)
      : capacity_(capacity_pkts), mark_window_(mark_window) {}

  bool enqueue(PacketHandle h) override;
  PacketHandle dequeue() override;
  [[nodiscard]] bool empty() const override { return q_.empty(); }
  [[nodiscard]] std::size_t len_packets() const override { return q_.size(); }
  [[nodiscard]] std::size_t len_bytes() const override { return bytes_; }
  void debug_append_handles(std::vector<PacketHandle>& out) const override {
    append_ring(q_, out);
  }

  [[nodiscard]] TimePoint marking_until() const { return mark_until_; }

 private:
  std::size_t capacity_;
  Duration mark_window_;
  util::RingBuffer<PacketHandle> q_;
  std::size_t bytes_ = 0;
  TimePoint mark_until_ = TimePoint::zero();
};

}  // namespace lossburst::net

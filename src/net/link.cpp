#include "net/link.hpp"

#include <cassert>
#include <limits>
#include <utility>

#include "util/invariant.hpp"

namespace lossburst::net {

Link::Link(sim::Simulator& sim, PacketPool& pool, std::string name, std::uint64_t rate_bps,
           Duration delay, std::unique_ptr<Queue> queue)
    : sim_(sim), pool_(pool), name_(std::move(name)), rate_bps_(rate_bps), delay_(delay),
      queue_(std::move(queue)) {
  assert(rate_bps_ > 0);
  assert(queue_);
  queue_->attach(&sim_, &pool_);
  if (obs::Telemetry* t = sim_.telemetry()) register_observability(*t);
  // Serialization is ns = bytes * 8e9 / rate. Every real line rate divides
  // 8e9 (or failing that 8e12) evenly, so precompute the exact per-byte
  // factor once and reduce the per-packet cost to a single multiply.
  if (8'000'000'000ULL % rate_bps_ == 0) {
    tx_mode_ = TxMode::kNanosExact;
    tx_per_byte_ = 8'000'000'000ULL / rate_bps_;
  } else if (8'000'000'000'000ULL % rate_bps_ == 0) {
    tx_mode_ = TxMode::kPicosExact;
    tx_per_byte_ = 8'000'000'000'000ULL / rate_bps_;
  } else {
    tx_mode_ = TxMode::kExact128;
  }
  mul_safe_bytes_ =
      tx_per_byte_ == 0
          ? 0
          : static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) / tx_per_byte_;
}

Link::~Link() {
  if (telemetry_ != nullptr) telemetry_->registry().release(this);
}

// Called once at construction when the simulator already carries telemetry:
// name our flight-recorder tracks and expose the link/queue counters. The
// registry reads members in place, so nothing here touches the datapath.
void Link::register_observability(obs::Telemetry& telemetry) {
  telemetry_ = &telemetry;
  obs_track_ = telemetry.recorder().register_track("link " + name_);
  queue_->set_obs_track(telemetry.recorder().register_track("queue " + name_));

  obs::Registry& reg = telemetry.registry();
  reg.add_counter("link." + name_ + ".bytes_sent", &bytes_sent_, this);
  reg.add_counter("link." + name_ + ".packets_sent", &packets_sent_, this);
  const QueueCounters& qc = queue_->counters();
  reg.add_counter("queue." + name_ + ".enqueued", &qc.enqueued, this);
  reg.add_counter("queue." + name_ + ".dropped", &qc.dropped, this);
  reg.add_counter("queue." + name_ + ".marked", &qc.marked, this);
  reg.add_counter("queue." + name_ + ".dequeued", &qc.dequeued, this);
  reg.add(obs::MetricKind::kGauge, "queue." + name_ + ".len_pkts",
          [](const void* c) {
            return static_cast<double>(static_cast<const Queue*>(c)->len_packets());
          },
          queue_.get(), this);
}

void Link::debug_append_handles(std::vector<PacketHandle>& out) const {
  queue_->debug_append_handles(out);
  if (!tx_head_.null()) out.push_back(tx_head_);
  for (std::size_t i = 0; i < flight_.size(); ++i) out.push_back(flight_[i].h);
}

Duration Link::tx_time(std::uint32_t bytes) const {
  if (bytes <= mul_safe_bytes_) {
    const std::uint64_t prod = tx_per_byte_ * bytes;
    return Duration(static_cast<std::int64_t>(
        tx_mode_ == TxMode::kNanosExact ? prod : prod / 1000));
  }
  return tx_time_slow(bytes);
}

Duration Link::tx_time_slow(std::uint32_t bytes) const {
  // Odd rates and jumbo sizes: do the whole computation in 128 bits (the
  // old "bits * 1e9 / rate" order overflowed 64 bits past ~2.3 GB) and
  // saturate rather than wrap.
  const unsigned __int128 ns =
      static_cast<unsigned __int128>(bytes) * 8u * 1'000'000'000ULL / rate_bps_;
  constexpr auto kMax =
      static_cast<unsigned __int128>(std::numeric_limits<std::int64_t>::max());
  return Duration(static_cast<std::int64_t>(ns > kMax ? kMax : ns));
}

double Link::bdp_packets(std::uint32_t pkt_bytes) const {
  const double bytes_per_sec = static_cast<double>(rate_bps_) / 8.0;
  return bytes_per_sec * delay_.seconds() / static_cast<double>(pkt_bytes);
}

void Link::enqueue(PacketHandle h) {
  if (!queue_->enqueue(h)) return;  // dropped (queue released the handle)
  // A down or stalled link keeps accepting into its queue (the router buffer
  // survives an interface flap); serialization resumes on the up edge.
  if (busy_ || (fault_ != nullptr && fault_->gates_tx())) return;
  // Idle line: the packet just queued is alone — every other path out of
  // busy_ either drains the queue or closes the tx gates, and the gate
  // reopening edge serves the queue immediately.
  LOSSBURST_INVARIANT(queue_->len_packets() == 1,
                      "an idle ungated link found more than the just-queued packet");
  start_tx();
}

void Link::start_tx() {
  assert(!queue_->empty());
  busy_ = true;
  const PacketHandle h = queue_->dequeue();
  const Packet& p = pool_[h];
  Duration tx = tx_time(p.size_bytes);
  if (processing_jitter_) tx += processing_jitter_();
  bytes_sent_ += p.size_bytes;
  ++packets_sent_;
  tx_head_ = h;
  sim_.in(tx, [this] { finish_tx(); }, obs::EventTag::kLinkTx);
}

void Link::finish_tx() {
  sim_.count_link_unit();  // one packet's service completes here
  // Propagation: the head packet arrives at the far end after `delay_`.
  // Serialization completes in start order and the delay is constant, so
  // arrivals are FIFO — one pending arrival event (for the flight's head)
  // suffices; on_arrival re-arms for the next packet.
  //
  // Attached fault state resolves the packet here, at the end of its
  // serialization slot: drops still consume line time (a faulty wire is not
  // a faster wire) and the Gilbert chain advances exactly once per
  // transmitted packet in serialization order, which is what lets the
  // analysis fitter recover the injected parameters (DESIGN.md §10).
  const PacketHandle head = tx_head_;
  tx_head_ = PacketHandle{};
  const std::int64_t arrive_ns = (sim_.now() + delay_).ns();
  bool lost = false;
  bool duplicated = false;
  if (fault_ != nullptr) {
    const std::int64_t now_ns = sim_.now().ns();
    if (fault_->down && fault_->policy == fault::DownPolicy::kDrop) {
      // The link died mid-serialization: this packet went into a dead wire.
      ++fault_->counters.flap_drops;
      fault_drop(head, fault::FaultCause::kFlap);
      lost = true;
    } else if (!fault_->down && fault_->loss_drop(now_ns)) {
      fault_drop(head, fault::FaultCause::kGilbert);
      lost = true;
    } else {
      if (fault_->corrupt_now(now_ns)) pool_[head].corrupted_by = fault_;
      duplicated = fault_->duplicate_now(now_ns);
    }
  }
  if (!lost) {
    if (boundary_ != nullptr) {
      // Cross-shard exit (DESIGN.md §12): the packet leaves this shard at
      // serialization end; the destination shard replays propagation and
      // delivery. Gilbert/corrupt/duplicate verdicts were resolved above,
      // on this side of the cut, so the fault RNG streams advance exactly
      // as in the serial run.
      const Packet& p = pool_[head];
      const std::int64_t finish_ns = sim_.now().ns();
      boundary_->handoff(p, pool_.options_of(p), finish_ns);
      if (duplicated) boundary_->handoff(p, pool_.options_of(p), finish_ns);
      pool_.release(head);
    } else {
      flight_.push_back(InFlight{head, arrive_ns});
      if (duplicated) {
        const Packet& p = pool_[head];
        flight_.push_back(InFlight{pool_.materialize(p, pool_.options_of(p)), arrive_ns});
      }
      if (fault_ != nullptr && fault_->down) {
        // DownPolicy::kPark: hold in the frozen flight; fault_set_down(false)
        // replays the backlog.
        fault_->counters.parked += duplicated ? 2u : 1u;
      } else if (!arrive_event_.pending()) {
        arrive_event_ = sim_.at(TimePoint(arrive_ns), [this] { on_arrival(); },
                                obs::EventTag::kLinkArrive);
      }
    }
  }
  busy_ = false;
  // A gated link resumes on the up / unstall edge.
  if (!queue_->empty() && (fault_ == nullptr || !fault_->gates_tx())) start_tx();
}

void Link::on_arrival() {
  const InFlight f = flight_.pop_front();
  assert(f.arrive_ns == sim_.now().ns());
  if (!flight_.empty()) {
    arrive_event_ = sim_.at(TimePoint(flight_.front().arrive_ns), [this] { on_arrival(); },
                            obs::EventTag::kLinkArrive);
  }
  deliver(f.h);
}

void Link::fault_set_down(bool down) {
  if (fault_ == nullptr || fault_->down == down) return;
  fault_->down = down;
  if (down) {
    ++fault_->counters.down_transitions;
    fault_record_event(true, fault::FaultCause::kFlap);
    arrive_event_.cancel();
    if (fault_->policy == fault::DownPolicy::kDrop) {
      // Fiber cut: everything propagating is lost. A packet mid-serialization
      // (tx_head_) is resolved when its kLinkTx event fires.
      while (!flight_.empty()) {
        const InFlight f = flight_.pop_front();
        ++fault_->counters.flap_drops;
        fault_drop(f.h, fault::FaultCause::kFlap);
      }
    } else {
      // kPark: the in-flight tail freezes where it is until the up edge.
      fault_->counters.parked += flight_.size();
    }
    return;
  }
  fault_record_event(false, fault::FaultCause::kFlap);
  // Up edge: replay the parked flight. Arrivals must not be scheduled in the
  // past and must stay FIFO, so clamp each entry to its predecessor.
  std::int64_t floor_ns = sim_.now().ns();
  for (std::size_t i = 0; i < flight_.size(); ++i) {
    InFlight& f = flight_[i];
    if (f.arrive_ns < floor_ns) f.arrive_ns = floor_ns;
    floor_ns = f.arrive_ns;
  }
  if (!flight_.empty() && !arrive_event_.pending()) {
    arrive_event_ = sim_.at(TimePoint(flight_.front().arrive_ns), [this] { on_arrival(); },
                            obs::EventTag::kLinkArrive);
  }
  if (!busy_ && !fault_->gates_tx() && !queue_->empty()) start_tx();
}

void Link::fault_set_stalled(bool stalled) {
  if (fault_ == nullptr || fault_->stalled == stalled) return;
  fault_->stalled = stalled;
  if (stalled) {
    ++fault_->counters.stall_windows;
    fault_record_event(true, fault::FaultCause::kStall);
    return;  // in-flight packets keep propagating; only dequeue freezes
  }
  fault_record_event(false, fault::FaultCause::kStall);
  if (!busy_ && !fault_->gates_tx() && !queue_->empty()) start_tx();
}

// Drop a handle on behalf of the fault layer: emit the flight-recorder
// record, feed the experiment's loss trace (so injected losses join the
// queue-drop stream the analysis consumes), and release the pool slot.
// Cause-specific counters are incremented at the call sites.
void Link::fault_drop(PacketHandle h, fault::FaultCause cause) {
  fault_drop_via(h, cause, fault_);
}

// As fault_drop, but charged to an explicit fault state: `origin` is the
// state of the link that caused the damage — usually this link's own, but a
// checksum-drop executes at the final hop while the corruption was injected
// (and counted) possibly several hops upstream, and the tracer/obs track of
// that upstream link are the ones the analysis stream must see.
void Link::fault_drop_via(PacketHandle h, fault::FaultCause cause,
                          fault::LinkFaultState* origin) {
  const Packet& p = pool_[h];
  if (obs::FlightRecorder* rec =
          obs::trace_recorder(sim_.telemetry(), obs::RecordKind::kFaultDrop)) {
    const std::uint16_t track =
        (origin != nullptr && origin->obs_track != 0) ? origin->obs_track : obs_track_;
    rec->record(obs::RecordKind::kFaultDrop, sim_.now().ns(), track,
                obs::pack_packet(p.flow, p.seq), static_cast<std::uint32_t>(cause));
  }
  if (origin != nullptr && origin->tracer != nullptr) {
    origin->tracer->on_drop(sim_.now(), p, queue_->len_packets());
  }
  pool_.release(h);
}

void Link::fault_record_event(bool enter, fault::FaultCause cause) {
  if (obs::FlightRecorder* rec =
          obs::trace_recorder(sim_.telemetry(), obs::RecordKind::kFaultEvent)) {
    const std::uint16_t track =
        (fault_ != nullptr && fault_->obs_track != 0) ? fault_->obs_track : obs_track_;
    rec->record(obs::RecordKind::kFaultEvent, sim_.now().ns(), track, enter ? 1u : 0u,
                static_cast<std::uint32_t>(cause));
  }
}

void Link::deliver(PacketHandle h) {
  Packet& p = pool_[h];
  if (p.route != nullptr && static_cast<std::size_t>(p.hop) + 1 < p.route->size()) {
    ++p.hop;
    Link* next = (*p.route)[p.hop];
    assert(&next->pool_ == &pool_);  // routes never cross Network pools
    next->enqueue(h);
    return;
  }
  assert(p.sink != nullptr);
  if (p.corrupted_by != nullptr) {
    // Receiver-side checksum drop: a corrupted payload traverses every hop
    // (it still holds queue slots and line time) but the endpoint never
    // sees it. The drop is charged to the fault state of the link that
    // injected (and counted) the damage, which rode along in the packet —
    // this delivering hop usually has no fault state of its own.
    fault_drop_via(h, fault::FaultCause::kCorrupt, p.corrupted_by);
    return;
  }
  if (obs::FlightRecorder* rec =
          obs::trace_recorder(sim_.telemetry(), obs::RecordKind::kPktDeliver)) {
    rec->record(obs::RecordKind::kPktDeliver, sim_.now().ns(), obs_track_,
                obs::pack_packet(p.flow, p.seq), 0);
  }
  Endpoint* sink = p.sink;
  sink->receive(p, pool_.options_of(p));
  pool_.release(h);
}

void inject(Packet&& pkt, const PacketOptions* opt) {
  if (pkt.route != nullptr && !pkt.route->empty()) {
    pkt.hop = 0;
    Link* first = (*pkt.route)[0];
    first->enqueue(first->pool().materialize(pkt, opt));
    return;
  }
  assert(pkt.sink != nullptr);
  pkt.sink->receive(pkt, opt);
}

}  // namespace lossburst::net

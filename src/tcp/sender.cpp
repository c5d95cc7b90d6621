#include "tcp/sender.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <string>

#include "net/link.hpp"
#include "util/invariant.hpp"

namespace lossburst::tcp {

using util::Duration;
using util::TimePoint;

// State-machine sanity (DESIGN.md §9), checked after every ACK in
// instrumented builds. The window bound allows the dup-ACK inflation of
// fast recovery (up to one segment per ACK of the pre-recovery flight) on
// top of the configured maximum.
void TcpSender::debug_check_state() const {
  LOSSBURST_INVARIANT(snd_una_ <= snd_next_,
                      "TCP send cursor fell behind the cumulative ACK point");
  LOSSBURST_INVARIANT(cwnd_ >= 1.0, "TCP cwnd collapsed below one segment");
  if (params_.variant != CcVariant::kVegas) {
    // (Vegas exempt: its once-per-RTT +1 probe is not clamped to max_cwnd;
    // the emission gate clamps the effective window instead.)
    LOSSBURST_INVARIANT(
        cwnd_ <= params_.max_cwnd + static_cast<double>(flight_at_recovery_) + 3.0,
        "TCP cwnd exceeds max_cwnd plus the recovery inflation allowance");
  }
  LOSSBURST_INVARIANT(ssthresh_ >= std::min(2.0, params_.initial_ssthresh),
                      "TCP ssthresh fell below two segments");
  LOSSBURST_INVARIANT(!completed_ || outstanding() == 0 || params_.total_segments == 0,
                      "TCP transfer completed with segments still outstanding");
  if (params_.sack_enabled) {
    // recover_ tracks the highest sequence sent before the last reset, so
    // max(snd_next_, recover_) bounds every sequence the receiver can SACK.
    sack_.debug_validate(snd_una_, std::max(snd_next_, recover_));
  }
}

TcpSender::TcpSender(sim::Simulator& sim, FlowId flow, Params params)
    : sim_(sim), flow_(flow), params_(params),
      cwnd_(params.initial_cwnd), ssthresh_(params.initial_ssthresh),
      rtt_(params.rtt) {
  if (obs::Telemetry* t = sim_.telemetry()) register_observability(*t);
}

TcpSender::~TcpSender() {
  if (telemetry_ != nullptr) {
    telemetry_->registry().release(this);
    telemetry_->flows().release(this);
  }
}

// Construction-time only (DESIGN.md §8): every per-flow gauge reads a plain
// member in place at sample time; the counters are the SenderStats fields
// the sender was already maintaining.
void TcpSender::register_observability(obs::Telemetry& telemetry) {
  telemetry_ = &telemetry;
  const std::string base = "flow" + std::to_string(flow_);
  obs_track_ = telemetry.recorder().register_track(base);
  obs::Registry& reg = telemetry.registry();
  reg.add(obs::MetricKind::kGauge, base + ".cwnd",
          [](const void* c) { return static_cast<const TcpSender*>(c)->cwnd_; }, this, this);
  reg.add(obs::MetricKind::kGauge, base + ".ssthresh",
          [](const void* c) { return static_cast<const TcpSender*>(c)->ssthresh_; }, this,
          this);
  reg.add(obs::MetricKind::kGauge, base + ".srtt_s",
          [](const void* c) { return static_cast<const TcpSender*>(c)->rtt_.srtt().seconds(); },
          this, this);
  reg.add(obs::MetricKind::kGauge, base + ".outstanding",
          [](const void* c) {
            return static_cast<double>(static_cast<const TcpSender*>(c)->outstanding());
          },
          this, this);
  reg.add_counter(base + ".segments_sent", &stats_.segments_sent, this);
  reg.add_counter(base + ".retransmits", &stats_.retransmits, this);
  reg.add_counter(base + ".fast_retransmits", &stats_.fast_retransmits, this);
  reg.add_counter(base + ".timeouts", &stats_.timeouts, this);
  reg.add_counter(base + ".congestion_events", &stats_.congestion_events, this);
  reg.add_counter(base + ".ecn_responses", &stats_.ecn_responses, this);
  telemetry.flows().add(
      flow_,
      [](const void* c) {
        const auto* s = static_cast<const TcpSender*>(c);
        obs::FlowSample f;
        f.bytes = s->stats_.segments_sent * s->params_.segment_bytes;
        f.retransmits = s->stats_.retransmits;
        f.losses = s->stats_.congestion_events;
        return f;
      },
      this, this);
}

void TcpSender::obs_cwnd() {
  if (obs::FlightRecorder* rec =
          obs::trace_recorder(sim_.telemetry(), obs::RecordKind::kCwnd)) {
    std::uint64_t bits;
    std::memcpy(&bits, &cwnd_, sizeof(bits));
    rec->record(obs::RecordKind::kCwnd, sim_.now().ns(), obs_track_, bits, 0);
  }
}

void TcpSender::start(TimePoint at) {
  assert(route_ != nullptr && receiver_ != nullptr);
  sim_.at(at, [this] {
    started_ = true;
    try_send();
  }, obs::EventTag::kAppStart);
}

std::uint64_t TcpSender::effective_window() const {
  const double w = std::min(cwnd_, params_.max_cwnd);
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(w));
}

bool TcpSender::has_data_to_send() const {
  if (params_.total_segments == 0) return true;
  return snd_next_ < params_.total_segments;
}

void TcpSender::emit_segment(SeqNum seq, bool retransmit) {
  Packet pkt;
  pkt.flow = flow_;
  pkt.seq = seq;
  pkt.size_bytes = params_.segment_bytes;
  pkt.sent = sim_.now();
  pkt.ecn_capable = params_.ecn_enabled;
  pkt.route = route_;
  pkt.sink = receiver_;
  ++stats_.segments_sent;
  if (retransmit) ++stats_.retransmits;
  if (params_.sack_enabled) sack_.on_transmit(seq, retransmit);
  if (tx_trace_enabled_) tx_trace_.push_back(TxRecord{sim_.now(), seq, retransmit});
  net::inject(std::move(pkt));
  arm_rto();  // starts the timer only if idle; progress restarts it elsewhere
}

void TcpSender::try_send() {
  if (!started_ || completed_) return;
  if (params_.sack_enabled) {
    sack_try_send();
    return;
  }
  if (params_.emission == EmissionMode::kPaced) {
    arm_pacing();
    return;
  }
  // Window-based: flush everything the window allows, back-to-back. This is
  // the burst behaviour at the heart of the paper's fairness argument.
  while (has_data_to_send() && outstanding() < effective_window()) {
    emit_segment(snd_next_++, /*retransmit=*/false);
  }
}

Duration TcpSender::pacing_interval() const {
  const Duration rtt_est = rtt_.has_sample() ? rtt_.srtt() : params_.pacing_rtt_hint;
  const double w = static_cast<double>(effective_window());
  const auto ns = static_cast<std::int64_t>(static_cast<double>(rtt_est.ns()) / w);
  return std::max(Duration::nanos(ns), Duration::micros(1));
}

bool TcpSender::pacing_can_send() const {
  if (params_.sack_enabled) {
    if (sack_.pipe() >= static_cast<std::int64_t>(effective_window())) return false;
    if (in_recovery_ && sack_.next_hole(snd_una_)) return true;
    return has_data_to_send();
  }
  return has_data_to_send() && outstanding() < effective_window();
}

void TcpSender::arm_pacing() {
  if (pacing_armed_ || completed_) return;
  if (!pacing_can_send()) return;
  // Credit for time already waited: if an interval has elapsed since the
  // last emission (window was closed, ACK just opened it), send now rather
  // than idling another full interval.
  Duration wait = pacing_interval();
  if (last_paced_send_ >= TimePoint::zero()) {
    const Duration since = sim_.now() - last_paced_send_;
    wait = since >= wait ? Duration::zero() : wait - since;
  }
  pacing_armed_ = true;
  pace_timer_ = sim_.in(wait, [this] { pace_tick(); }, obs::EventTag::kTcpPacing);
}

void TcpSender::pace_tick() {
  pacing_armed_ = false;
  if (completed_) return;
  if (pacing_can_send()) {
    last_paced_send_ = sim_.now();
    if (params_.sack_enabled && in_recovery_) {
      if (const auto hole = sack_.next_hole(snd_una_)) {
        emit_segment(*hole, /*retransmit=*/true);
        arm_pacing();
        return;
      }
    }
    emit_segment(snd_next_++, /*retransmit=*/false);
  }
  arm_pacing();
}

void TcpSender::receive(const Packet& pkt, const net::PacketOptions* opt) {
  assert(pkt.is_ack);
  if (completed_) return;

  if (pkt.ecn_echo && params_.ecn_enabled) ecn_congestion_response();

  if (params_.sack_enabled) {
    sack_process(pkt, opt);
    if (util::kInvariantsEnabled) debug_check_state();
    return;
  }

  if (pkt.ack_seq > snd_una_) {
    on_new_ack(pkt);
  } else if (pkt.ack_seq == snd_una_ && outstanding() > 0) {
    on_dup_ack(pkt);
  }
  if (util::kInvariantsEnabled) debug_check_state();
}

void TcpSender::sack_process(const Packet& ack, const net::PacketOptions* opt) {
  if (opt != nullptr) {
    for (std::uint8_t i = 0; i < opt->sack_count; ++i) {
      sack_.on_sack_block(opt->sack[i].begin, opt->sack[i].end);
    }
  }

  if (ack.ack_seq > snd_una_) {
    if (ack.echo != TimePoint::zero()) rtt_.add_sample(sim_.now() - ack.echo);
    const SeqNum newly_acked = ack.ack_seq - snd_una_;
    sack_.on_cumack(snd_una_, ack.ack_seq);
    snd_una_ = ack.ack_seq;
    if (snd_next_ < snd_una_) snd_next_ = snd_una_;
    dup_acks_ = 0;

    if (in_recovery_ && snd_una_ >= recover_) {
      in_recovery_ = false;  // cwnd stayed at ssthresh throughout (RFC 3517)
    }
    if (!in_recovery_) {
      // Normal growth; recovery freezes the window.
      if (params_.variant == CcVariant::kVegas && rtt_.has_sample() && cwnd_ >= ssthresh_) {
        vegas_adjust();
      } else if (cwnd_ < ssthresh_) {
        const double ss_room = ssthresh_ - cwnd_;
        const double acked = static_cast<double>(newly_acked);
        cwnd_ = acked <= ss_room ? cwnd_ + acked : ssthresh_ + (acked - ss_room) / ssthresh_;
      } else {
        cwnd_ += static_cast<double>(newly_acked) / cwnd_;
      }
      cwnd_ = std::min(cwnd_, params_.max_cwnd);
      obs_cwnd();
    }

    if (params_.total_segments != 0 && snd_una_ >= params_.total_segments) {
      complete();
      return;
    }
    if (outstanding() > 0) {
      restart_rto();
    } else {
      rto_timer_.cancel();
    }
  } else if (ack.ack_seq == snd_una_ && outstanding() > 0) {
    ++dup_acks_;
    // RFC 3042 Limited Transmit, as in the non-SACK path.
    if (!in_recovery_ && dup_acks_ <= 2 && has_data_to_send()) {
      emit_segment(snd_next_++, /*retransmit=*/false);
    }
  }

  sack_.declare_losses(snd_una_);
  if (!in_recovery_ && snd_una_ >= recover_ &&
      (sack_.has_losses() || dup_acks_ >= 3)) {
    enter_sack_recovery();
  }
  if (!completed_) sack_try_send();
}

void TcpSender::enter_sack_recovery() {
  ++stats_.fast_retransmits;
  ++stats_.congestion_events;
  flight_at_recovery_ = outstanding();
  ssthresh_ = std::max(static_cast<double>(flight_at_recovery_) / 2.0, 2.0);
  cwnd_ = ssthresh_;
  obs_cwnd();
  recover_ = snd_next_;
  in_recovery_ = true;
  partial_ack_seen_ = false;
  reduced_once_ = true;
  last_reduction_ = sim_.now();
  restart_rto();
  // RFC 6675: retransmit the first hole immediately, regardless of pipe —
  // with heavy ACK loss the scoreboard may never drain enough to pass the
  // pipe gate, and recovery must still make progress.
  if (const auto hole = sack_.next_hole(snd_una_)) {
    emit_segment(*hole, /*retransmit=*/true);
  }
}

void TcpSender::sack_try_send() {
  if (!started_ || completed_) return;
  if (params_.emission == EmissionMode::kPaced) {
    arm_pacing();
    return;
  }
  const auto wnd = static_cast<std::int64_t>(effective_window());
  while (sack_.pipe() < wnd) {
    if (in_recovery_) {
      if (const auto hole = sack_.next_hole(snd_una_)) {
        emit_segment(*hole, /*retransmit=*/true);
        continue;
      }
    }
    if (!has_data_to_send()) break;
    emit_segment(snd_next_++, /*retransmit=*/false);
  }
}

void TcpSender::on_new_ack(const Packet& ack) {
  if (ack.echo != TimePoint::zero()) {
    rtt_.add_sample(sim_.now() - ack.echo);
  }

  const SeqNum newly_acked = ack.ack_seq - snd_una_;

  if (in_recovery_) {
    if (ack.ack_seq >= recover_) {
      // Full ACK: recovery is over; deflate the window.
      in_recovery_ = false;
      cwnd_ = ssthresh_;
      obs_cwnd();
      dup_acks_ = 0;
    } else if (params_.variant != CcVariant::kReno) {
      // Partial ACK (RFC 3782 / 6582): retransmit the next hole, deflate
      // the window by the amount acknowledged, stay in recovery. The
      // Impatient variant resets the retransmit timer only for the first
      // partial ACK, so a recovery with many holes times out rather than
      // limping along one hole per RTT.
      cwnd_ = std::max(1.0, cwnd_ - static_cast<double>(newly_acked) + 1.0);
      obs_cwnd();
      snd_una_ = ack.ack_seq;
      if (snd_next_ < snd_una_) snd_next_ = snd_una_;
      const bool first_partial = !partial_ack_seen_;
      partial_ack_seen_ = true;
      if (first_partial || !params_.impatient_rto) restart_rto();
      emit_segment(snd_una_, /*retransmit=*/true);
      try_send();
      return;
    } else {
      // Reno: any new ACK terminates fast recovery.
      in_recovery_ = false;
      cwnd_ = ssthresh_;
      obs_cwnd();
      dup_acks_ = 0;
    }
  } else {
    // Normal window growth.
    if (params_.variant == CcVariant::kVegas && rtt_.has_sample() &&
        cwnd_ >= ssthresh_) {
      vegas_adjust();
    } else if (cwnd_ < ssthresh_) {
      // Slow start, one increment per acked segment — but a cumulative jump
      // (holes filling at the receiver) must not carry the window past
      // ssthresh; the excess ACKs count toward congestion avoidance.
      const double ss_room = ssthresh_ - cwnd_;
      const double acked = static_cast<double>(newly_acked);
      if (acked <= ss_room) {
        cwnd_ += acked;
      } else {
        cwnd_ = ssthresh_ + (acked - ss_room) / ssthresh_;
      }
    } else {
      cwnd_ += static_cast<double>(newly_acked) / cwnd_;  // congestion avoidance
    }
    cwnd_ = std::min(cwnd_, params_.max_cwnd);
    obs_cwnd();
    dup_acks_ = 0;
  }

  snd_una_ = ack.ack_seq;
  // A late ACK can cover data sent before a go-back-N reset; never let the
  // send cursor fall behind the cumulative ACK point.
  if (snd_next_ < snd_una_) snd_next_ = snd_una_;

  if (params_.total_segments != 0 && snd_una_ >= params_.total_segments) {
    complete();
    return;
  }

  if (outstanding() > 0) {
    restart_rto();
  } else {
    rto_timer_.cancel();
  }
  try_send();
}

void TcpSender::on_dup_ack(const Packet&) {
  ++dup_acks_;
  if (in_recovery_) {
    // Window inflation: each dup ACK signals a departure, so let one more
    // segment out. Clamped: the emission gate caps the effective window at
    // max_cwnd, so inflation past that is dead weight — and a long burst
    // recovery (segments sent *during* recovery dup-ACKing in turn) would
    // otherwise inflate without bound.
    cwnd_ = std::min(
        cwnd_ + 1.0,
        params_.max_cwnd + static_cast<double>(flight_at_recovery_) + 3.0);
    obs_cwnd();
    try_send();
    return;
  }
  // RFC 3042 Limited Transmit: the first two dup ACKs each release one new
  // segment even if cwnd is exhausted, keeping the dup-ACK clock alive so
  // that small windows can still reach fast retransmit instead of RTO.
  if (dup_acks_ <= 2 && has_data_to_send()) {
    emit_segment(snd_next_++, /*retransmit=*/false);
  }
  // RFC 6582 "careful" variant: dup ACKs for data below the recovery point
  // come from the pre-timeout flight still draining; a fast retransmit here
  // would be spurious and would halve the window again.
  if (dup_acks_ == 3 && snd_una_ >= recover_) enter_recovery();
}

void TcpSender::enter_recovery() {
  ++stats_.fast_retransmits;
  ++stats_.congestion_events;
  flight_at_recovery_ = outstanding();
  ssthresh_ = std::max(static_cast<double>(flight_at_recovery_) / 2.0, 2.0);
  recover_ = snd_next_;
  cwnd_ = ssthresh_ + 3.0;
  obs_cwnd();
  in_recovery_ = true;
  partial_ack_seen_ = false;
  reduced_once_ = true;
  last_reduction_ = sim_.now();
  restart_rto();
  emit_segment(snd_una_, /*retransmit=*/true);
}

void TcpSender::vegas_adjust() {
  // Once per RTT: expected = cwnd/baseRTT, actual = cwnd/srtt; the
  // difference (in packets of queueing) steers the window between alpha and
  // beta (Brakmo & Peterson 1994).
  if (sim_.now() - last_vegas_adjust_ < rtt_.srtt()) return;
  last_vegas_adjust_ = sim_.now();
  const double base = rtt_.min_rtt().seconds();
  const double cur = rtt_.srtt().seconds();
  if (base <= 0.0 || cur <= 0.0) return;
  const double diff = cwnd_ * (1.0 - base / cur);  // queued packets
  if (diff < params_.vegas_alpha) {
    cwnd_ += 1.0;
  } else if (diff > params_.vegas_beta) {
    cwnd_ = std::max(2.0, cwnd_ - 1.0);
  } else {
    return;
  }
  obs_cwnd();
}

void TcpSender::ecn_congestion_response() {
  // React at most once per RTT (RFC 3168 semantics): a whole window of CE
  // marks is one congestion signal.
  const Duration guard = rtt_.has_sample() ? rtt_.srtt() : params_.pacing_rtt_hint;
  if (reduced_once_ && sim_.now() - last_reduction_ < guard) return;
  reduced_once_ = true;
  last_reduction_ = sim_.now();
  ++stats_.ecn_responses;
  ++stats_.congestion_events;
  ssthresh_ = std::max(static_cast<double>(outstanding()) / 2.0, 2.0);
  cwnd_ = ssthresh_;
  obs_cwnd();
}

void TcpSender::arm_rto() {
  if (rto_timer_.pending()) return;
  rto_timer_ = sim_.in(rtt_.rto(), [this] { on_rto(); }, obs::EventTag::kTcpRto);
}

void TcpSender::restart_rto() {
  rto_timer_.cancel();
  rto_timer_ = sim_.in(rtt_.rto(), [this] { on_rto(); }, obs::EventTag::kTcpRto);
}

void TcpSender::on_rto() {
  if (completed_ || outstanding() == 0) return;
  ++stats_.timeouts;
  ++stats_.congestion_events;
  // FlightSize for the halving: inside recovery, outstanding() is inflated
  // by the dup-ACK rule, so fall back to the pre-inflation flight.
  const std::uint64_t flight =
      in_recovery_ ? std::min(outstanding(), flight_at_recovery_) : outstanding();
  ssthresh_ = std::max(static_cast<double>(flight) / 2.0, 2.0);
  cwnd_ = 1.0;
  obs_cwnd();
  dup_acks_ = 0;
  in_recovery_ = false;
  reduced_once_ = true;
  last_reduction_ = sim_.now();
  rtt_.backoff();
  // Remember the highest sequence sent so far: dup ACKs below this point
  // belong to the old flight and must not trigger fast retransmit.
  recover_ = std::max(recover_, snd_next_);
  // Flight information is no longer trustworthy after a timeout.
  if (params_.sack_enabled) sack_.reset();
  // Go-back-N from the first unacknowledged segment.
  snd_next_ = snd_una_;
  emit_segment(snd_next_++, /*retransmit=*/true);
}

void TcpSender::complete() {
  completed_ = true;
  completion_time_ = sim_.now();
  rto_timer_.cancel();
  pace_timer_.cancel();
  if (on_complete_) on_complete_(completion_time_);
}

void TcpSender::abort_transfer() {
  if (completed_) return;
  aborted_ = true;
  // completed_ gates every timer callback, ACK path, and try_send, so an
  // aborted sender goes fully quiescent even with events still queued.
  completed_ = true;
  rto_timer_.cancel();
  pace_timer_.cancel();
}

}  // namespace lossburst::tcp

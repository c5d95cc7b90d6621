#include "sim/event_queue.hpp"

namespace lossburst::sim {

EventQueue::EventQueue() {
  // The ladder reads back through this to recognise cancelled (generation-
  // mismatched) entries on every dispatch and sweep.
  ladder_.set_owner(this);
}

void EventQueue::release_slot(std::uint32_t id) {
  if ((id & kLargePoolBit) != 0) {
    large_.release(id & ~kLargePoolBit);
  } else {
    small_.release(id);
  }
  --live_;
}

void EventQueue::cancel_handle(std::uint32_t id, std::uint32_t gen) {
  if (!handle_pending(id, gen)) return;
  // Recycle the slot eagerly; the timer entry goes stale and is dropped when
  // its tier is swept or it reaches the heap head. A trivially-destructible
  // callback (generation bit 0, recorded at schedule()) needs no destroy
  // call, so its cancel never touches the slot's cold cache line — only the
  // dense generation array. That matters: cancel-and-rearm is the RTO-timer
  // pattern, and the slab stride is the cost that used to dominate it.
  if ((gen & 1u) != 0) {
    if ((id & kLargePoolBit) != 0) {
      large_.release_trivial(id & ~kLargePoolBit);
    } else {
      small_.release_trivial(id);
    }
    --live_;
  } else {
    if ((id & kLargePoolBit) != 0) {
      auto& s = large_.slot(id & ~kLargePoolBit);
      s.ops->destroy(s.buf);
    } else {
      auto& s = small_.slot(id);
      s.ops->destroy(s.buf);
    }
    release_slot(id);
  }
  ++cancelled_;
  // Cancel-heavy churn (e.g. per-ACK RTO rescheduling) can fill the ladder
  // with stale entries faster than sweeps drain them; compact in place when
  // garbage dominates so memory stays bounded and allocation-free.
  const std::size_t total = ladder_.total_entries();
  if (total >= 64 && total > 4 * live_) {
    ladder_.compact();
    debug_validate();  // compaction rebuilt the heap; re-check its shape
  }
}

void EventQueue::debug_validate() const {
#if LOSSBURST_INVARIANTS_ENABLED
  const std::size_t live_entries = ladder_.debug_validate();
  LOSSBURST_INVARIANT(live_entries == live_,
                      "event count conservation violated: live ladder entries "
                      "disagree with the live-event counter");
#endif
}

TimePoint EventQueue::next_time() const {
  if (live_ == 0) return TimePoint::max();
  ladder_.ensure_front();
  return TimePoint(ladder_.front().at_ns);
}

TimePoint EventQueue::pop_and_run() {
  assert(live_ > 0);
  ladder_.ensure_front();
  const detail::TimerEntry e = ladder_.front();
  if (record_instants_ && e.at_ns > now_ns_) {
    // Shard mode: remember where the sequence counter stood when the clock
    // first reached this instant — every local schedule call at earlier
    // instants carries a smaller sequence, which is what lets
    // schedule_wedged() splice cross-shard arrivals into serial order.
    // lossburst-lint: allow(datapath-alloc): pruned every epoch barrier; growth stops at one epoch's instants
    marks_.push_back(Watermark{e.at_ns, next_seq_});
  }
  now_ns_ = e.at_ns;
#if LOSSBURST_INVARIANTS_ENABLED
  // Dispatch must be time-monotone: a head earlier than the previous pop
  // means an event was scheduled into the simulated past (or the ladder was
  // corrupted) — either way determinism is gone.
  LOSSBURST_INVARIANT(e.at_ns >= last_pop_ns_,
                      "event dispatch went backwards in simulated time");
  last_pop_ns_ = e.at_ns;
#endif
  ladder_.pop_front();
  // Relocate the callback onto the stack and recycle the slot *before*
  // invoking: the callback may schedule new events (growing the slab) or
  // cancel anything, including a stale handle to itself (a no-op by then).
  alignas(std::max_align_t) unsigned char tmp[kLargeCallable];
  const detail::CallableOps* ops;
  if ((e.slot & kLargePoolBit) != 0) {
    auto& s = large_.slot(e.slot & ~kLargePoolBit);
    ops = s.ops;
    last_tag_ = s.tag;
    ops->relocate(s.buf, tmp);
  } else {
    auto& s = small_.slot(e.slot);
    ops = s.ops;
    last_tag_ = s.tag;
    ops->relocate(s.buf, tmp);
  }
  release_slot(e.slot);
  ++fired_;
  ops->invoke(tmp);
  ops->destroy(tmp);
  return TimePoint(e.at_ns);
}

}  // namespace lossburst::sim

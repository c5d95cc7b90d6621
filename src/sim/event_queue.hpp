// The event queue at the heart of the simulator.
//
// Design (see DESIGN.md "Engine internals"):
//  - Callbacks are stored type-erased in fixed-size slots (small-buffer
//    storage plus an ops table of invoke/destroy/relocate function
//    pointers). Two slab pools back the slots: a small pool whose slots are
//    exactly one cache line (48-byte captures — timers and other
//    `this`-capturing lambdas), and a large pool for the per-packet Link
//    callbacks that carry a Packet by value. static_asserts in schedule()
//    verify at compile time that every callback ever scheduled fits.
//  - Slabs grow in chunks of 256 slots, so slots never move and steady-state
//    schedule()/cancel()/pop_and_run() performs zero heap allocations once
//    the pools and heap reach their high-water marks.
//  - Each slot has a generation counter, so an EventHandle is a
//    trivially-copyable {queue, slot id, generation} token — no per-event
//    shared_ptr. Generations live in a dense sidecar array (not the slab):
//    staleness checks and cancels of trivially-destructible callbacks read
//    and write only that array, never striding the slab itself.
//  - Ordering uses a two-tier ladder queue (sim/ladder_queue.hpp, DESIGN.md
//    §11): a 4-ary implicit heap of 24-byte {time, seq, slot, gen} entries
//    for the near-now band, with O(1) calendar rungs and an overflow list
//    for far-horizon timers (RTO, TFRC feedback, fault edges). Keys are
//    (time, insertion sequence), so simultaneous events fire in scheduling
//    order regardless of which tier they passed through, which keeps runs
//    deterministic — the determinism regression test in
//    tests/test_determinism.cpp and the differential reference-queue test in
//    tests/test_event_queue.cpp guard this contract across engine rewrites.
//  - cancel() destroys the callback and recycles the slot eagerly; the timer
//    entry goes stale (generation mismatch) and is skipped lazily.
//
// Lifetime contract: an EventHandle must not be used after its EventQueue is
// destroyed. In practice every handle lives inside a component that holds a
// reference to the Simulator owning the queue, so the queue outlives it.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/tags.hpp"
#include "sim/ladder_queue.hpp"
#include "util/invariant.hpp"
#include "util/time.hpp"

namespace lossburst::sim {

using util::Duration;
using util::TimePoint;

namespace detail {

/// Type-erasure ops for a callable stored in raw slot storage.
struct CallableOps {
  void (*invoke)(void*);
  void (*destroy)(void*);
  void (*relocate)(void* src, void* dst);  // move-construct dst, destroy src
};

template <typename D>
inline constexpr CallableOps kCallableOps = {
    [](void* p) { (*static_cast<D*>(p))(); },
    [](void* p) { static_cast<D*>(p)->~D(); },
    [](void* src, void* dst) {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    },
};

/// A slab of fixed-capacity callback slots. Storage grows in chunks so slots
/// never move; released slot indices are recycled through a free list (eager
/// reuse keeps the working set compact).
template <std::size_t Capacity>
class SlotPool {
 public:
  static constexpr std::size_t kCapacity = Capacity;
  static constexpr std::uint32_t kChunkSlots = 256;

  struct Slot {
    alignas(std::max_align_t) unsigned char buf[Capacity];
    const CallableOps* ops = nullptr;
    // Profiler tag; rides in the slot's existing alignment padding, so it
    // costs no space (48+8+1 rounds to 64 with or without it). The slot's
    // generation counter lives in the dense gen_ sidecar below, NOT here:
    // staleness checks and cancels are the engine's hottest loads, and a
    // per-slot counter would drag them through the multi-MB slab instead of
    // a few hundred KB of hot memory.
    obs::EventTag tag = obs::EventTag::kGeneric;
  };

  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  ~SlotPool() {
    for (std::uint32_t i = 0; i < count_; ++i) {
      Slot& s = slot(i);
      if (s.ops != nullptr) s.ops->destroy(s.buf);
    }
  }

  [[nodiscard]] Slot& slot(std::uint32_t idx) {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }

  /// Hand out a free slot index, growing by one chunk when exhausted.
  [[nodiscard]] std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    if (count_ % kChunkSlots == 0) {
      // lossburst-lint: allow(datapath-alloc): slab growth; stops at the high-water mark
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      // Size the sidecars for the whole chunk now: the free list can never
      // hold more than count_ indices, so reserving here makes release()
      // allocation-free unconditionally — not just once usage stops dipping
      // to new minimums (which can drift for millions of events). Round up
      // to a power of two so growth stays geometric: an exact-size reserve
      // per chunk would realloc-and-copy on every chunk, O(n^2) bytes over
      // a deep pool.
      // lossburst-lint: allow(datapath-alloc): sidecar growth; stops at the high-water mark
      const std::size_t want = std::bit_ceil(count_ + kChunkSlots);
      gen_.reserve(want);
      free_.reserve(want);
    }
    gen_.push_back(0);
    return count_++;
  }

  /// Generation word for slot `idx`: bits 1+ count fire/cancel cycles, bit 0
  /// flags a trivially-destructible occupant. Handles and timer entries carry
  /// the whole word; equality against it is the staleness/pending test.
  [[nodiscard]] std::uint32_t gen(std::uint32_t idx) const { return gen_[idx]; }

  /// Record the destructor class of the slot's new occupant; returns the
  /// generation word the entry/handle should carry.
  std::uint32_t arm(std::uint32_t idx, bool trivial_destroy) {
    std::uint32_t& g = gen_[idx];
    g = (g & ~1u) | static_cast<std::uint32_t>(trivial_destroy);
    return g;
  }

  void release(std::uint32_t idx) {
    slot(idx).ops = nullptr;
    gen_[idx] += 2;
    free_.push_back(idx);
  }

  /// Release without touching the slab — valid only when the occupant is
  /// trivially destructible (bit 0 of its generation word). The slot keeps
  /// its stale ops pointer; it refers to a destroy that is a no-op, so the
  /// pool destructor stays safe and the next acquire simply overwrites it.
  void release_trivial(std::uint32_t idx) {
    gen_[idx] += 2;
    free_.push_back(idx);
  }

  /// Slots ever created (valid ids are < size()).
  [[nodiscard]] std::uint32_t size() const { return count_; }

 private:
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> gen_;  // per-slot generation words
  std::vector<std::uint32_t> free_;
  std::uint32_t count_ = 0;
};

}  // namespace detail

class EventQueue;

/// Handle to a scheduled event; allows O(1) cancellation. A handle is a
/// trivially-copyable 16-byte token — copying it copies nothing of the
/// event, and a handle left over from a fired or cancelled event is inert
/// (the generation no longer matches, so cancel() is a no-op and pending()
/// is false), even if the slot has since been reused by a new event.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still scheduled (not fired, not cancelled).
  [[nodiscard]] inline bool pending() const;

  /// Cancel the event if still pending. Safe to call repeatedly, after the
  /// event fired, or on a default-constructed handle.
  inline void cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint32_t gen)
      : q_(q), slot_(slot), gen_(gen) {}

  EventQueue* q_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

static_assert(std::is_trivially_copyable_v<EventHandle>);

class EventQueue {
 public:
  /// Capture budget for the common case: a slot is exactly one cache line.
  static constexpr std::size_t kSmallCallable = 48;
  /// Capture budget for per-packet callbacks (Link tx/delivery: `this` plus
  /// a Packet by value, ~160 bytes). Revisit if Packet grows.
  static constexpr std::size_t kLargeCallable = 176;

  /// Insertion sequences advance by this stride, leaving a gap below every
  /// locally-scheduled event into which schedule_wedged() can splice a
  /// cross-shard arrival at the exact rank a serial run's schedule call at
  /// the same instant would have occupied (DESIGN.md §12). A stride of 2^20
  /// leaves ~2^44 locally-schedulable events per run and bounds same-band
  /// wedges at ~10^6 per epoch, both far beyond anything a real run reaches.
  static constexpr std::uint64_t kSeqStride = 1ULL << 20;

  EventQueue();

  // Handles store a pointer back to the queue, so it must stay put.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at`. Returns a cancellable handle.
  /// Allocation-free once the pools and heap reach steady-state size.
  /// `tag` attributes the event to a type for the loop profiler; untagged
  /// call sites cost nothing extra.
  template <typename F>
  EventHandle schedule(TimePoint at, F&& fn, obs::EventTag tag = obs::EventTag::kGeneric) {
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= kLargeCallable,
                  "event callback capture exceeds the engine's slot size; "
                  "shrink the capture or raise EventQueue::kLargeCallable");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "event callback is over-aligned for slot storage");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event callbacks must be nothrow-move-constructible");

    std::uint32_t id;
    std::uint32_t gen;
    if constexpr (sizeof(D) <= kSmallCallable) {
      const std::uint32_t idx = small_.acquire();
      auto& s = small_.slot(idx);
      ::new (static_cast<void*>(s.buf)) D(std::forward<F>(fn));
      s.ops = &detail::kCallableOps<D>;
      s.tag = tag;
      gen = small_.arm(idx, std::is_trivially_destructible_v<D>);
      id = idx;
    } else {
      const std::uint32_t idx = large_.acquire();
      auto& s = large_.slot(idx);
      ::new (static_cast<void*>(s.buf)) D(std::forward<F>(fn));
      s.ops = &detail::kCallableOps<D>;
      s.tag = tag;
      gen = large_.arm(idx, std::is_trivially_destructible_v<D>);
      id = idx | kLargePoolBit;
    }
    ladder_.push(detail::TimerEntry{at.ns(), next_seq_, id, gen});
    next_seq_ += kSeqStride;
    ++live_;
    return EventHandle(this, id, gen);
  }

  /// Schedule a cross-shard arrival so it dispatches exactly where a serial
  /// run's schedule call at instant `virtual_sched_ns` would have placed it
  /// (DESIGN.md §12). Only meaningful in shard mode: the insertion sequence
  /// is spliced into the stride gap of the first local dispatch instant
  /// after `virtual_sched_ns` — after every local call at instants <= it,
  /// before every call at later instants. Callers must present wedges in
  /// ascending (virtual_sched_ns, tie-break) order; equal-band wedges are
  /// ranked by call order.
  template <typename F>
  EventHandle schedule_wedged(TimePoint at, std::int64_t virtual_sched_ns, F&& fn,
                              obs::EventTag tag = obs::EventTag::kGeneric) {
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= kSmallCallable,
                  "wedged callbacks stage their payload out of line; keep the "
                  "capture within the small slot");
    static_assert(alignof(D) <= alignof(std::max_align_t));
    static_assert(std::is_nothrow_move_constructible_v<D>);
    LOSSBURST_INVARIANT(at.ns() >= virtual_sched_ns,
                        "a wedged arrival cannot precede its virtual schedule instant");

    // Band: the sequence counter at the first local dispatch instant after
    // the virtual schedule point; next_seq_ when the shard has not yet
    // dispatched past it (then every future local call is at a later
    // instant, because the shard's epoch ran dry before the horizon).
    std::uint64_t band = next_seq_;
    const auto begin = marks_.begin() + static_cast<std::ptrdiff_t>(marks_begin_);
    const auto it = std::upper_bound(
        begin, marks_.end(), virtual_sched_ns,
        [](std::int64_t v, const Watermark& w) { return v < w.instant_ns; });
    if (it != marks_.end()) band = it->seq;
    if (band != wedge_band_) {
      wedge_band_ = band;
      wedge_tie_ = 0;
    }
    LOSSBURST_INVARIANT(wedge_tie_ + 2 < kSeqStride,
                        "cross-shard wedge band exhausted: more same-instant "
                        "arrivals than the sequence stride can rank");
    const std::uint64_t seq = band - kSeqStride + 1 + wedge_tie_++;

    const std::uint32_t idx = small_.acquire();
    auto& s = small_.slot(idx);
    ::new (static_cast<void*>(s.buf)) D(std::forward<F>(fn));
    s.ops = &detail::kCallableOps<D>;
    s.tag = tag;
    const std::uint32_t gen = small_.arm(idx, std::is_trivially_destructible_v<D>);
    ladder_.push(detail::TimerEntry{at.ns(), seq, idx, gen});
    ++live_;
    ++wedged_;
    return EventHandle(this, idx, gen);
  }

  /// Shard mode (DESIGN.md §12): record a watermark — the sequence counter —
  /// at every dispatch instant advance, so schedule_wedged() can splice
  /// cross-shard arrivals into serial dispatch order. Off (the default) the
  /// dispatch path pays one predicted-false branch.
  void set_shard_mode(bool on) { record_instants_ = on; }

  /// Drop watermarks at instants <= `upto_ns`; the shard coordinator calls
  /// this at each epoch barrier (no arrival can wedge at or before the
  /// epoch's global minimum), so the list stays bounded by one epoch's
  /// distinct dispatch instants.
  void prune_instants(std::int64_t upto_ns) {
    std::size_t b = marks_begin_;
    while (b < marks_.size() && marks_[b].instant_ns <= upto_ns) ++b;
    marks_begin_ = b;
    if (marks_begin_ > 64 && marks_begin_ * 2 > marks_.size()) {
      marks_.erase(marks_.begin(), marks_.begin() + static_cast<std::ptrdiff_t>(marks_begin_));
      marks_begin_ = 0;
    }
  }

  /// True when no live (non-cancelled, unfired) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Exact number of live events (cancelled slots are recycled eagerly).
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; TimePoint::max() when empty.
  [[nodiscard]] TimePoint next_time() const;

  /// Pop and run the earliest live event. Returns its time. Precondition:
  /// !empty().
  TimePoint pop_and_run();

  /// Total events ever scheduled (for micro-benchmark accounting).
  [[nodiscard]] std::uint64_t scheduled_count() const {
    return next_seq_ / kSeqStride - 1 + wedged_;
  }

  /// Engine telemetry (DESIGN.md §8): lifetime fired/cancelled counts and
  /// the most entries (all tiers, stale included) the run ever held at once.
  [[nodiscard]] std::uint64_t fired_count() const { return fired_; }
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_; }
  [[nodiscard]] std::size_t heap_high_water() const { return ladder_.high_water(); }

  /// Tag of the most recently dispatched event (valid after pop_and_run).
  [[nodiscard]] obs::EventTag last_dispatch_tag() const { return last_tag_; }

  /// True when `e` refers to a fired or cancelled event (its slot's
  /// generation moved on). The ladder consults this on every dispatch and
  /// sweep; it must stay a single inlined load-and-compare.
  [[nodiscard]] bool entry_stale(const detail::TimerEntry& e) const {
    return slot_gen(e.slot) != e.gen;
  }

  /// Debug invariant sweep (DESIGN.md §9): full ladder validation (heap
  /// shape, tier time-range confinement, monotone horizon), live-count
  /// conservation (non-stale entries across all tiers == live()), and
  /// slot-id range checks. O(n); a no-op in release builds. Tests call it
  /// between operations; cancel() also runs it after compaction (rare).
  void debug_validate() const;

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kLargePoolBit = 0x8000'0000u;

  [[nodiscard]] std::uint32_t slot_gen(std::uint32_t id) const {
    LOSSBURST_INVARIANT(((id & kLargePoolBit) != 0 ? (id & ~kLargePoolBit) < large_.size()
                                                   : id < small_.size()),
                        "event slot id out of range: the handle was corrupted or "
                        "belongs to a different EventQueue");
    return (id & kLargePoolBit) != 0 ? large_.gen(id & ~kLargePoolBit)
                                     : small_.gen(id);
  }

  [[nodiscard]] bool handle_pending(std::uint32_t id, std::uint32_t gen) const {
    // A real handle's generation can only trail the slot's (the slot bumps
    // on every fire/cancel); a generation from the future is corruption.
    LOSSBURST_INVARIANT(gen <= slot_gen(id),
                        "event handle generation exceeds its slot's: the handle "
                        "was corrupted");
    return slot_gen(id) == gen;
  }

  void cancel_handle(std::uint32_t id, std::uint32_t gen);
  void release_slot(std::uint32_t id);

  detail::SlotPool<kSmallCallable> small_;
  detail::SlotPool<kLargeCallable> large_;
  // The ladder is mutable because observers (next_time) shed stale heads
  // and sweep tiers forward; neither changes the set of live events.
  mutable detail::LadderQueue ladder_;
  // Sequences start one stride up so the very first wedge band (a shard
  // whose first event ever is a remote arrival) still has a gap below it.
  std::uint64_t next_seq_ = kSeqStride;
  std::size_t live_ = 0;
  std::uint64_t wedged_ = 0;  ///< schedule_wedged() calls (shard mode only)
  // Shard-mode watermark list: (dispatch instant, sequence counter) at every
  // strict clock advance, pruned per epoch. marks_begin_ is a lazy head so
  // pruning is pointer motion, not reallocation.
  struct Watermark {
    std::int64_t instant_ns;
    std::uint64_t seq;
  };
  std::vector<Watermark> marks_;
  std::size_t marks_begin_ = 0;
  std::uint64_t wedge_band_ = 0;  ///< band of the last wedge (tie continuation)
  std::uint32_t wedge_tie_ = 0;
  bool record_instants_ = false;
  // Dispatch clock: the instant of the last dispatched event. Shard mode
  // records a watermark each time it strictly advances.
  std::int64_t now_ns_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  obs::EventTag last_tag_ = obs::EventTag::kGeneric;
#if LOSSBURST_INVARIANTS_ENABLED
  // Dispatch-order watermark for the time-monotonicity invariant; absent
  // from release builds so the release layout is the uninstrumented one.
  std::int64_t last_pop_ns_ = std::numeric_limits<std::int64_t>::min();
#endif
};

inline bool EventHandle::pending() const {
  return q_ != nullptr && q_->handle_pending(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (q_ != nullptr) q_->cancel_handle(slot_, gen_);
}

inline bool detail::LadderQueue::stale(const Entry& e) const {
  return owner_->entry_stale(e);
}

inline void detail::LadderQueue::ensure_front() {
  // Fast path: a live heap head that no unswept tier can precede. Mirrors
  // the authoritative-head test at the top of ensure_front_slow()'s loop;
  // anything else (stale head, spent band, empty heap) takes the slow path.
  if (!heap_.empty() && !stale(heap_.front())) {
    if (rung_count_ == 0 && overflow_.empty()) return;
    if (heap_.front().at_ns < (rung_count_ > 0 ? horizon_ns_ : rung_end_ns_)) return;
  }
  ensure_front_slow();
}

}  // namespace lossburst::sim

// Two-tier timer structure backing the EventQueue (DESIGN.md §11).
//
// The 4-ary heap that PR 1 introduced is exactly right for the *near-now*
// band — the packet serialization/arrival events the TCP simulations are
// made of — but every far-horizon timer (RTO, TFRC feedback, fault flap
// edges) pays O(log n) to sift in and, when cancelled, leaves a stale entry
// the heap still has to carry to the top. This structure splits time in
// three monotone tiers:
//
//   [ -inf, direct_end )         near heap: the existing 4-ary heap, keyed
//                                by (time, insertion seq)
//   [ direct_end, rung_end )     rungs: kRungCount buckets of 2^shift ns
//                                each; unsorted vectors, O(1) append
//   [ rung_end, +inf )           overflow: one unsorted vector
//
// The heap is fed two ways and its membership overlaps the rung range:
// push() sends anything below `direct_end` — two buckets past the sweep
// horizon — straight into the heap, and ensure_front() sweeps the next rung
// into it whenever the heap head is not strictly below the earliest unswept
// tier (horizon while rungs hold entries, rung_end otherwise). When every
// rung is spent the overflow is re-partitioned into a fresh window sized by
// *density*: its 128 buckets cover the earliest max(4 * kRungCount, live / 8)
// live entries, not the overflow's whole span, so a handful of far timers
// (RTOs, horizon ends) cannot widen the buckets until every pending event
// falls into the direct band and the heap holds the whole pending set.
// Entries past the window stay in the overflow for a later reseed; covering
// at least live / 8 keeps that rescan amortised O(1) per entry. An overflow
// no larger than the cover is spanned whole with buckets of at least 2^20 ns,
// as before any reseed: a pending set that small is cheap to keep in the
// heap, and narrower buckets would only add sweep steps over sparse rungs.
//
// Dispatch order is exactly (time, seq) — identical to a single global heap
// — while a far-future schedule costs O(1) and a cancel costs O(1) *total*:
// cancelled far entries are filtered out during the sweep (via the
// owner-provided staleness predicate) and never touch the heap at all.
//
// Steady-state operation performs zero heap allocations once every vector
// has reached its high-water capacity: buckets are cleared, not freed, and
// the overflow re-partition is in-place.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lossburst::sim {

class EventQueue;

namespace detail {

/// 24-byte heap/rung entry keyed by (time, insertion sequence); the callback
/// itself lives in the owning EventQueue's slab slot. Deliberately minimal:
/// heap sift traffic is proportional to entry size, so per-event metadata
/// that is only read at dispatch time (the scheduled-at instant the batched
/// link service compares against its virtual boundaries, DESIGN.md §11)
/// lives in the EventQueue's dense per-slot sidecar instead.
struct TimerEntry {
  std::int64_t at_ns;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;

  [[nodiscard]] bool before(const TimerEntry& o) const {
    if (at_ns != o.at_ns) return at_ns < o.at_ns;
    return seq < o.seq;
  }
};

class LadderQueue {
 public:
  using Entry = TimerEntry;

  static constexpr std::size_t kRungCount = 128;
  /// Bucket width of the construction-time window, before any reseed has
  /// seen the pending set, and the narrowest bucket of a window that spans
  /// the whole overflow: 2^20 ns ~ 1 ms.
  static constexpr int kInitialShift = 20;
  /// Narrowest bucket of a density-sized window: 2^10 ns ~ 1 us.
  static constexpr int kMinShift = 10;
  /// Live entries a reseeded window covers (about four per rung), or an
  /// eighth of the overflow's live entries when that is more.
  static constexpr std::size_t kReseedCover = 4 * kRungCount;
  /// Construction-time capacity floors (see the constructor).
  static constexpr std::size_t kHeapReserve = 1024;
  static constexpr std::size_t kBucketReserve = 64;
  static constexpr std::size_t kOverflowReserve = 1024;

  LadderQueue() {
    // Seed every vector with a floor capacity so first-touch growth happens
    // here, not in steady state: rung buckets are filled lazily (an index may
    // first be hit millions of events into a run) and a cold push_back there
    // would break the zero-allocation guarantee. reseed_from_overflow()
    // raises the floors adaptively when the live population is large.
    heap_.reserve(kHeapReserve);
    overflow_.reserve(kOverflowReserve);
    for (auto& bucket : rungs_) bucket.reserve(kBucketReserve);
  }
  LadderQueue(const LadderQueue&) = delete;
  LadderQueue& operator=(const LadderQueue&) = delete;

  /// The owning EventQueue, consulted for entry staleness (a cancelled
  /// event's slot generation no longer matches its entry). A typed owner
  /// rather than a function pointer: the staleness test runs on every
  /// dispatch, so it must inline (see stale() below, defined in
  /// event_queue.hpp once EventQueue is complete).
  void set_owner(const EventQueue* owner) { owner_ = owner; }

  /// Insert an entry into the tier its time falls in. O(log near) for the
  /// near band, O(1) otherwise.
  void push(const Entry& e) {
    if (e.at_ns < direct_end_ns_) {
      heap_.push_back(e);
      sift_up(heap_.size() - 1);
    } else if (e.at_ns < rung_end_ns_) {
      rungs_[rung_index(e.at_ns)].push_back(e);
      ++rung_count_;
    } else {
      overflow_.push_back(e);
    }
    const std::size_t total = total_entries();
    if (total > high_water_) high_water_ = total;
  }

  /// Bring the earliest live entry to the heap front, sweeping rungs/
  /// overflow forward as needed. Precondition: at least one live entry
  /// exists somewhere in the structure. The common case — a live heap head
  /// already provably below every unswept tier — is a fully inlined check;
  /// the definition lives in event_queue.hpp where the owner's staleness
  /// predicate is visible.
  inline void ensure_front();

  /// Valid after ensure_front().
  [[nodiscard]] const Entry& front() const { return heap_.front(); }

  /// Remove the heap head (valid after ensure_front()).
  void pop_front() { pop_heap_entry(); }

  /// Entries currently stored across all tiers, stale ones included.
  [[nodiscard]] std::size_t total_entries() const {
    return heap_.size() + rung_count_ + overflow_.size();
  }

  /// Entries in the near heap, stale ones included.
  [[nodiscard]] std::size_t near_size() const { return heap_.size(); }

  /// Largest total_entries() ever observed (engine telemetry).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

  /// Drop every stale entry from every tier and rebuild the heap. Called by
  /// the owner when stale entries dominate (cancel-heavy churn); in-place,
  /// allocation-free.
  void compact();

  /// Debug invariant sweep: heap shape, tier time-range confinement, and
  /// monotone horizon. Returns the number of live entries found (the owner
  /// checks conservation against its live counter). O(n); only called from
  /// debug builds.
  [[nodiscard]] std::size_t debug_validate() const;

 private:
  [[nodiscard]] inline bool stale(const Entry& e) const;
  [[nodiscard]] std::size_t rung_index(std::int64_t at_ns) const {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(at_ns - base_ns_) >> shift_);
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_heap_entry();
  void ensure_front_slow();
  void reseed_from_overflow();
  /// Recompute the push() fast-path boundary: two bucket widths past the
  /// sweep horizon, capped at the rung window's end. Two, not one, so an
  /// event scheduled a short lead time ahead stays on the heap path even
  /// when `now` sits just under a bucket boundary.
  void update_direct_end() {
    const std::int64_t w2 = std::int64_t{2} << shift_;
    direct_end_ns_ = rung_end_ns_ - horizon_ns_ < w2 ? rung_end_ns_ : horizon_ns_ + w2;
  }

  const EventQueue* owner_ = nullptr;

  std::vector<Entry> heap_;
  std::array<std::vector<Entry>, kRungCount> rungs_;
  std::vector<Entry> overflow_;
  std::size_t rung_count_ = 0;  ///< entries across all rungs

  // Tier boundaries. All three are monotone non-decreasing over the
  // structure's lifetime within a rung window; reseeding moves the window
  // strictly forward (overflow entries are >= rung_end by construction).
  std::int64_t base_ns_ = 0;      ///< start of the rung window
  std::int64_t horizon_ns_ = 0;   ///< sweep frontier: base + cursor*width
  std::int64_t rung_end_ns_ = static_cast<std::int64_t>(kRungCount) << kInitialShift;
  std::int64_t direct_end_ns_ = std::int64_t{2} << kInitialShift;  ///< push() heap fast path
  std::size_t cursor_ = 0;        ///< next rung to sweep
  int shift_ = kInitialShift;     ///< log2 of the rung width

  // Monotone capacity-floor ratchets (see reseed_from_overflow): derived
  // floors round up to powers of two and never decrease, so a fluctuating
  // live population cannot make reserve() reallocate on every reseed.
  std::size_t bucket_floor_ = kBucketReserve;
  std::size_t overflow_floor_ = kOverflowReserve;

  std::size_t high_water_ = 0;
};

}  // namespace detail
}  // namespace lossburst::sim

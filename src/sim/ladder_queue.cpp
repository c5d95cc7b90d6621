#include "sim/ladder_queue.hpp"

#include <algorithm>
#include <bit>
#include <limits>

// For the inline LadderQueue::stale() definition (the owning EventQueue's
// generation check) — see ladder_queue.hpp.
#include "sim/event_queue.hpp"
#include "util/invariant.hpp"

namespace lossburst::sim::detail {

namespace {
constexpr std::size_t kArity = 4;
constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();
}  // namespace

void LadderQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void LadderQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void LadderQueue::pop_heap_entry() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void LadderQueue::ensure_front_slow() {
  for (;;) {
    // Shed cancelled entries that bubbled to the head (lazy deletion).
    while (!heap_.empty() && stale(heap_.front())) pop_heap_entry();
    if (!heap_.empty()) {
      // The head is authoritative only while no unswept tier can hold an
      // earlier entry: rung entries are >= horizon, overflow entries are
      // >= rung_end. At equality a rung entry with a smaller sequence
      // could still precede the head, so the comparison is strict.
      if (rung_count_ == 0 && overflow_.empty()) return;
      if (heap_.front().at_ns < (rung_count_ > 0 ? horizon_ns_ : rung_end_ns_)) return;
    }
    if (cursor_ == kRungCount) {
      reseed_from_overflow();
      continue;
    }
    if (rung_count_ == 0) {
      // Every remaining rung is empty; spend the window in one step so the
      // next iteration reseeds from the overflow.
      cursor_ = kRungCount;
      horizon_ns_ = rung_end_ns_;
      update_direct_end();
      continue;
    }
    // Sweep the next rung into the heap. Every entry in it is >= the old
    // horizon, so nothing already dispatched is reordered, and once merged
    // the heap alone decides order within the band.
    std::vector<Entry>& bucket = rungs_[cursor_];
    ++cursor_;
    horizon_ns_ = (cursor_ == kRungCount)
                      ? rung_end_ns_
                      : base_ns_ + (static_cast<std::int64_t>(cursor_) << shift_);
    update_direct_end();
    if (!bucket.empty()) {
      rung_count_ -= bucket.size();
      for (const Entry& e : bucket) {
        // Cancelled entries die here, without ever touching the heap.
        if (!stale(e)) {
          heap_.push_back(e);
          sift_up(heap_.size() - 1);
        }
      }
      bucket.clear();
    }
  }
}

void LadderQueue::reseed_from_overflow() {
  // Every rung is spent: re-anchor the window at the earliest live overflow
  // entry. Stale entries are dropped first so a cancelled timer is neither
  // rescanned nor counted toward the window's cover.
  std::size_t live = 0;
  std::int64_t min_at = kMaxNs;
  std::int64_t reach = std::numeric_limits<std::int64_t>::min();
  for (std::size_t r = 0; r < overflow_.size(); ++r) {
    const Entry e = overflow_[r];
    if (stale(e)) continue;
    overflow_[live++] = e;
    min_at = std::min(min_at, e.at_ns);
    reach = std::max(reach, e.at_ns);
  }
  overflow_.resize(live);
  LOSSBURST_INVARIANT(live > 0,
                      "ladder queue advanced past every live entry: ensure_front() "
                      "called on a queue whose live counter disagrees with storage");

  // Size the buckets by density: pick the smallest power-of-two width whose
  // window reaches the cover-th earliest live entry, not the latest one, so
  // a few far outliers cannot stretch the buckets over the whole pending
  // set. The order of entries inside the unsorted overflow is immaterial,
  // so nth_element may permute it. Covering at least an eighth of the
  // overflow bounds the rescans of an entry that stays behind to about
  // eight, keeping a reseed amortised O(1) per entry however large the
  // overflow grows. An overflow no larger than the cover is spanned whole
  // with the construction-time width as the floor: its few entries would
  // leave narrow buckets mostly empty, and each empty bucket is one more
  // sweep step, while a heap that small is cheap.
  const std::size_t cover = std::max(kReseedCover, live / 8);
  int min_shift = kInitialShift;
  if (live > cover) {
    const auto nth = overflow_.begin() + static_cast<std::ptrdiff_t>(cover - 1);
    std::nth_element(overflow_.begin(), nth, overflow_.end(),
                     [](const Entry& a, const Entry& b) { return a.at_ns < b.at_ns; });
    reach = nth->at_ns;
    min_shift = kMinShift;
  }

  base_ns_ = min_at;
  horizon_ns_ = min_at;
  cursor_ = 0;
  shift_ = min_shift;
  const auto span = static_cast<std::uint64_t>(reach - min_at);
  while ((span >> shift_) >= kRungCount) ++shift_;
  // rung_end = base + kRungCount * width, saturating at the far end of time
  // (shift_ tops out at 57, where kRungCount << shift_ would wrap uint64).
  if (shift_ >= 57) {
    rung_end_ns_ = kMaxNs;
  } else {
    const auto width_total = static_cast<std::uint64_t>(kRungCount) << shift_;
    const auto end_u = static_cast<std::uint64_t>(base_ns_) + width_total;
    rung_end_ns_ = end_u > static_cast<std::uint64_t>(kMaxNs)
                       ? kMaxNs
                       : static_cast<std::int64_t>(end_u);
  }

  // Raise the capacity floors before partitioning. The window reaches the
  // cover-th entry with its width rounded up to a power of two, so it spans
  // less than twice that reach: about 2 * cover entries at the density it
  // was sized by, new schedules into it replacing dispatched ones. Stale
  // entries can add up to 4x that before the owner's compaction trigger
  // (total > 4x live), and the rounding can concentrate the reach into as
  // few as half the rungs ((reach - base) >> shift lands anywhere in
  // [kRungCount/2, kRungCount)), so the per-bucket peak is up to
  // 8 * cover / (kRungCount / 2) = cover / 8 — exactly the construction
  // floor kBucketReserve at the minimum cover. (A window widened by the
  // 2^20 ns floor can gather its at most cover entries into fewer rungs; a
  // bucket that outgrows the floor there keeps its capacity, so it too
  // allocates once per high-water.) The floor ratchets
  // monotonically in power-of-two steps: a live population that drifts up
  // and down across reseeds (the sharded epoch workloads do this every
  // epoch) must not re-derive a slightly different floor each time, or
  // steady state reallocates forever. Capacities persist across reseeds
  // (clear()/erase() never shrink), so each ratchet step allocates at most
  // once per population high-water — warm-up cost, not steady-state cost.
  const std::size_t bucket_need = cover / 8;
  if (bucket_need > bucket_floor_) bucket_floor_ = std::bit_ceil(bucket_need);
  for (auto& bucket : rungs_) {
    if (bucket.capacity() < bucket_floor_) bucket.reserve(bucket_floor_);
  }
  if (heap_.capacity() < 2 * bucket_floor_) heap_.reserve(2 * bucket_floor_);
  const std::size_t overflow_need = 4 * live + 64;
  if (overflow_need > overflow_floor_) overflow_floor_ = std::bit_ceil(overflow_need);
  if (overflow_.capacity() < overflow_floor_) overflow_.reserve(overflow_floor_);

  // Partition the survivors into the fresh rungs, in place; entries past the
  // window stay in the overflow. When rung_end saturated, the window covers
  // every representable time ((kMaxNs - base) >> shift < kRungCount),
  // including entries at exactly rung_end.
  std::size_t keep = 0;
  for (std::size_t r = 0; r < overflow_.size(); ++r) {
    const Entry e = overflow_[r];
    if (e.at_ns < rung_end_ns_ || rung_end_ns_ == kMaxNs) {
      rungs_[rung_index(e.at_ns)].push_back(e);
      ++rung_count_;
    } else {
      overflow_[keep++] = e;
    }
  }
  overflow_.resize(keep);
  update_direct_end();
}

void LadderQueue::compact() {
  const auto is_stale = [this](const Entry& e) { return stale(e); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), is_stale), heap_.end());
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }
  for (auto& bucket : rungs_) {
    const std::size_t before = bucket.size();
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(), is_stale), bucket.end());
    rung_count_ -= before - bucket.size();
  }
  overflow_.erase(std::remove_if(overflow_.begin(), overflow_.end(), is_stale),
                  overflow_.end());
}

std::size_t LadderQueue::debug_validate() const {
  std::size_t live = 0;
  LOSSBURST_INVARIANT(
      horizon_ns_ == (cursor_ == kRungCount
                          ? rung_end_ns_
                          : base_ns_ + (static_cast<std::int64_t>(cursor_) << shift_)),
      "ladder horizon disagrees with its cursor");
  LOSSBURST_INVARIANT(direct_end_ns_ >= horizon_ns_ && direct_end_ns_ <= rung_end_ns_,
                      "ladder direct-push boundary outside [horizon, rung_end]");
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry& e = heap_[i];
    if (i > 0) {
      LOSSBURST_INVARIANT(!e.before(heap_[(i - 1) / kArity]),
                          "event heap shape violated: child orders before its parent");
    }
    LOSSBURST_INVARIANT(e.at_ns < direct_end_ns_ || direct_end_ns_ == kMaxNs,
                        "near-heap entry at or beyond the direct-push boundary");
    if (!stale(e)) ++live;
  }
  for (std::size_t r = 0; r < kRungCount; ++r) {
    const std::vector<Entry>& bucket = rungs_[r];
    LOSSBURST_INVARIANT(bucket.empty() || r >= cursor_,
                        "swept ladder rung is not empty");
    for (const Entry& e : bucket) {
      LOSSBURST_INVARIANT(e.at_ns >= horizon_ns_ && rung_index(e.at_ns) == r,
                          "ladder rung entry filed in the wrong bucket");
      if (!stale(e)) ++live;
    }
  }
  for (const Entry& e : overflow_) {
    LOSSBURST_INVARIANT(e.at_ns >= rung_end_ns_ || rung_end_ns_ == kMaxNs,
                        "overflow entry inside the rung window");
    if (!stale(e)) ++live;
  }
  return live;
}

}  // namespace lossburst::sim::detail

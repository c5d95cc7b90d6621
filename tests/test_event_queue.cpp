#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace lossburst::sim {
namespace {

using util::TimePoint;

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), TimePoint::max());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint(30), [&] { order.push_back(3); });
  q.schedule(TimePoint(10), [&] { order.push_back(1); });
  q.schedule(TimePoint(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(TimePoint(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, PopReturnsEventTime) {
  EventQueue q;
  q.schedule(TimePoint(77), [] {});
  EXPECT_EQ(q.pop_and_run(), TimePoint(77));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(TimePoint(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelledHeadSkipped) {
  EventQueue q;
  std::vector<int> order;
  EventHandle h = q.schedule(TimePoint(1), [&] { order.push_back(1); });
  q.schedule(TimePoint(2), [&] { order.push_back(2); });
  h.cancel();
  EXPECT_EQ(q.next_time(), TimePoint(2));
  q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueueTest, CancelNonHeadLazily) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint(1), [&] { order.push_back(1); });
  EventHandle h = q.schedule(TimePoint(2), [&] { order.push_back(2); });
  q.schedule(TimePoint(3), [&] { order.push_back(3); });
  h.cancel();
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, HandleNotPendingAfterFire) {
  EventQueue q;
  EventHandle h = q.schedule(TimePoint(1), [] {});
  q.pop_and_run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // harmless
}

TEST(EventQueueTest, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
}

TEST(EventQueueTest, ScheduleFromWithinEvent) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint(1), [&] {
    order.push_back(1);
    q.schedule(TimePoint(2), [&] { order.push_back(2); });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<std::int64_t> times;
  // Insert in a scrambled deterministic order.
  for (std::int64_t i = 0; i < 5000; ++i) {
    const std::int64_t t = (i * 7919) % 5000;
    q.schedule(TimePoint(t), [&times, t] { times.push_back(t); });
  }
  while (!q.empty()) q.pop_and_run();
  ASSERT_EQ(times.size(), 5000u);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_LE(times[i - 1], times[i]);
}

TEST(EventQueueTest, ScheduledCountTracksAll) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(TimePoint(i), [] {});
  EXPECT_EQ(q.scheduled_count(), 5u);
}

TEST(EventQueueTest, HandleIsTriviallyCopyable) {
  static_assert(std::is_trivially_copyable_v<EventHandle>);
  EventQueue q;
  EventHandle h = q.schedule(TimePoint(1), [] {});
  EventHandle copy = h;  // copies the token, not the event
  EXPECT_TRUE(copy.pending());
  copy.cancel();
  EXPECT_FALSE(h.pending());  // both tokens name the same event
}

TEST(EventQueueTest, CancelAfterFireIsNoOp) {
  EventQueue q;
  int runs = 0;
  EventHandle h = q.schedule(TimePoint(1), [&] { ++runs; });
  q.pop_and_run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not disturb anything...
  h.cancel();  // ...no matter how often it is called
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, StaleGenerationHandleNotPendingAfterSlotReuse) {
  EventQueue q;
  // Fire the only event: its slot is recycled eagerly.
  EventHandle old = q.schedule(TimePoint(1), [] {});
  q.pop_and_run();
  EXPECT_FALSE(old.pending());
  // The next schedule reuses the slot with a bumped generation: the stale
  // handle must stay !pending() and its cancel() must not kill the new event.
  bool second_ran = false;
  EventHandle fresh = q.schedule(TimePoint(2), [&] { second_ran = true; });
  EXPECT_FALSE(old.pending());
  EXPECT_TRUE(fresh.pending());
  old.cancel();
  EXPECT_TRUE(fresh.pending());
  q.pop_and_run();
  EXPECT_TRUE(second_ran);
}

TEST(EventQueueTest, CancelledSlotReusedEagerly) {
  EventQueue q;
  EventHandle a = q.schedule(TimePoint(5), [] {});
  a.cancel();
  EXPECT_TRUE(q.empty());
  // Cancel-then-schedule churn must not leak live events or run anything.
  for (int i = 0; i < 1000; ++i) {
    EventHandle h = q.schedule(TimePoint(5 + i), [] { FAIL(); });
    h.cancel();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), TimePoint::max());
}

TEST(EventQueueTest, CancelFromWithinCallback) {
  EventQueue q;
  bool later_ran = false;
  EventHandle later = q.schedule(TimePoint(2), [&] { later_ran = true; });
  q.schedule(TimePoint(1), [&] { later.cancel(); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_FALSE(later_ran);
}

TEST(EventQueueTest, SelfCancelFromOwnCallbackIsNoOp) {
  // By the time a callback runs, its own handle is already stale; cancelling
  // it from inside must not disturb the queue or any reused slot.
  EventQueue q;
  EventHandle self;
  bool other_ran = false;
  self = q.schedule(TimePoint(1), [&] {
    self.cancel();
    q.schedule(TimePoint(2), [&] { other_ran = true; });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_TRUE(other_ran);
}

TEST(EventQueueTest, LargeCaptureCallbacksWork) {
  // Captures above the small-slot budget route to the large pool; behavior
  // must be identical, including cancellation with destructor side effects.
  struct Big {
    std::array<std::uint64_t, 18> payload;  // 144 bytes: beyond the 48B slots
  };
  EventQueue q;
  Big big{};
  big.payload[17] = 99;
  std::uint64_t seen = 0;
  q.schedule(TimePoint(1), [big, &seen] { seen = big.payload[17]; });
  EventHandle cancelled = q.schedule(TimePoint(2), [big, &seen] { seen = 1; });
  cancelled.cancel();
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(seen, 99u);
}

TEST(EventQueueTest, CallbackDestructorRunsExactlyOnceOnCancel) {
  struct Probe {
    int* counter;
    explicit Probe(int* c) : counter(c) {}
    Probe(Probe&& o) noexcept : counter(o.counter) { o.counter = nullptr; }
    Probe(const Probe& o) = default;
    ~Probe() {
      if (counter != nullptr) ++*counter;
    }
    void operator()() const {}
  };
  int destroyed = 0;
  {
    EventQueue q;
    EventHandle h = q.schedule(TimePoint(1), Probe(&destroyed));
    h.cancel();
    EXPECT_EQ(destroyed, 1) << "cancel must destroy the callback eagerly";
    h.cancel();
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 1);
}

// ---------------------------------------------------------------------------
// Differential validation of the two-tier ladder scheduler (DESIGN.md §11):
// whatever mixture of horizons, cancels, and interleaved drains the queue
// sees, its dispatch sequence must equal a naive reference — every
// non-cancelled event stable-sorted by time, ties broken by insertion order.

namespace {

struct RefEvent {
  std::int64_t at = 0;
  int payload = 0;      ///< unique per schedule call
  bool cancelled = false;
  EventHandle h;
};

/// The reference dispatch order: schedule order is the vector order, so a
/// stable sort by time alone reproduces the (time, insertion seq) contract.
std::vector<std::pair<std::int64_t, int>> reference_order(std::vector<RefEvent> evs) {
  std::stable_sort(evs.begin(), evs.end(),
                   [](const RefEvent& a, const RefEvent& b) { return a.at < b.at; });
  std::vector<std::pair<std::int64_t, int>> out;
  for (const RefEvent& e : evs) {
    if (!e.cancelled) out.emplace_back(e.at, e.payload);
  }
  return out;
}

}  // namespace

TEST(EventQueueTest, DifferentialRandomizedDispatchOrder) {
  // Offsets are drawn from four scales so entries land in (and migrate
  // between) every tier: the near heap, the rung band, and the overflow
  // list, with drains forcing rung sweeps and overflow reseeds in between.
  util::Rng rng(0x1adde8);
  EventQueue q;
  std::vector<RefEvent> evs;
  std::vector<std::pair<std::int64_t, int>> got;
  std::int64_t now = 0;
  int next_payload = 0;

  const auto draw_offset = [&]() -> std::int64_t {
    switch (rng.next() & 3u) {
      case 0: return static_cast<std::int64_t>(rng.next() & 0x3FFu);         // near
      case 1: return static_cast<std::int64_t>(rng.next() & 0xFFFFFFu);      // rungs
      case 2: return static_cast<std::int64_t>(rng.next() & 0x3FFFFFFFFFull);  // overflow
      default: return static_cast<std::int64_t>(rng.next() & 0x7u);          // ties
    }
  };

  for (int round = 0; round < 400; ++round) {
    const std::uint64_t op = rng.next() % 10u;
    if (op < 5u) {  // schedule a small burst
      const int k = 1 + static_cast<int>(rng.next() % 4u);
      for (int i = 0; i < k; ++i) {
        RefEvent e;
        e.at = now + draw_offset();
        e.payload = next_payload++;
        const std::int64_t at = e.at;
        const int payload = e.payload;
        e.h = q.schedule(TimePoint(e.at), [&got, at, payload] {
          got.emplace_back(at, payload);
        });
        evs.push_back(e);
      }
    } else if (op < 7u) {  // cancel a random still-pending event (any tier)
      if (!evs.empty()) {
        RefEvent& e = evs[rng.next() % evs.size()];
        if (e.h.pending()) {
          e.h.cancel();
          e.cancelled = true;
        }
      }
    } else {  // drain a few events, advancing now
      const int k = 1 + static_cast<int>(rng.next() % 6u);
      for (int i = 0; i < k && !q.empty(); ++i) {
        const TimePoint t = q.pop_and_run();
        EXPECT_GE(t.ns(), now);
        now = t.ns();
        ASSERT_FALSE(got.empty());
        EXPECT_EQ(got.back().first, t.ns()) << "pop time must match event time";
      }
    }
  }
  while (!q.empty()) q.pop_and_run();

  EXPECT_EQ(got, reference_order(evs));
}

TEST(EventQueueTest, CancelOverflowedHandleThenReseed) {
  // Entries past the rung band live in the overflow tier; cancelling them
  // there must neither fire them nor disturb the order of survivors once
  // the band is re-anchored around the far cluster.
  EventQueue q;
  std::vector<std::pair<std::int64_t, int>> got;
  const auto record = [&](std::int64_t at, int payload) {
    return q.schedule(TimePoint(at), [&got, at, payload] { got.emplace_back(at, payload); });
  };
  std::vector<RefEvent> evs;
  const auto add = [&](std::int64_t at) {
    RefEvent e;
    e.at = at;
    e.payload = static_cast<int>(evs.size());
    e.h = record(at, e.payload);
    evs.push_back(e);
  };
  // A near cluster, then a far cluster well beyond the initial rung band,
  // including equal-timestamp runs whose FIFO order must survive the
  // overflow -> rung -> heap migrations.
  for (int i = 0; i < 32; ++i) add(10 + i);
  const std::int64_t far = (1LL << 40) + 123;
  for (int i = 0; i < 32; ++i) add(far + (i / 4) * 1000);  // 4-way ties
  // Cancel every third far entry while it still sits in overflow, plus one
  // near entry for contrast.
  for (std::size_t i = 32; i < evs.size(); i += 3) {
    evs[i].h.cancel();
    evs[i].cancelled = true;
  }
  evs[5].h.cancel();
  evs[5].cancelled = true;
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(got, reference_order(evs));
}

TEST(EventQueueTest, CancelEntireOverflowThenScheduleNearAgain) {
  // Cancelling the whole far horizon must leave the queue fully usable:
  // live accounting intact, later near-term scheduling unaffected.
  EventQueue q;
  std::vector<EventHandle> far;
  far.reserve(64);
  for (int i = 0; i < 64; ++i) {
    far.push_back(q.schedule(TimePoint((1LL << 45) + i), [] { FAIL(); }));
  }
  int ran = 0;
  q.schedule(TimePoint(1), [&] { ++ran; });
  for (EventHandle& h : far) h.cancel();
  q.schedule(TimePoint(2), [&] { ++ran; });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.size(), 0u);
}

namespace {

// A script whose callbacks drive the queue from the inside: every fired
// event schedules successors, cancels itself, other events or the current
// head, and asks next_time() mid-callback. The script
// keeps its own (time, schedule order) set of pending events, so the oracle
// is exact: every dispatch must be that set's minimum.
class CallbackScript {
 public:
  explicit CallbackScript(std::uint64_t seed) : rng_(seed) {}

  void schedule(std::int64_t at) {
    const int id = static_cast<int>(handles_.size());
    at_.push_back(at);
    handles_.push_back(q_.schedule(TimePoint(at), [this, id] { fire(id); }));
    pending_.emplace(at, id);
    max_live_ = std::max(max_live_, pending_.size());
  }

  /// Run until `dispatches` events fired or the queue drained.
  void run(int dispatches) {
    for (int i = 0; i < dispatches && !q_.empty(); ++i) {
      ASSERT_EQ(q_.next_time().ns(), pending_.begin()->first);
      q_.pop_and_run();
      if (::testing::Test::HasFailure()) return;
      if ((i & 1023) == 0) q_.debug_validate();
    }
  }

  /// Stop scheduling successors and run the queue dry.
  void drain() {
    spawning_ = false;
    run(std::numeric_limits<int>::max());
  }

  EventQueue& queue() { return q_; }
  std::size_t max_live() const { return max_live_; }
  std::size_t pending() const { return pending_.size(); }

 private:
  std::int64_t offset() {
    switch (rng_.next() % 8u) {
      case 0: return static_cast<std::int64_t>(rng_.next() & 0x3FFu);          // near
      case 1: return static_cast<std::int64_t>(rng_.next() & 0x7u);            // ties
      case 2:                                                                  // far outliers
        return 1'000'000'000 + static_cast<std::int64_t>(rng_.next() % 99'000'000'000ull);
      case 3: return static_cast<std::int64_t>(rng_.next() % 16'000'000u);     // rungs
      default: return 1'000 + static_cast<std::int64_t>(rng_.next() % 200'000u);  // link-like
    }
  }

  void cancel(int id) {
    if (!handles_[static_cast<std::size_t>(id)].pending()) return;
    handles_[static_cast<std::size_t>(id)].cancel();
    pending_.erase({at_[static_cast<std::size_t>(id)], id});
  }

  void fire(int id) {
    const std::int64_t now = at_[static_cast<std::size_t>(id)];
    ASSERT_FALSE(pending_.empty());
    ASSERT_EQ(pending_.begin()->second, id) << "dispatch is not the (time, seq) minimum";
    pending_.erase(pending_.begin());
    // Population control: hover around 1500 live events, well above the
    // ladder's reseed cover.
    const std::uint64_t r = rng_.next();
    int successors = pending_.size() < 1500 ? 1 + static_cast<int>(r % 3u)
                                            : static_cast<int>(r % 2u);
    if (!spawning_) successors = 0;
    for (int i = 0; i < successors; ++i) {
      if (rng_.next() % 8u == 0) {  // a 4-way equal-timestamp burst
        const std::int64_t at = now + offset();
        for (int k = 0; k < 4; ++k) schedule(at);
      } else {
        schedule(now + offset());
      }
    }
    switch (rng_.next() % 8u) {
      case 0:  // cancel itself: a fired event's handle is inert
        cancel(id);
        EXPECT_FALSE(handles_[static_cast<std::size_t>(id)].pending());
        break;
      case 1:  // cancel whatever fires next
        if (!pending_.empty()) cancel(pending_.begin()->second);
        break;
      case 2:
      case 3:  // cancel a random earlier schedule, fired or not
        cancel(static_cast<int>(rng_.next() % handles_.size()));
        break;
      default:
        break;
    }
    if (rng_.next() % 4u == 0 && !pending_.empty()) {
      EXPECT_EQ(q_.next_time().ns(), pending_.begin()->first);
    }
  }

  EventQueue q_;
  util::Rng rng_;
  std::vector<EventHandle> handles_;
  std::vector<std::int64_t> at_;
  std::set<std::pair<std::int64_t, int>> pending_;
  std::size_t max_live_ = 0;
  bool spawning_ = true;
};

}  // namespace

TEST(EventQueueTest, DifferentialCallbacksScheduleAndCancel) {
  // Callbacks that schedule, cancel and peek from inside the dispatch: near
  // successors scheduled while the dispatched event's slot is already
  // recycled, a head cancelled before it fires, next_time() sweeping tiers
  // mid-callback, and density-sized reseeds over a population larger than
  // their cover with far outliers 1-100 s out.
  for (const std::uint64_t seed : {0x5eedULL, 0xfeedULL, 0xbeefULL}) {
    CallbackScript script(seed);
    util::Rng start(seed ^ 0x51a7u);
    for (int i = 0; i < 1000; ++i) {
      script.schedule(static_cast<std::int64_t>(start.next() % 2'000'000u));
    }
    script.run(60'000);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    EXPECT_GT(script.max_live(), detail::LadderQueue::kReseedCover);
    script.drain();
    EXPECT_TRUE(script.queue().empty());
    EXPECT_EQ(script.pending(), 0u);
  }
}

TEST(EventQueueTest, CompactionInsideACallbackKeepsDispatchOrder) {
  // A callback whose cancels trigger compaction mid-dispatch, followed by a
  // near schedule: the rebuilt heap must still fire the survivors and the
  // new event in (time, seq) order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 256; ++i) {
    doomed.push_back(q.schedule(TimePoint(1000 + i), [] { FAIL(); }));
  }
  q.schedule(TimePoint(1), [&] {
    order.push_back(1);
    for (EventHandle& h : doomed) h.cancel();  // garbage passes 4:1: compact()
    q.schedule(TimePoint(3), [&] { order.push_back(3); });
  });
  q.schedule(TimePoint(2), [&] { order.push_back(2); });
  q.schedule(TimePoint(5), [&] { order.push_back(5); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5}));
}

TEST(EventQueueTest, PeriodicSourcesKeepTheNearHeapSmall) {
  // The probe-campaign shape: 1024 sources ticking every 2 ms with
  // staggered phases, plus one timer 100 s out. Sizing rungs by the span
  // of the pending set would stretch the buckets over the 100 s outlier
  // and put every tick into the near heap; density-sized rungs keep the
  // heap at a few buckets' worth of ticks.
  constexpr std::int64_t kPeriod = 2'000'000;
  EventQueue q;
  util::Rng rng(2024);
  struct Tick {
    EventQueue* q;
    std::int64_t at;
    void operator()() const { q->schedule(TimePoint(at + kPeriod), Tick{q, at + kPeriod}); }
  };
  for (int i = 0; i < 1024; ++i) {
    const std::int64_t at = static_cast<std::int64_t>(rng.next() % kPeriod);
    q.schedule(TimePoint(at), Tick{&q, at});
  }
  int far_fired = 0;
  q.schedule(TimePoint(100'000'000'000), [&far_fired] { ++far_fired; });
  std::size_t max_near = 0;
  std::int64_t now = 0;
  while (now < 600'000'000) {
    now = q.pop_and_run().ns();
    // The construction-time window (2^20 ns buckets) holds until the
    // first reseed; judge the steady state after it.
    if (now > 200'000'000) max_near = std::max(max_near, q.near_size());
  }
  EXPECT_EQ(far_fired, 0);
  EXPECT_EQ(q.size(), 1025u);
  EXPECT_LT(max_near, 64u);
}

TEST(EventQueueTest, SmallOverflowKeepsMillisecondRungs) {
  // 100 events 20 us apart, all past the construction-time window. An
  // overflow no larger than the reseed cover is spanned whole with buckets
  // of at least 2^20 ns, so the first bucket swept carries the ~53 events
  // in its first millisecond into the heap at once; 2^14 ns buckets sized
  // to the 2 ms span would carry one.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.schedule(TimePoint(200'000'000 + std::int64_t{i} * 20'000),
               [&order, i] { order.push_back(i); });
  }
  q.pop_and_run();
  EXPECT_GE(q.near_size(), 40u);
  while (!q.empty()) q.pop_and_run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, QueueDestructorDestroysUnfiredCallbacks) {
  struct Probe {
    int* counter;
    explicit Probe(int* c) : counter(c) {}
    Probe(Probe&& o) noexcept : counter(o.counter) { o.counter = nullptr; }
    Probe(const Probe& o) = default;
    ~Probe() {
      if (counter != nullptr) ++*counter;
    }
    void operator()() const {}
  };
  int destroyed = 0;
  {
    EventQueue q;
    q.schedule(TimePoint(1), Probe(&destroyed));
    q.schedule(TimePoint(2), Probe(&destroyed));
  }
  EXPECT_EQ(destroyed, 2);
}

}  // namespace
}  // namespace lossburst::sim

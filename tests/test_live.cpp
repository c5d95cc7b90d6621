// Live telemetry service, sim side (DESIGN.md §13): broadcast snapshot
// ring, decimation chain, top-flows aggregator, snapshot publisher, and the
// flight-recorder harvest cursor — including the gating/wraparound contract
// (gated record kinds never appear in streamed intervals; ring wrap is
// counted as loss, never double-counted) and the profiler's per-packet
// work-unit attribution for link dispatch.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/network.hpp"
#include "obs/live/decimator.hpp"
#include "obs/live/publisher.hpp"
#include "obs/live/recorder_cursor.hpp"
#include "obs/live/snapshot.hpp"
#include "obs/live/spsc_ring.hpp"
#include "obs/live/topflows.hpp"
#include "obs/metrics.hpp"
#include "obs/tags.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_ring.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace lossburst;
using namespace lossburst::util::literals;
using obs::live::SnapKind;
using obs::live::SnapshotRec;
using obs::live::SnapshotRing;
using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------------------------
// Broadcast snapshot ring

SnapshotRec rec_at(std::int64_t t, double v0 = 0.0) {
  SnapshotRec r;
  r.t_ns = t;
  r.kind = static_cast<std::uint32_t>(SnapKind::kMetric);
  r.v0 = v0;
  return r;
}

TEST(SnapshotRingTest, DeliversInPublicationOrder) {
  SnapshotRing ring;
  ring.configure(8);
  SnapshotRing::Cursor c = ring.make_cursor();
  for (std::int64_t i = 0; i < 5; ++i) ring.publish(rec_at(i));

  SnapshotRec out;
  for (std::int64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(ring.poll(c, out), SnapshotRing::Poll::kOk);
    EXPECT_EQ(out.t_ns, i);
  }
  EXPECT_EQ(ring.poll(c, out), SnapshotRing::Poll::kEmpty);
  EXPECT_EQ(c.dropped, 0u);
}

TEST(SnapshotRingTest, LappedReaderLosesOnlyItsOwnSamples) {
  SnapshotRing ring;
  ring.configure(4);
  SnapshotRing::Cursor slow = ring.make_cursor();
  for (std::int64_t i = 0; i < 10; ++i) ring.publish(rec_at(i));

  // The writer never waited: all ten publications landed.
  EXPECT_EQ(ring.published(), 10u);

  // The slow reader resumes at the oldest publication still guaranteed
  // stable (head - capacity + 1 = 7) and the gap is charged to it alone.
  SnapshotRec out;
  ASSERT_EQ(ring.poll(slow, out), SnapshotRing::Poll::kOk);
  EXPECT_EQ(out.t_ns, 7);
  EXPECT_EQ(slow.dropped, 7u);
  ASSERT_EQ(ring.poll(slow, out), SnapshotRing::Poll::kOk);
  EXPECT_EQ(out.t_ns, 8);
  ASSERT_EQ(ring.poll(slow, out), SnapshotRing::Poll::kOk);
  EXPECT_EQ(out.t_ns, 9);
  EXPECT_EQ(ring.poll(slow, out), SnapshotRing::Poll::kEmpty);
  EXPECT_EQ(slow.dropped, 7u);

  // A cursor made now starts at the same oldest-guaranteed point with a
  // clean drop counter: earlier overwrites were never "its" samples.
  SnapshotRing::Cursor fresh = ring.make_cursor();
  ASSERT_EQ(ring.poll(fresh, out), SnapshotRing::Poll::kOk);
  EXPECT_EQ(out.t_ns, 7);
  EXPECT_EQ(fresh.dropped, 0u);
}

TEST(SnapshotRingTest, CapacityRoundsUpToPowerOfTwo) {
  SnapshotRing ring;
  ring.configure(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SnapshotRingTest, CursorAttachedMidWrapStartsAtOldestGuaranteed) {
  SnapshotRing ring;
  ring.configure(4);
  // Writer is mid-way through its second lap: head = 6, slots hold 2..5.
  for (std::int64_t i = 0; i < 6; ++i) ring.publish(rec_at(i));

  // Publication head - capacity = 2 is still physically intact, but the
  // writer's next publish lands on its slot; make_cursor starts one past it
  // so an attach racing the writer can never charge itself phantom drops.
  SnapshotRing::Cursor c = ring.make_cursor();
  SnapshotRec out;
  ASSERT_EQ(ring.poll(c, out), SnapshotRing::Poll::kOk);
  EXPECT_EQ(out.t_ns, 3);
  ASSERT_EQ(ring.poll(c, out), SnapshotRing::Poll::kOk);
  EXPECT_EQ(out.t_ns, 4);
  ASSERT_EQ(ring.poll(c, out), SnapshotRing::Poll::kOk);
  EXPECT_EQ(out.t_ns, 5);
  EXPECT_EQ(ring.poll(c, out), SnapshotRing::Poll::kEmpty);
  EXPECT_EQ(c.dropped, 0u);
}

TEST(SnapshotRingTest, ReaderExactlyOneLapBehindStillReadsTheSlot) {
  SnapshotRing ring;
  ring.configure(4);
  ring.publish(rec_at(0));
  SnapshotRing::Cursor c;  // at publication 0

  // Fill the remaining slots and stop with head - c.next == capacity: slot 0
  // has not been overwritten yet (the writer's NEXT publish would), so the
  // boundary lag delivers rather than drops.
  for (std::int64_t i = 1; i < 4; ++i) ring.publish(rec_at(i));
  SnapshotRec out;
  ASSERT_EQ(ring.poll(c, out), SnapshotRing::Poll::kOk);
  EXPECT_EQ(out.t_ns, 0);
  EXPECT_EQ(c.dropped, 0u);

  // One more publication reuses slot 0; a cursor still parked there now
  // skips exactly the overwritten prefix.
  SnapshotRing::Cursor late;  // at publication 0, one past the boundary
  ring.publish(rec_at(4));
  ASSERT_EQ(ring.poll(late, out), SnapshotRing::Poll::kOk);
  EXPECT_EQ(out.t_ns, 2);  // oldest guaranteed = head - capacity + 1
  EXPECT_EQ(late.dropped, 2u);
}

TEST(SnapshotRingTest, LappedTwiceChargesEveryMissedPublicationExactly) {
  SnapshotRing ring;
  ring.configure(4);
  SnapshotRing::Cursor c = ring.make_cursor();

  // First lapping: nine publications overwrite the reader's whole window.
  for (std::int64_t i = 0; i < 9; ++i) ring.publish(rec_at(i));
  SnapshotRec out;
  std::uint64_t delivered = 0;
  while (ring.poll(c, out) == SnapshotRing::Poll::kOk) ++delivered;
  EXPECT_EQ(delivered, 3u);  // 6, 7, 8
  EXPECT_EQ(c.dropped, 6u);

  // Second lapping of the same cursor: the new gap is charged on top, and
  // nothing already charged is counted again.
  for (std::int64_t i = 9; i < 18; ++i) ring.publish(rec_at(i));
  while (ring.poll(c, out) == SnapshotRing::Poll::kOk) ++delivered;
  EXPECT_EQ(delivered, 6u);  // + 15, 16, 17
  EXPECT_EQ(c.dropped, 12u);

  // Conservation: every publication was either delivered or charged.
  EXPECT_EQ(delivered + c.dropped, ring.published());
}

// ---------------------------------------------------------------------------
// Decimation chain

TEST(DecimatorTest, FoldsTenRawSamplesIntoLevelOne) {
  obs::live::Decimator dec;
  dec.configure(1);
  std::uint32_t mask = 0;
  for (int i = 1; i <= 10; ++i) {
    dec.feed(0, static_cast<double>(i));
    mask = dec.end_interval();
    if (i < 10) {
      EXPECT_EQ(mask, 0u) << "level completed early at tick " << i;
    }
  }
  ASSERT_EQ(mask & (1u << 1), 1u << 1);
  const obs::live::Decimator::Sample& s = dec.sample(1, 0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 10.0);
  EXPECT_EQ(s.sum, 55.0);
  EXPECT_EQ(s.last, 10.0);
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
}

TEST(DecimatorTest, LevelTwoFoldsFromLevelOneNotRawSamples) {
  obs::live::Decimator dec;
  dec.configure(1);
  std::uint32_t mask = 0;
  int level1_completions = 0;
  for (int i = 0; i < 100; ++i) {
    dec.feed(0, 2.0);
    mask = dec.end_interval();
    if ((mask & (1u << 1)) != 0) ++level1_completions;
  }
  EXPECT_EQ(level1_completions, 10);
  ASSERT_EQ(mask & (1u << 2), 1u << 2);  // tick 100 completes level 2
  const obs::live::Decimator::Sample& s = dec.sample(2, 0);
  EXPECT_EQ(s.count, 100u);  // count is base intervals covered
  EXPECT_EQ(s.sum, 200.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(DecimatorTest, SpanIntervalsMatchFoldProducts) {
  EXPECT_EQ(obs::live::Decimator::span_intervals(0), 1u);
  EXPECT_EQ(obs::live::Decimator::span_intervals(1), 10u);
  EXPECT_EQ(obs::live::Decimator::span_intervals(2), 100u);
  EXPECT_EQ(obs::live::Decimator::span_intervals(3), 600u);
}

// ---------------------------------------------------------------------------
// Top flows

struct FlowCounters {
  obs::FlowSample cum;
  static obs::FlowSample read(const void* ctx) {
    return static_cast<const FlowCounters*>(ctx)->cum;
  }
};

TEST(TopFlowsTest, RanksByWindowBytesWithFlowIdTieBreak) {
  obs::FlowTable table;
  FlowCounters f1, f2, f3;
  int owner = 0;
  table.add(1, FlowCounters::read, &f1, &owner);
  table.add(2, FlowCounters::read, &f2, &owner);
  table.add(3, FlowCounters::read, &f3, &owner);

  obs::live::TopFlows top;
  top.freeze({&table});
  ASSERT_EQ(top.flows(), 3u);

  f1.cum.bytes = 100;
  f2.cum.bytes = 900;
  f3.cum.bytes = 900;  // ties with flow 2: lower id must rank first
  top.tick();
  ASSERT_EQ(top.top_count(), 3u);
  EXPECT_EQ(top.top(0).flow, 2u);
  EXPECT_EQ(top.top(1).flow, 3u);
  EXPECT_EQ(top.top(2).flow, 1u);
  EXPECT_EQ(top.top(0).window.bytes, 900u);
}

TEST(TopFlowsTest, WindowSlidesOldDeltasOut) {
  obs::FlowTable table;
  FlowCounters f;
  int owner = 0;
  table.add(7, FlowCounters::read, &f, &owner);

  obs::live::TopFlows top;
  top.freeze({&table});

  f.cum.bytes = 500;  // one burst in the first interval, then silence
  top.tick();
  EXPECT_EQ(top.top(0).window.bytes, 500u);
  for (std::size_t i = 0; i + 1 < obs::live::TopFlows::kWindow; ++i) {
    top.tick();
    EXPECT_EQ(top.top(0).window.bytes, 500u) << "expired early at tick " << i;
  }
  top.tick();  // the burst's interval slides out of the window
  EXPECT_EQ(top.top(0).window.bytes, 0u);
}

// ---------------------------------------------------------------------------
// Publisher

std::vector<SnapshotRec> drain(const obs::live::LivePublisher& pub,
                               SnapshotRing::Cursor& c) {
  std::vector<SnapshotRec> out;
  SnapshotRec rec;
  while (pub.ring().poll(c, rec) == SnapshotRing::Poll::kOk) out.push_back(rec);
  return out;
}

TEST(LivePublisherTest, StreamsCounterDeltasUnderPrefixedSchema) {
  obs::Telemetry tel;
  std::uint64_t hits = 40;
  int owner = 0;
  tel.registry().add_counter("q.hits", &hits, &owner);

  obs::live::LivePublisher pub;
  pub.attach(tel, "s0.");
  pub.freeze(0, 100'000'000);
  ASSERT_TRUE(pub.frozen());
  ASSERT_EQ(pub.schema().size(), 1u);
  EXPECT_EQ(pub.schema()[0].name, "s0.q.hits");

  SnapshotRing::Cursor c = pub.make_cursor();
  hits = 52;
  pub.publish(100'000'000);
  const std::vector<SnapshotRec> batch = drain(pub, c);

  // One raw metric record (delta vs the value at freeze) then the mark.
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].kind, static_cast<std::uint32_t>(SnapKind::kMetric));
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[0].aux, 0u);
  EXPECT_EQ(batch[0].v0, 12.0);
  EXPECT_EQ(batch.back().kind, static_cast<std::uint32_t>(SnapKind::kMark));
  EXPECT_EQ(batch.back().aux, 0u);
  EXPECT_EQ(pub.intervals_published(), 1u);

  hits = 60;
  pub.publish(200'000'000);
  const std::vector<SnapshotRec> batch2 = drain(pub, c);
  ASSERT_EQ(batch2.size(), 2u);
  EXPECT_EQ(batch2[0].v0, 8.0);  // delta vs the previous interval, not freeze
}

TEST(LivePublisherTest, EveryIntervalEndsWithItsMark) {
  obs::Telemetry tel;
  std::uint64_t v = 0;
  int owner = 0;
  tel.registry().add_counter("c", &v, &owner);

  obs::live::LivePublisher pub;
  pub.attach(tel);
  pub.freeze(0, 1'000'000);
  SnapshotRing::Cursor c = pub.make_cursor();
  for (int i = 1; i <= 25; ++i) {
    v += static_cast<std::uint64_t>(i);
    pub.publish(i * 1'000'000);
  }
  const std::vector<SnapshotRec> all = drain(pub, c);
  std::uint64_t next_mark = 0;
  for (const SnapshotRec& r : all) {
    if (r.kind != static_cast<std::uint32_t>(SnapKind::kMark)) continue;
    EXPECT_EQ(r.aux, next_mark);  // marks are dense and ordered
    ++next_mark;
  }
  EXPECT_EQ(next_mark, 25u);
  EXPECT_EQ(pub.intervals_published(), 25u);
  // The last record of the stream is the last interval's mark.
  EXPECT_EQ(all.back().kind, static_cast<std::uint32_t>(SnapKind::kMark));
}

// ---------------------------------------------------------------------------
// Flight-recorder gating x streaming (the satellite contract): kinds masked
// off by per-kind gating are never written, so they must never appear in a
// streamed interval; ring wraparound shows up as counted loss, never as
// double-counted records.

// Write through the instrumentation-site idiom, exactly as components do.
void record_gated(obs::Telemetry& t, obs::RecordKind k, std::int64_t t_ns) {
  if (obs::FlightRecorder* rec = obs::trace_recorder(&t, k)) {
    rec->record(k, t_ns, 0, 0, 0);
  }
}

TEST(LiveTraceStreamTest, GatedKindsNeverAppearInStreamedIntervals) {
  obs::Telemetry tel;
  tel.recorder().configure(64, obs::kind_bit(obs::RecordKind::kPktDrop));

  obs::live::LivePublisher pub;
  pub.attach(tel);
  pub.freeze(0, 1'000'000);
  SnapshotRing::Cursor c = pub.make_cursor();

  for (int i = 0; i < 5; ++i) {
    record_gated(tel, obs::RecordKind::kPktDrop, i);
    record_gated(tel, obs::RecordKind::kPktEnqueue, i);  // masked off
    record_gated(tel, obs::RecordKind::kPktDequeue, i);  // masked off
  }
  pub.publish(1'000'000);

  bool saw_drop_counts = false;
  for (const SnapshotRec& r : drain(pub, c)) {
    if (r.kind != static_cast<std::uint32_t>(SnapKind::kTraceKinds)) continue;
    EXPECT_EQ(r.id, static_cast<std::uint32_t>(obs::RecordKind::kPktDrop))
        << "a gated kind leaked into the stream";
    EXPECT_EQ(r.v0, 5.0);
    saw_drop_counts = true;
  }
  EXPECT_TRUE(saw_drop_counts);
}

TEST(LiveTraceStreamTest, RingWrapCountsLossNeverDoubleCounts) {
  obs::Telemetry tel;
  tel.recorder().configure(8, obs::kAllKinds);  // tiny ring, will wrap

  obs::live::LivePublisher pub;
  pub.attach(tel);
  pub.freeze(0, 1'000'000);
  SnapshotRing::Cursor c = pub.make_cursor();

  // Interval 1: 20 records through an 8-slot ring. The per-kind counts come
  // from the recorder's monotone write totals, so all 20 are counted even
  // though 12 were overwritten; the drops record separately reports those 12
  // as the part of the interval the post-mortem ring no longer covers.
  for (int i = 0; i < 20; ++i) {
    tel.recorder().record(obs::RecordKind::kPktDrop, i, 0, 0, 0);
  }
  pub.publish(1'000'000);
  double counted = 0.0, lost = 0.0;
  for (const SnapshotRec& r : drain(pub, c)) {
    if (r.kind == static_cast<std::uint32_t>(SnapKind::kTraceKinds)) counted += r.v0;
    if (r.kind == static_cast<std::uint32_t>(SnapKind::kTraceDrops)) lost += r.v0;
  }
  EXPECT_EQ(counted, 20.0);  // exact despite the wrap
  EXPECT_EQ(lost, 12.0);     // ring coverage gap, reported once

  // Interval 2: three more records. The totals are differenced per harvest,
  // so interval 1's records are not re-counted and no loss is re-reported.
  for (int i = 0; i < 3; ++i) {
    tel.recorder().record(obs::RecordKind::kPktDrop, 100 + i, 0, 0, 0);
  }
  pub.publish(2'000'000);
  counted = lost = 0.0;
  for (const SnapshotRec& r : drain(pub, c)) {
    if (r.kind == static_cast<std::uint32_t>(SnapKind::kTraceKinds)) counted += r.v0;
    if (r.kind == static_cast<std::uint32_t>(SnapKind::kTraceDrops)) lost += r.v0;
  }
  EXPECT_EQ(counted, 3.0);
  EXPECT_EQ(lost, 0.0);
}

TEST(RecorderCursorTest, HarvestIsDeltaBasedAndWrapAware) {
  obs::FlightRecorder rec;
  rec.configure(4, obs::kAllKinds);
  obs::live::RecorderCursor cur;
  cur.reset(&rec);

  std::array<std::uint64_t, obs::live::kRecordKinds> counts{};
  EXPECT_EQ(cur.harvest(counts), 0u);  // nothing fresh yet

  rec.record(obs::RecordKind::kPktDrop, 1, 0, 0, 0);
  rec.record(obs::RecordKind::kPktEnqueue, 2, 0, 0, 0);
  counts.fill(0);
  EXPECT_EQ(cur.harvest(counts), 0u);
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::RecordKind::kPktDrop)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::RecordKind::kPktEnqueue)], 1u);

  // Ten fresh records through a four-slot ring: all ten counted (the
  // per-kind totals are exact), six reported overwritten in the ring.
  for (int i = 0; i < 10; ++i) rec.record(obs::RecordKind::kPktDrop, 10 + i, 0, 0, 0);
  counts.fill(0);
  EXPECT_EQ(cur.harvest(counts), 6u);
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::RecordKind::kPktDrop)], 10u);

  // A third harvest with nothing new: zero counts, zero loss.
  counts.fill(0);
  EXPECT_EQ(cur.harvest(counts), 0u);
  for (const std::uint64_t v : counts) EXPECT_EQ(v, 0u);
}

// ---------------------------------------------------------------------------
// Profiler work-unit attribution: every packet the link serializes charges
// exactly one unit to the kLinkTx dispatch that completes it, so per-tag
// profiles can report link work per packet.

TEST(ProfileEquivalenceTest, LinkTxUnitsEqualPacketsServiced) {
  sim::Simulator sim;
  obs::Telemetry tel;
  tel.enable_profiler();
  sim.set_telemetry(&tel);

  net::Network net(sim);
  net::Link* link = net.add_link("l", 8'000'000, 50_ms,
                                 std::make_unique<net::DropTailQueue>(64));
  const net::Route* route = net.add_route({link});

  struct Sink final : net::Endpoint {
    explicit Sink(sim::Simulator& s) : sim(s) {}
    void receive(const net::Packet&, const net::PacketOptions*) override {
      times.push_back(sim.now());
    }
    sim::Simulator& sim;
    std::vector<TimePoint> times;
  } sink(sim);

  // Three bursts of 8 back-to-back packets: each queues behind a busy line.
  for (int burst = 0; burst < 3; ++burst) {
    sim.in(Duration::millis(10 * burst), [&, burst] {
      for (net::SeqNum s = 0; s < 8; ++s) {
        net::Packet p;
        p.flow = 1;
        p.seq = static_cast<net::SeqNum>(burst * 8 + s);
        p.size_bytes = 1000;
        p.route = route;
        p.sink = &sink;
        net::inject(std::move(p));
      }
    });
  }
  sim.run();

  const obs::LoopProfiler* prof = tel.profiler();
  std::uint64_t total_units = 0;
  for (std::size_t t = 0; t < obs::kEventTagCount; ++t) {
    total_units += prof->units(static_cast<obs::EventTag>(t));
  }
  EXPECT_EQ(link->packets_sent(), 24u);
  EXPECT_EQ(prof->units(obs::EventTag::kLinkTx), link->packets_sent());
  EXPECT_EQ(prof->count(obs::EventTag::kLinkTx), link->packets_sent());
  EXPECT_EQ(total_units, link->packets_sent());
  EXPECT_EQ(sink.times.size(), link->packets_sent());
  sim.set_telemetry(nullptr);
}

}  // namespace

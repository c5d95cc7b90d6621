#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace lossburst::net {
namespace {

using namespace lossburst::util::literals;
using util::Duration;
using util::TimePoint;

/// Records every delivered packet with its arrival time.
class Collector final : public Endpoint {
 public:
  explicit Collector(sim::Simulator& sim) : sim_(sim) {}
  void receive(const Packet& pkt, const PacketOptions* /*opt*/) override {
    seqs.push_back(pkt.seq);
    times.push_back(sim_.now());
    last = pkt;
  }
  std::vector<SeqNum> seqs;
  std::vector<TimePoint> times;
  Packet last;

 private:
  sim::Simulator& sim_;
};

Packet make_packet(SeqNum seq, std::uint32_t bytes, const Route* route, Endpoint* sink) {
  Packet p;
  p.flow = 1;
  p.seq = seq;
  p.size_bytes = bytes;
  p.route = route;
  p.sink = sink;
  return p;
}

TEST(LinkTest, TxTimeMatchesRate) {
  sim::Simulator sim;
  PacketPool pool;
  Link link(sim, pool, "l", 8'000'000 /* 1 MB/s */, 0_ms,
            std::make_unique<DropTailQueue>(10));
  EXPECT_EQ(link.tx_time(1000).ns(), 1'000'000);  // 1000 B at 1 MB/s = 1 ms
  EXPECT_EQ(link.tx_time(1).ns(), 1'000);
}

TEST(LinkTest, TxTimeOddRateMatchesExactFormula) {
  // 7 bps does not divide 8e9 or 8e12 — exercises the 128-bit fallback.
  sim::Simulator sim;
  PacketPool pool;
  Link link(sim, pool, "l", 7, 0_ms, std::make_unique<DropTailQueue>(10));
  // 1000 B * 8e9 / 7 = 1142857142857.14... -> floor.
  EXPECT_EQ(link.tx_time(1000).ns(), 1'142'857'142'857);
}

TEST(LinkTest, TxTimeJumboSizeDoesNotOverflow) {
  sim::Simulator sim;
  PacketPool pool;
  // 1 Tbps uses the picosecond fast path (8 ps/byte).
  Link link(sim, pool, "l", 1'000'000'000'000ULL, 0_ms,
            std::make_unique<DropTailQueue>(10));
  // Max-size "packet": 4294967295 B * 8e12 / 1e12 ns.
  EXPECT_EQ(link.tx_time(0xffff'ffffu).ns(), 34'359'738);
  // A max-size packet on a 1 bps link exceeds int64 nanoseconds entirely;
  // the guard saturates instead of wrapping negative.
  PacketPool pool2;
  Link slow(sim, pool2, "s", 1, 0_ms, std::make_unique<DropTailQueue>(10));
  EXPECT_GT(slow.tx_time(0xffff'ffffu).ns(), 0);
  EXPECT_GE(slow.tx_time(0xffff'ffffu).ns(), slow.tx_time(0x7fff'ffffu).ns());
}

TEST(LinkTest, BdpPackets) {
  sim::Simulator sim;
  PacketPool pool;
  Link link(sim, pool, "l", 100'000'000, 50_ms, std::make_unique<DropTailQueue>(10));
  // 100 Mbps * 50 ms = 625000 bytes = 625 x 1000B packets.
  EXPECT_NEAR(link.bdp_packets(1000), 625.0, 1e-9);
}

TEST(LinkTest, DeliveryLatencyIsTxPlusPropagation) {
  sim::Simulator sim;
  Network net(sim);
  Link* link = net.add_link("l", 8'000'000, 10_ms, std::make_unique<DropTailQueue>(10));
  const Route* route = net.add_route({link});
  Collector sink(sim);
  sim.in(Duration::zero(), [&] { inject(make_packet(0, 1000, route, &sink)); });
  sim.run();
  ASSERT_EQ(sink.times.size(), 1u);
  // 1 ms serialization + 10 ms propagation.
  EXPECT_EQ(sink.times[0], TimePoint::zero() + 11_ms);
}

TEST(LinkTest, BackToBackPacketsSerializeSequentially) {
  sim::Simulator sim;
  Network net(sim);
  Link* link = net.add_link("l", 8'000'000, 0_ms, std::make_unique<DropTailQueue>(10));
  const Route* route = net.add_route({link});
  Collector sink(sim);
  sim.in(Duration::zero(), [&] {
    for (SeqNum s = 0; s < 3; ++s) inject(make_packet(s, 1000, route, &sink));
  });
  sim.run();
  ASSERT_EQ(sink.times.size(), 3u);
  EXPECT_EQ(sink.times[0], TimePoint::zero() + 1_ms);
  EXPECT_EQ(sink.times[1], TimePoint::zero() + 2_ms);
  EXPECT_EQ(sink.times[2], TimePoint::zero() + 3_ms);
}

TEST(LinkTest, MultiHopRouteTraversesAllLinks) {
  sim::Simulator sim;
  Network net(sim);
  Link* a = net.add_link("a", 8'000'000, 5_ms, std::make_unique<DropTailQueue>(10));
  Link* b = net.add_link("b", 8'000'000, 7_ms, std::make_unique<DropTailQueue>(10));
  const Route* route = net.add_route({a, b});
  Collector sink(sim);
  sim.in(Duration::zero(), [&] { inject(make_packet(0, 1000, route, &sink)); });
  sim.run();
  ASSERT_EQ(sink.times.size(), 1u);
  // 1ms tx + 5ms + 1ms tx + 7ms.
  EXPECT_EQ(sink.times[0], TimePoint::zero() + 14_ms);
  EXPECT_EQ(a->packets_sent(), 1u);
  EXPECT_EQ(b->packets_sent(), 1u);
}

TEST(LinkTest, EmptyRouteDeliversDirectly) {
  sim::Simulator sim;
  Network net(sim);
  const Route* route = net.add_route({});
  Collector sink(sim);
  inject(make_packet(9, 100, route, &sink));
  EXPECT_EQ(sink.seqs, (std::vector<SeqNum>{9}));
}

TEST(LinkTest, OverflowDropsAtBottleneck) {
  sim::Simulator sim;
  Network net(sim);
  // Slow link with a 2-packet buffer; blast 10 packets at once.
  Link* link = net.add_link("slow", 8'000'000, 0_ms, std::make_unique<DropTailQueue>(2));
  const Route* route = net.add_route({link});
  Collector sink(sim);
  sim.in(Duration::zero(), [&] {
    for (SeqNum s = 0; s < 10; ++s) inject(make_packet(s, 1000, route, &sink));
  });
  sim.run();
  // One in flight + 2 queued survive.
  EXPECT_EQ(sink.seqs.size(), 3u);
  EXPECT_EQ(link->queue().counters().dropped, 7u);
}

TEST(LinkTest, FifoOrderPreservedPerFlow) {
  sim::Simulator sim;
  Network net(sim);
  Link* link = net.add_link("l", 80'000'000, 1_ms, std::make_unique<DropTailQueue>(100));
  const Route* route = net.add_route({link});
  Collector sink(sim);
  sim.in(Duration::zero(), [&] {
    for (SeqNum s = 0; s < 50; ++s) inject(make_packet(s, 1000, route, &sink));
  });
  sim.run();
  ASSERT_EQ(sink.seqs.size(), 50u);
  for (SeqNum s = 0; s < 50; ++s) EXPECT_EQ(sink.seqs[s], s);
}

TEST(LinkTest, ProcessingJitterDelaysDelivery) {
  sim::Simulator sim;
  Network net(sim);
  Link* link = net.add_link("l", 8'000'000, 0_ms, std::make_unique<DropTailQueue>(10));
  link->set_processing_jitter([] { return Duration::millis(3); });
  const Route* route = net.add_route({link});
  Collector sink(sim);
  sim.in(Duration::zero(), [&] { inject(make_packet(0, 1000, route, &sink)); });
  sim.run();
  ASSERT_EQ(sink.times.size(), 1u);
  EXPECT_EQ(sink.times[0], TimePoint::zero() + 4_ms);  // 1 tx + 3 jitter
}

TEST(LinkTest, CountsBytesAndPackets) {
  sim::Simulator sim;
  Network net(sim);
  Link* link = net.add_link("l", 8'000'000, 0_ms, std::make_unique<DropTailQueue>(10));
  const Route* route = net.add_route({link});
  Collector sink(sim);
  sim.in(Duration::zero(), [&] {
    inject(make_packet(0, 1000, route, &sink));
    inject(make_packet(1, 500, route, &sink));
  });
  sim.run();
  EXPECT_EQ(link->packets_sent(), 2u);
  EXPECT_EQ(link->bytes_sent(), 1500u);
}

TEST(LinkTest, CountersAreExactWhenTheRunStopsMidBacklog) {
  // A run that stops while a backlog drains must read the counters and the
  // queue depth of every serialization started so far: 10 x 1 ms packets
  // queued at t = 0 and stopped at 4.5 ms means five have started and four
  // have finished. The 10 ms propagation delay keeps every arrival past the
  // stop, so no delivery event touches the link before the counters are read.
  sim::Simulator sim;
  Network net(sim);
  Link* link = net.add_link("l", 8'000'000, 10_ms, std::make_unique<DropTailQueue>(16));
  const Route* route = net.add_route({link});
  Collector sink(sim);
  sim.in(Duration::zero(), [&] {
    for (SeqNum s = 0; s < 10; ++s) inject(make_packet(s, 1000, route, &sink));
  });
  sim.run_until(TimePoint::zero() + Duration::micros(4500));
  EXPECT_EQ(link->packets_sent(), 5u);
  EXPECT_EQ(link->bytes_sent(), 5000u);
  EXPECT_EQ(link->queue().len_packets(), 5u);
  EXPECT_EQ(link->queue().counters().dequeued, 5u);
  EXPECT_TRUE(sink.seqs.empty());
}

TEST(LinkTest, SameInstantEnqueueSeesTheQueueInSchedulingOrder) {
  // Packets 0..4 reach a 1 ms/packet link with room for 4 queued: 1..4 wait
  // and the serializer frees one slot per ms. An event at 2 ms, scheduled
  // before any transmission started, schedules an enqueue of three packets
  // at 3 ms — the instant packet 2 finishes. Equal-time events run in
  // scheduling order, and that enqueue was scheduled before packet 2's
  // "transmit done", so it still finds packets 3 and 4 queued: two fit and
  // one is dropped.
  sim::Simulator sim;
  Network net(sim);
  Link* link = net.add_link("l", 8'000'000, 50_ms, std::make_unique<DropTailQueue>(4));
  const Route* route = net.add_route({link});
  Collector sink(sim);
  (void)sim.at(TimePoint::zero() + 2_ms, [&] {
    (void)sim.at(TimePoint::zero() + 3_ms, [&] {
      for (SeqNum s = 10; s < 13; ++s) inject(make_packet(s, 1000, route, &sink));
    });
  });
  for (SeqNum s = 0; s < 5; ++s) inject(make_packet(s, 1000, route, &sink));
  sim.run();
  EXPECT_EQ(link->queue().counters().dropped, 1u);
  EXPECT_EQ(sink.seqs, (std::vector<SeqNum>{0, 1, 2, 3, 4, 10, 11}));
}

}  // namespace
}  // namespace lossburst::net

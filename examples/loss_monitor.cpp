// Example: attaching a custom tracer to a live simulation — the library's
// extension point for building your own measurement tools. Streams every
// drop event as CSV while the simulation runs and prints a run-length
// summary at the end.
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/gilbert.hpp"
#include "core/noise.hpp"
#include "net/network.hpp"
#include "net/trace.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "util/flags.hpp"

using namespace lossburst;
using util::Duration;
using util::TimePoint;

namespace {

/// A QueueTracer that streams drops as they happen (like tcpdump on the
/// router) instead of buffering them.
class StreamingTracer final : public net::QueueTracer {
 public:
  void on_drop(TimePoint t, const net::Packet& pkt, std::size_t qlen) override {
    ++drops_;
    if (drops_ <= 25) {  // show the first few live
      std::printf("drop: t=%.6fs flow=%u seq=%llu qlen=%zu\n", t.seconds(), pkt.flow,
                  static_cast<unsigned long long>(pkt.seq), qlen);
    }
    last_ = t;
  }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  std::uint64_t drops_ = 0;
  TimePoint last_;
};

int run(const util::Flags&) {
  sim::Simulator sim(123);
  net::Network network(sim);

  net::DumbbellConfig cfg;
  cfg.flow_count = 8;
  cfg.buffer_bdp_fraction = 0.25;
  net::Dumbbell bell = net::build_dumbbell(network, cfg);

  StreamingTracer streaming;
  bell.bottleneck_fwd->queue().set_tracer(&streaming);

  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  for (std::size_t i = 0; i < cfg.flow_count; ++i) {
    flows.push_back(std::make_unique<tcp::TcpFlow>(
        sim, static_cast<net::FlowId>(i + 1), bell.fwd_routes[i], bell.rev_routes[i]));
    flows.back()->sender().start(TimePoint::zero() +
                                 Duration::millis(static_cast<std::int64_t>(i) * 100));
  }
  core::NoiseBundle noise =
      core::attach_noise(sim, bell, 50, 0.10, cfg.bottleneck_bps, util::Rng(7));

  std::puts("running 20 simulated seconds; first 25 drop events stream below:");
  sim.run_until(TimePoint::zero() + Duration::seconds(20));

  std::printf("\ntotal drops at bottleneck: %llu\n",
              static_cast<unsigned long long>(streaming.drops()));
  std::printf("bottleneck forwarded %llu packets\n",
              static_cast<unsigned long long>(bell.bottleneck_fwd->packets_sent()));
  for (const auto& f : flows) {
    std::printf("flow %u: sent=%llu rtx=%llu timeouts=%llu goodput=%.1f Mbps\n",
                f->sender().flow(),
                static_cast<unsigned long long>(f->sender().stats().segments_sent),
                static_cast<unsigned long long>(f->sender().stats().retransmits),
                static_cast<unsigned long long>(f->sender().stats().timeouts),
                static_cast<double>(f->receiver().bytes_received()) * 8.0 / 20.0 / 1e6);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return lossburst::util::run_main(argc, argv, {}, run); }

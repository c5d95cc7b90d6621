// Example: the §5 mixing scenario — a media stream on TFRC-controlled UDP
// sharing the bottleneck with bulk TCP transfers.
//
// "If a distributed application has to use both UDP (controlled by the
// rate-based TFRC), and TCP (controlled by window-based implementation) in
// the data communication, TFRC will have unexpectedly low throughput."
//
// The example measures the TFRC stream's rate and smoothness against its
// fair share, then applies the paper's own remedy: replace the bulk TCP
// senders with paced ones.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/noise.hpp"
#include "net/network.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "util/stats.hpp"
#include "util/flags.hpp"

using namespace lossburst;
using util::Duration;
using util::TimePoint;

namespace {

struct Outcome {
  double tfrc_mbps;
  double tcp_mbps_per_flow;
  double tfrc_rate_cov;  ///< smoothness of the allowed rate (media quality)
};

Outcome run(bool paced_bulk) {
  sim::Simulator sim(505);
  net::Network network(sim);
  net::DumbbellConfig dc;
  dc.flow_count = 8;  // 1 TFRC stream + 7 bulk TCP flows
  dc.access_delays.assign(8, Duration::millis(24));
  net::Dumbbell bell = net::build_dumbbell(network, dc);

  tcp::TfrcFlow stream(sim, 1, bell.fwd_routes[0], bell.rev_routes[0]);
  stream.sender().start(TimePoint::zero());

  std::vector<std::unique_ptr<tcp::TcpFlow>> bulk;
  util::Rng rng = sim.rng().split(1);
  for (std::size_t i = 1; i < 8; ++i) {
    tcp::TcpSender::Params sp;
    sp.emission = paced_bulk ? tcp::EmissionMode::kPaced : tcp::EmissionMode::kWindowBurst;
    sp.pacing_rtt_hint = Duration::millis(50);
    bulk.push_back(std::make_unique<tcp::TcpFlow>(sim, static_cast<net::FlowId>(i + 1),
                                                  bell.fwd_routes[i], bell.rev_routes[i], sp));
    bulk.back()->sender().start(TimePoint::zero() +
                                rng.uniform_duration(Duration::zero(), Duration::millis(500)));
  }

  // Sample the TFRC allowed rate each second: its variability is what a
  // media codec would have to chase.
  std::vector<double> rate_samples;
  sim::PeriodicProcess sampler(sim, Duration::seconds(1),
                               [&] { rate_samples.push_back(stream.sender().rate_bps()); });
  sampler.start();

  const double secs = 60.0;
  sim.run_until(TimePoint::zero() + Duration::from_seconds(secs));

  Outcome out{};
  out.tfrc_mbps = static_cast<double>(stream.receiver().bytes_received()) * 8.0 / secs / 1e6;
  double tcp_total = 0.0;
  for (auto& f : bulk) {
    tcp_total += static_cast<double>(f->receiver().bytes_received()) * 8.0 / secs / 1e6;
  }
  out.tcp_mbps_per_flow = tcp_total / 7.0;
  out.tfrc_rate_cov = util::coefficient_of_variation(rate_samples);
  return out;
}

int run_demo(const util::Flags&) {
  std::puts("One TFRC media stream + 7 bulk TCP flows, 100 Mbps / 50 ms, 60 s.");
  std::puts("Fair share would be 12.5 Mbps each.\n");

  const Outcome window = run(/*paced_bulk=*/false);
  std::printf("bulk = window-based NewReno:  TFRC %5.1f Mbps | TCP %5.1f Mbps/flow | "
              "TFRC rate CoV %.2f\n",
              window.tfrc_mbps, window.tcp_mbps_per_flow, window.tfrc_rate_cov);

  const Outcome paced = run(/*paced_bulk=*/true);
  std::printf("bulk = paced (the §5 remedy): TFRC %5.1f Mbps | TCP %5.1f Mbps/flow | "
              "TFRC rate CoV %.2f\n",
              paced.tfrc_mbps, paced.tcp_mbps_per_flow, paced.tfrc_rate_cov);

  std::puts("\nLesson (paper §5): don't mix rate-based and window-based senders; if the");
  std::puts("application needs TFRC for media, run the bulk transfers paced too.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return lossburst::util::run_main(argc, argv, {}, run_demo); }

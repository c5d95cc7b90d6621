// Ablation (§5): bypass loss signals entirely with delay-based control.
//
// "In [23], a delay-based algorithm is proposed and achieved better
// stability and fairness." Delay-based senders (Vegas here; FAST TCP is its
// high-speed descendant) keep the queue short, so the bursty loss process
// largely never forms — the most radical answer to loss burstiness.
//
// Expected shape: the all-Vegas dumbbell shows orders of magnitude fewer
// drops at comparable utilization; the mixed run shows the known caveat
// that delay-based flows yield to loss-based flows.
#include <memory>

#include "bench_util.hpp"
#include "core/noise.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"

namespace {

using namespace lossburst;

/// Mixed Vegas/NewReno competition (the deployment caveat).
void mixed_run(bool full) {
  sim::Simulator sim(1601);
  net::Network network(sim);
  net::DumbbellConfig dc;
  dc.flow_count = 16;
  dc.access_delays.assign(16, util::Duration::millis(24));
  // Deep buffers are where delay-based control suffers most against
  // loss-based competition: NewReno keeps the standing queue high, which
  // Vegas reads as persistent congestion.
  dc.buffer_bdp_fraction = 2.0;
  net::Dumbbell bell = net::build_dumbbell(network, dc);

  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  util::Rng rng = sim.rng().split(1);
  for (std::size_t i = 0; i < 16; ++i) {
    tcp::TcpSender::Params sp;
    sp.variant = i < 8 ? tcp::CcVariant::kVegas : tcp::CcVariant::kNewReno;
    sp.initial_ssthresh = 100;
    flows.push_back(std::make_unique<tcp::TcpFlow>(sim, static_cast<net::FlowId>(i + 1),
                                                   bell.fwd_routes[i], bell.rev_routes[i], sp));
    flows.back()->sender().start(
        util::TimePoint::zero() +
        rng.uniform_duration(util::Duration::zero(), util::Duration::millis(500)));
  }
  const double secs = full ? 120.0 : 40.0;
  sim.run_until(util::TimePoint::zero() + util::Duration::from_seconds(secs));
  double vegas = 0, reno = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const double mbps =
        static_cast<double>(flows[i]->receiver().bytes_received()) * 8.0 / secs / 1e6;
    (i < 8 ? vegas : reno) += mbps;
  }
  std::printf("\n(b) mixed bottleneck, 8 Vegas vs 8 NewReno: vegas %.1f Mbps, newreno %.1f"
              " Mbps\n", vegas, reno);
  std::printf("csv-b: %.2f,%.2f\n", vegas, reno);
}

int run(const lossburst::util::Flags& flags) {
  const bool full = flags.flag("full");

  bench::print_header("ABL-DELAY", "delay-based (Vegas) vs loss-based (NewReno) control",
                      "delay signals avoid the bursty loss process altogether");

  const bool serial = flags.flag("serial");

  std::printf("(a) all-of-one-kind dumbbell, 16 flows, 45 s\n");
  std::printf("%10s %10s %12s %12s\n", "variant", "drops", "util", "goodputMbps");
  const std::vector<bool> variants = {false, true};
  std::vector<core::DumbbellExperimentResult> results(variants.size());
  lossburst::bench::run_sweep(variants.size(), serial, [&](std::size_t i) {
    core::DumbbellExperimentConfig cfg;
    cfg.seed = 1600;
    cfg.tcp_flows = 16;
    cfg.variant = variants[i] ? tcp::CcVariant::kVegas : tcp::CcVariant::kNewReno;
    cfg.duration = util::Duration::seconds(full ? 120 : 45);
    cfg.warmup = util::Duration::seconds(5);
    results[i] = core::run_dumbbell_experiment(cfg);
  });
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const bool vegas = variants[i];
    const auto& r = results[i];
    std::printf("%10s %10llu %11.1f%% %12.1f\n", vegas ? "vegas" : "newreno",
                static_cast<unsigned long long>(r.total_drops),
                r.bottleneck_utilization * 100.0, r.aggregate_goodput_mbps);
    std::printf("csv-a: %s,%llu,%.4f,%.2f\n", vegas ? "vegas" : "newreno",
                static_cast<unsigned long long>(r.total_drops), r.bottleneck_utilization,
                r.aggregate_goodput_mbps);
  }

  mixed_run(full);

  std::puts("\nreading: (a) the Vegas row should show far fewer drops at comparable");
  std::puts("utilization — much less loss burstiness to suffer from. (b) mixing the");
  std::puts("two gives NewReno an edge; in this setup the periodic DropTail loss");
  std::puts("cycles keep draining the queue, so Vegas yields mildly rather than");
  std::puts("starving (full starvation needs a persistent standing queue).");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(argc, argv, bench::kSweepFlags, run); }

// Methodology comparison (§2 + future work): TCP-trace loss inference vs
// router ground truth.
//
// Paxson's classic measurements reconstructed loss events from TCP traces.
// The paper argues this cannot work at sub-RTT timescales: "TCP traffic
// itself is very bursty in sub-RTT timescale, the measurement results from
// TCP traces are not able to differentiate the burstiness of TCP packets
// from the burstiness of packet loss." The paper's future work includes
// "compare our results with the results obtained from TCP trace analysis to
// understand the extent of difference due to measurement methodology."
//
// This bench runs the Figure-1 dumbbell with sender-side packet traces
// enabled, infers losses the Paxson way (retransmission => original lost,
// timed at its first transmission), and compares against the router's drop
// trace for the same flows.
//
// Expected shape: the inferred record over-counts losses (go-back-N) and
// reports a cluster structure that mixes TCP's emission bursts with the
// network's loss bursts.
#include <memory>

#include "bench_util.hpp"
#include "analysis/trace_inference.hpp"
#include "core/noise.hpp"
#include "net/trace.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"

static int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  using util::Duration;
  using util::TimePoint;
  const bool full = flags.flag("full");

  bench::print_header("TRACE-INF", "TCP-trace loss inference vs router ground truth",
                      "trace inference cannot separate TCP burstiness from loss burstiness");

  const std::size_t flows = 8;
  const Duration duration = Duration::seconds(full ? 120 : 45);

  sim::Simulator sim(2202);
  net::Network network(sim);
  net::DumbbellConfig dc;
  dc.flow_count = flows;
  dc.buffer_bdp_fraction = 0.25;
  net::Dumbbell bell = net::build_dumbbell(network, dc);
  net::LossTrace truth;
  bell.bottleneck_fwd->queue().set_tracer(&truth);

  std::vector<std::unique_ptr<tcp::TcpFlow>> tcp_flows;
  util::Rng rng = sim.rng().split(1);
  for (std::size_t i = 0; i < flows; ++i) {
    auto flow = std::make_unique<tcp::TcpFlow>(sim, static_cast<net::FlowId>(i + 1),
                                               bell.fwd_routes[i], bell.rev_routes[i]);
    flow->sender().enable_tx_trace();
    flow->sender().start(TimePoint::zero() +
                         rng.uniform_duration(Duration::zero(), Duration::seconds(1)));
    tcp_flows.push_back(std::move(flow));
  }
  core::NoiseBundle noise = core::attach_noise(sim, bell, 50, 0.10, dc.bottleneck_bps,
                                               rng.split(2));
  sim.run_until(TimePoint::zero() + duration);

  // Ground truth: drops of the measured TCP flows only.
  std::vector<double> true_times;
  for (const auto& d : truth.drops()) {
    if (d.flow >= 1 && d.flow <= flows) true_times.push_back(d.time.seconds());
  }

  // Inference: pool the per-flow sender traces.
  std::vector<double> inferred_times;
  std::size_t total_rtx = 0;
  for (const auto& flow : tcp_flows) {
    std::vector<double> times;
    std::vector<std::uint64_t> seqs;
    for (const auto& rec : flow->sender().tx_trace()) {
      times.push_back(rec.time.seconds());
      seqs.push_back(rec.seq);
    }
    const auto inf = analysis::infer_losses_from_tx_trace(times, seqs);
    total_rtx += inf.retransmissions;
    inferred_times.insert(inferred_times.end(), inf.loss_times_s.begin(),
                          inf.loss_times_s.end());
  }
  std::sort(inferred_times.begin(), inferred_times.end());

  const double rtt_s = bell.mean_rtt().seconds();
  const auto bias = analysis::compare_inference(true_times, inferred_times, rtt_s);
  const auto truth_analysis = analysis::analyze_loss_intervals(true_times, rtt_s);
  const auto inferred_analysis = analysis::analyze_loss_intervals(inferred_times, rtt_s);

  std::printf("%24s %14s %14s\n", "", "router truth", "trace inference");
  std::printf("%24s %14zu %14zu\n", "losses", bias.true_losses, bias.inferred_losses);
  std::printf("%24s %14s %14zu\n", "retransmissions", "-", total_rtx);
  std::printf("%24s %13.1f%% %13.1f%%\n", "< 0.01 RTT",
              bias.true_frac_below_001 * 100.0, bias.inferred_frac_below_001 * 100.0);
  std::printf("%24s %13.1f%% %13.1f%%\n", "< 1 RTT", bias.true_frac_below_1 * 100.0,
              bias.inferred_frac_below_1 * 100.0);
  std::printf("%24s %14.2f %14.2f\n", "CoV", truth_analysis.cov, inferred_analysis.cov);
  std::printf("%24s %14.2f %14.2f\n", "lag-1 autocorr", truth_analysis.lag1_autocorr,
              inferred_analysis.lag1_autocorr);
  std::printf("\ninference over-counts by %.2fx (go-back-N retransmits delivered data)\n",
              bias.count_ratio);
  std::printf("csv: %zu,%zu,%.4f,%.4f,%.4f,%.4f,%.3f\n", bias.true_losses,
              bias.inferred_losses, bias.true_frac_below_001, bias.inferred_frac_below_001,
              bias.true_frac_below_1, bias.inferred_frac_below_1, bias.count_ratio);

  std::puts("\nreading: the two columns disagree — loss counts and sub-RTT structure");
  std::puts("measured from TCP traces are biased by TCP's own behaviour, which is why");
  std::puts("the paper measures with CBR probes and router drop traces instead.");
  return 0;
}

int main(int argc, char** argv) { return bench::run_main(argc, argv, bench::kFullFlag, run); }

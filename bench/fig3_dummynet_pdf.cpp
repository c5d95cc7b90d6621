// Figure 3: PDF of inter-loss time from the Dummynet-style emulation.
//
// Same dumbbell as Figure 2 but with the testbed's constraints: RTT classes
// fixed to {2, 10, 50, 200} ms, software-router processing noise at the
// bottleneck, and drop timestamps quantized to the FreeBSD 1 ms clock.
//
// Expected shape: "about 80% of the packet losses cluster within short time
// periods smaller than 0.01 RTT" — lower than NS-2 because the coarse clock
// and pipe noise smear the smallest intervals, but still far above Poisson.
#include <vector>

#include "bench_util.hpp"

static int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  const bool full = flags.flag("full");
  const bool serial = flags.flag("serial");

  bench::print_header("FIG3", "PDF of inter-loss time (Dummynet-style emulation)",
                      "~80% of losses within 0.01 RTT; still far above Poisson");

  const std::vector<std::size_t> flow_counts =
      full ? std::vector<std::size_t>{2, 4, 8, 16, 32} : std::vector<std::size_t>{4, 16};
  const std::vector<double> buffers =
      full ? std::vector<double>{0.125, 0.5, 1.0, 2.0} : std::vector<double>{0.125, 0.5};
  const auto duration = util::Duration::seconds(full ? 180 : 60);

  // Per-run seeds fixed at plan time: pooled results are identical serial or
  // parallel (see fig2 for the contract).
  struct Point {
    std::size_t flows;
    double buf;
    std::uint64_t seed;
  };
  std::vector<Point> plan;
  std::uint64_t seed = 1997;
  for (std::size_t flows : flow_counts) {
    for (double buf : buffers) plan.push_back({flows, buf, seed++});
  }

  std::vector<core::DumbbellExperimentResult> results(plan.size());
  const bench::WallTimer timer;
  bench::run_sweep(plan.size(), serial, [&](std::size_t i) {
    core::DumbbellExperimentConfig cfg;
    cfg.seed = plan[i].seed;
    cfg.tcp_flows = plan[i].flows;
    cfg.buffer_bdp_fraction = plan[i].buf;
    cfg.duration = duration;
    cfg.warmup = util::Duration::seconds(5);
    cfg.rtt_distribution = core::RttDistribution::kDummynetClasses;
    cfg.emulate_dummynet = true;  // 1 ms clock + pipe noise
    results[i] = core::run_dumbbell_experiment(cfg);
  });
  const double sweep_s = timer.elapsed_s();

  std::vector<double> pooled;
  std::printf("%8s %8s %10s %12s %12s\n", "flows", "buffer", "drops", "<0.01RTT", "<1RTT");
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto& r = results[i];
    std::printf("%8zu %8.3f %10llu %11.1f%% %11.1f%%\n", plan[i].flows, plan[i].buf,
                static_cast<unsigned long long>(r.total_drops),
                r.loss.frac_below_001_rtt * 100.0, r.loss.frac_below_1_rtt * 100.0);
    auto times = r.drop_times_s;
    std::sort(times.begin(), times.end());
    for (double iv : analysis::inter_loss_intervals(times)) {
      pooled.push_back(iv / r.mean_rtt_s);
    }
  }

  std::printf("\nsweep wall-clock: %.2f s for %zu runs (%s)\n", sweep_s, plan.size(),
              serial ? "serial, --serial" : "thread pool");

  const auto merged = analysis::analyze_normalized_intervals(pooled);
  std::printf("\n--- pooled over sweep (%zu intervals) ---\n", pooled.size());
  bench::print_pdf_analysis(merged, "Figure 3: PDF of inter-loss time (Dummynet)");
  bench::print_pdf_csv(merged);

  std::printf("\npaper vs measured: ~80%% of losses < 0.01 RTT  ->  measured %.1f%%\n",
              merged.frac_below_001_rtt * 100.0);
  return 0;
}

int main(int argc, char** argv) { return bench::run_main(argc, argv, bench::kSweepFlags, run); }

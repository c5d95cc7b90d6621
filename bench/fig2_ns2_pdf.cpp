// Figure 2: PDF of inter-loss time from the NS-2-style simulation.
//
// Setup (paper §3.1, Figure 1): dumbbell with a 100 Mbps bottleneck; 2-32
// window-based TCP flows with access latencies U[2 ms, 200 ms]; 50 two-way
// exponential on-off noise flows at 10% load; buffer swept from 1/8 BDP to
// 2 BDP; every router drop recorded.
//
// Expected shape: ">95% of the packet losses cluster within short time
// periods smaller than 0.01 RTT"; the measured PDF sits orders of magnitude
// above the same-rate Poisson reference at the smallest intervals.
#include <vector>

#include "bench_util.hpp"
#include "analysis/dispersion.hpp"
#include "analysis/episodes.hpp"

static int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  const bool full = flags.flag("full");
  const bool serial = flags.flag("serial");
  const obs::ObsConfig obs = core::obs_config(flags, "fig2_");

  bench::print_header("FIG2", "PDF of inter-loss time (NS-2-style simulation)",
                      ">95% of losses within 0.01 RTT; far above Poisson at sub-RTT");

  const std::vector<std::size_t> flow_counts =
      full ? std::vector<std::size_t>{2, 4, 8, 16, 32} : std::vector<std::size_t>{2, 8, 32};
  const std::vector<double> buffers =
      full ? std::vector<double>{0.125, 0.25, 0.5, 1.0, 2.0}
           : std::vector<double>{0.125, 0.5, 2.0};
  const auto duration = util::Duration::seconds(full ? 180 : 60);

  // Seeds are assigned while building the plan — before any dispatch — so
  // pooled results are identical whether the sweep runs serially or on the
  // thread pool.
  struct Point {
    std::size_t flows;
    double buf;
    std::uint64_t seed;
  };
  std::vector<Point> plan;
  std::uint64_t seed = 2007;
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
    // Telemetry on the first run only: one set of artifacts, and sampling
    // events never perturb simulated behaviour, so pooled stats are
    // unchanged whether or not --obs-dir is given.
    if (i == 0) cfg.obs = obs;
    results[i] = core::run_dumbbell_experiment(cfg);
  });
  const double sweep_s = timer.elapsed_s();

  // Pool normalized intervals across the sweep in plan order, exactly as the
  // paper pools its simulation runs into one PDF.
  std::vector<double> pooled;
  std::vector<double> representative_trace;  // highest-flow, mid-buffer run
  double representative_rtt = 0.0;
  std::printf("%8s %8s %10s %12s %12s %12s\n", "flows", "buffer", "drops", "<0.01RTT",
              "<1RTT", "CoV");
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto& r = results[i];
    std::printf("%8zu %8.3f %10llu %11.1f%% %11.1f%% %12.2f\n", plan[i].flows,
                plan[i].buf, static_cast<unsigned long long>(r.total_drops),
                r.loss.frac_below_001_rtt * 100.0, r.loss.frac_below_1_rtt * 100.0,
                r.loss.cov);
    auto times = r.drop_times_s;
    std::sort(times.begin(), times.end());
    for (double iv : analysis::inter_loss_intervals(times)) {
      pooled.push_back(iv / r.mean_rtt_s);
    }
    if (plan[i].flows == flow_counts.back() && plan[i].buf == 0.5) {
      representative_trace = times;
      representative_rtt = r.mean_rtt_s;
    }
  }

  std::printf("\nsweep wall-clock: %.2f s for %zu runs (%s)\n", sweep_s, plan.size(),
              serial ? "serial, --serial" : "thread pool");

  const auto merged = analysis::analyze_normalized_intervals(pooled);
  std::printf("\n--- pooled over sweep (%zu intervals) ---\n", pooled.size());
  bench::print_pdf_analysis(merged, "Figure 2: PDF of inter-loss time (NS-2)");
  bench::print_pdf_csv(merged);

  std::printf("\npaper vs measured: >95%% of losses < 0.01 RTT  ->  measured %.1f%%\n",
              merged.frac_below_001_rtt * 100.0);

  // Extra rigor (paper future work): episode structure and the index of
  // dispersion for counts across timescales for a representative run.
  if (representative_trace.size() > 10) {
    const auto eps =
        analysis::episode_stats(representative_trace, 0.5 * representative_rtt);
    std::printf("\nloss episodes (32 flows, 0.5 BDP buffer, gap 0.5 RTT):\n");
    std::printf("  episodes=%zu  drops/episode mean=%.1f max=%zu  spacing=%.2fs  "
                "%.1f%% of drops in bursts\n",
                eps.episode_count, eps.mean_drops, eps.max_drops, eps.mean_spacing_s,
                eps.fraction_in_bursts * 100.0);

    const auto curve = analysis::dispersion_curve(
        representative_trace, 0.01 * representative_rtt, 20.0 * representative_rtt, 8);
    std::printf("index of dispersion for counts (Poisson = 1 at all scales):\n");
    for (std::size_t i = 0; i < curve.window_s.size(); ++i) {
      std::printf("  window %6.3f RTT: IDC = %8.1f\n",
                  curve.window_s[i] / representative_rtt, curve.idc[i]);
    }
  }
  bench::print_obs_artifacts(obs);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, bench::kSweepFlags + lossburst::core::kObsFlags, run);
}

// Ablation (§5): does RED de-burst the loss process?
//
// The paper suggests RED "should be deployed if one wants to eliminate loss
// burstiness" (with the caveat that its parameters are hard to tune). This
// bench runs the Figure-2 dumbbell with DropTail vs RED (drop mode) vs
// RED-ECN (mark mode) and compares the burstiness metrics.
//
// Expected shape: RED spreads drops out — the <0.01 RTT cluster fraction and
// the first-bin excess both fall sharply vs DropTail.
#include <vector>

#include "bench_util.hpp"

static int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  const bool full = flags.flag("full");

  bench::print_header("ABL-RED", "queue discipline ablation: DropTail vs RED",
                      "RED randomizes drops -> much weaker sub-RTT clustering");

  struct Row {
    const char* name;
    net::QueueKind kind;
  };
  const std::vector<Row> rows = {
      {"DropTail", net::QueueKind::kDropTail},
      {"RED", net::QueueKind::kRed},
  };

  // Plan: each (discipline, seed) pair is one independent run; seeds fixed
  // up front so pooling per discipline is identical serial or parallel.
  const bool serial = flags.flag("serial");
  const std::vector<std::uint64_t> seeds = {501, 502, 503};
  std::vector<core::DumbbellExperimentResult> results(rows.size() * seeds.size());
  const bench::WallTimer timer;
  bench::run_sweep(results.size(), serial, [&](std::size_t i) {
    core::DumbbellExperimentConfig cfg;
    cfg.seed = seeds[i % seeds.size()];
    cfg.tcp_flows = 16;
    cfg.queue = rows[i / seeds.size()].kind;
    cfg.buffer_bdp_fraction = 0.5;
    cfg.duration = util::Duration::seconds(full ? 120 : 45);
    cfg.warmup = util::Duration::seconds(5);
    results[i] = core::run_dumbbell_experiment(cfg);
  });
  const double sweep_s = timer.elapsed_s();

  std::printf("%10s %10s %12s %12s %12s %14s\n", "queue", "drops", "<0.01RTT", "<1RTT",
              "CoV", "bin0/poisson");
  for (std::size_t ri = 0; ri < rows.size(); ++ri) {
    const auto& row = rows[ri];
    // Pool the discipline's seeds in plan order.
    std::vector<double> pooled;
    std::uint64_t drops = 0;
    for (std::size_t si = 0; si < seeds.size(); ++si) {
      const auto& r = results[ri * seeds.size() + si];
      drops += r.total_drops;
      auto times = r.drop_times_s;
      std::sort(times.begin(), times.end());
      for (double iv : analysis::inter_loss_intervals(times)) {
        pooled.push_back(iv / r.mean_rtt_s);
      }
    }
    const auto a = analysis::analyze_normalized_intervals(pooled);
    std::printf("%10s %10llu %11.1f%% %11.1f%% %12.2f %14.2f\n", row.name,
                static_cast<unsigned long long>(drops), a.frac_below_001_rtt * 100.0,
                a.frac_below_1_rtt * 100.0, a.cov, a.first_bin_excess());
    std::printf("csv: %s,%llu,%.4f,%.4f,%.3f,%.3f\n", row.name,
                static_cast<unsigned long long>(drops), a.frac_below_001_rtt,
                a.frac_below_1_rtt, a.cov, a.first_bin_excess());
  }

  std::printf("\nsweep wall-clock: %.2f s for %zu runs (%s)\n", sweep_s, results.size(),
              serial ? "serial, --serial" : "thread pool");

  std::printf("\nreading: the RED row should show a far smaller <0.01 RTT fraction\n"
              "than DropTail — randomized early drops break up the overflow bursts.\n");
  return 0;
}

int main(int argc, char** argv) { return bench::run_main(argc, argv, bench::kSweepFlags, run); }

// §5's RED caveat, quantified: "the parameter tunings of RED are difficult,
// and we suggest this approach be used only when the scenarios in the
// distributed system are simple and the RED's effect can be well understood."
//
// The sweep runs the Figure-2 dumbbell under RED with different (max_p,
// thresholds, averaging weight) settings and reports the three quantities a
// deployer has to trade off simultaneously:
//   - sub-RTT loss clustering (the thing RED is deployed to remove),
//   - bottleneck utilization (aggressive dropping wastes capacity),
//   - total drop volume.
//
// Expected shape: no single setting wins everywhere. Timid settings
// (small max_p, high thresholds) barely de-burst; aggressive settings
// de-burst but cost utilization and multiply drops; a slow average (small
// weight) lets slow-start bursts through DropTail-style.
#include <vector>

#include "bench_util.hpp"

static int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  const bool full = flags.flag("full");

  bench::print_header("RED-TUNE", "RED parameter sensitivity on the Figure-2 dumbbell",
                      "RED parameter tunings are difficult (§5)");

  struct Setting {
    const char* name;
    net::RedTuning red;
  };
  const std::vector<Setting> settings = {
      {"droptail", {}},  // baseline, run with kDropTail
      {"default", {0.25, 0.75, 0.10, 0.002}},
      {"timid", {0.60, 0.95, 0.02, 0.002}},
      {"aggressive", {0.10, 0.40, 0.50, 0.002}},
      {"slow-avg", {0.25, 0.75, 0.10, 0.0002}},
      {"fast-avg", {0.25, 0.75, 0.10, 0.05}},
  };

  // Every setting reruns the same seed (1500) so rows differ only by queue
  // tuning; runs are independent, so they sweep across the thread pool.
  const bool serial = flags.flag("serial");
  std::vector<core::DumbbellExperimentResult> results(settings.size());
  const bench::WallTimer timer;
  bench::run_sweep(settings.size(), serial, [&](std::size_t si) {
    core::DumbbellExperimentConfig cfg;
    cfg.seed = 1500;
    cfg.tcp_flows = 16;
    cfg.queue = si == 0 ? net::QueueKind::kDropTail : net::QueueKind::kRed;
    cfg.red = settings[si].red;
    cfg.buffer_bdp_fraction = 0.5;
    cfg.duration = util::Duration::seconds(full ? 120 : 45);
    cfg.warmup = util::Duration::seconds(5);
    results[si] = core::run_dumbbell_experiment(cfg);
  });
  const double sweep_s = timer.elapsed_s();

  std::printf("%12s %10s %12s %12s %12s %12s\n", "setting", "drops", "<0.01RTT", "<1RTT",
              "util", "goodputMbps");
  for (std::size_t si = 0; si < settings.size(); ++si) {
    const auto& s = settings[si];
    const auto& r = results[si];
    std::printf("%12s %10llu %11.1f%% %11.1f%% %11.1f%% %12.1f\n", s.name,
                static_cast<unsigned long long>(r.total_drops),
                r.loss.frac_below_001_rtt * 100.0, r.loss.frac_below_1_rtt * 100.0,
                r.bottleneck_utilization * 100.0, r.aggregate_goodput_mbps);
    std::printf("csv: %s,%llu,%.4f,%.4f,%.4f,%.2f\n", s.name,
                static_cast<unsigned long long>(r.total_drops), r.loss.frac_below_001_rtt,
                r.loss.frac_below_1_rtt, r.bottleneck_utilization,
                r.aggregate_goodput_mbps);
  }
  std::printf("\nsweep wall-clock: %.2f s for %zu runs (%s)\n", sweep_s, settings.size(),
              serial ? "serial, --serial" : "thread pool");

  std::puts("\nreading: compare each RED row against 'droptail'. De-bursting (<0.01RTT");
  std::puts("down) trades against utilization and drop volume, and the best setting");
  std::puts("depends on load — the §5 warning in numbers.");
  return 0;
}

int main(int argc, char** argv) { return bench::run_main(argc, argv, bench::kSweepFlags, run); }

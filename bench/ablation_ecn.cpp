// Ablation (§5 / [22]): the authors' persistent-ECN proposal.
//
// "We suggest a simple ECN algorithm which can provide persistent congestion
// signal for one RTT, covering most of the participating flows. This
// algorithm ... solves the competition problem of rate-based implementations
// and window-based implementations."
//
// This bench reruns the Figure-7 competition (16 paced vs 16 window-based)
// in three configurations: DropTail (baseline unfairness), persistent-ECN
// marking, and RED-ECN marking.
//
// Expected shape: the paced deficit shrinks toward zero once the congestion
// signal is delivered to (nearly) every flow rather than only to the flows
// whose packets sit in the overflow burst.
#include <vector>

#include "bench_util.hpp"

static int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  const bool full = flags.flag("full");

  bench::print_header("ABL-ECN", "persistent ECN vs DropTail in the Figure-7 competition",
                      "ECN signal covers all flows -> paced deficit collapses");

  struct Config {
    const char* name;
    net::QueueKind queue;
    bool ecn;
  };
  const std::vector<Config> configs = {
      {"droptail", net::QueueKind::kDropTail, false},
      {"persistent-ecn", net::QueueKind::kPersistentEcn, true},
      {"red-ecn", net::QueueKind::kRedEcn, true},
  };

  // Independent runs (same seed, different queue config) across the pool.
  const bool serial = flags.flag("serial");
  std::vector<core::CompetitionResult> results(configs.size());
  const bench::WallTimer timer;
  bench::run_sweep(configs.size(), serial, [&](std::size_t i) {
    core::CompetitionConfig cfg;
    cfg.seed = 7;
    cfg.paced_flows = 16;
    cfg.window_flows = 16;
    cfg.queue = configs[i].queue;
    cfg.ecn = configs[i].ecn;
    cfg.duration = util::Duration::seconds(full ? 60 : 40);
    results[i] = core::run_competition(cfg);
  });

  std::printf("%16s %14s %14s %12s\n", "config", "paced_mbps", "window_mbps", "deficit");
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& c = configs[i];
    const auto& r = results[i];
    std::printf("%16s %14.1f %14.1f %11.1f%%\n", c.name, r.paced_mean_mbps,
                r.window_mean_mbps, r.paced_deficit * 100.0);
    std::printf("csv: %s,%.2f,%.2f,%.4f\n", c.name, r.paced_mean_mbps, r.window_mean_mbps,
                r.paced_deficit);
  }
  std::printf("\nsweep wall-clock: %.2f s for %zu runs (%s)\n", timer.elapsed_s(),
              configs.size(), serial ? "serial, --serial" : "thread pool");

  std::printf("\nreading: the droptail row reproduces the Figure-7 unfairness; the ECN\n"
              "rows should cut the deficit substantially (the [22] proposal's claim).\n");
  return 0;
}

int main(int argc, char** argv) { return bench::run_main(argc, argv, bench::kSweepFlags, run); }

// Figure 8: data transfer latency (normalized by the theoretic lower bound)
// of parallel flows sending a total of 64 MB, as in GridFTP or GFS.
//
// Sweep: flow count {2, 4, 8, 16, 32} x RTT {2, 10, 50, 200} ms over a
// 100 Mbps bottleneck, several seeds per point.
//
// Expected shape: normalized latency near 1 at small RTT, rising and highly
// variable at 200 ms RTT — the paper reports 64 MB transfers at 200 ms
// ranging from 11 to 50 seconds (2x-9x the 5.39 s bound) "depending on how
// many flows enter the congestion avoidance phase prematurely". The paper
// also notes the variance at RTT=200ms/4 flows is too large to display.
//
// The whole grid x repeats plan is flattened and fanned out over the thread
// pool (seeds fixed at plan time); aggregation and printing happen
// afterwards in plan order, so --serial output is byte-identical.
#include <vector>

#include "bench_util.hpp"
#include "util/stats.hpp"

static int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  const bool full = flags.flag("full");
  const bool serial = flags.flag("serial");
  const obs::ObsConfig obs = core::obs_config(flags, "fig8_");
  const fault::FaultPlan fault_plan = core::fault_plan(flags);
  const bool robust = flags.flag("robust");

  bench::print_header("FIG8", "parallel-flow 64 MB transfer latency (normalized)",
                      "at 200 ms RTT latency spans ~2x-9x the lower bound, high variance");
  if (!fault_plan.empty()) {
    std::printf("fault plan active (%zu impaired link(s), seed %llu)%s\n",
                fault_plan.links().size(),
                static_cast<unsigned long long>(fault_plan.seed),
                robust ? ", robust transfer" : "");
  }

  const std::vector<std::size_t> flow_counts{2, 4, 8, 16, 32};
  const std::vector<int> rtts_ms{2, 10, 50, 200};
  const std::size_t repeats = full ? 5 : 3;

  // Flatten grid x repeats into one plan; every run's seed is fixed here.
  struct Run {
    core::ParallelTransferConfig cfg;
    std::size_t point = 0;  ///< index into the (rtt, flows) grid
  };
  std::vector<Run> plan;
  std::size_t points = 0;
  for (int rtt_ms : rtts_ms) {
    for (std::size_t flows : flow_counts) {
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        Run run;
        run.cfg.seed = 800 + static_cast<std::uint64_t>(rtt_ms) * 100 + flows + rep;
        run.cfg.flows = flows;
        run.cfg.rtt = util::Duration::millis(rtt_ms);
        run.cfg.total_bytes = 64ULL << 20;
        run.cfg.timeout = util::Duration::seconds(400);
        run.cfg.fault = fault_plan;
        run.cfg.robust = robust;
        run.point = points;
        plan.push_back(run);
      }
      ++points;
    }
  }
  // Telemetry on the headline run only (the first 200 ms RTT point), so the
  // artifacts cover the regime the paper calls out without slowing the sweep.
  for (Run& run : plan) {
    if (run.cfg.rtt == util::Duration::millis(200)) {
      run.cfg.obs = obs;
      break;
    }
  }

  std::vector<core::ParallelTransferResult> results(plan.size());
  const bench::WallTimer timer;
  bench::run_sweep(plan.size(), serial,
                   [&](std::size_t i) { results[i] = core::run_parallel_transfer(plan[i].cfg); });
  const double sweep_s = timer.elapsed_s();

  std::printf("%8s %8s %12s %12s %12s %12s %14s\n", "rtt_ms", "flows", "bound_s",
              "mean_norm", "min_norm", "max_norm", "stddev_norm");
  std::printf("csv: rtt_ms,flows,mean_norm,min_norm,max_norm,stddev_norm\n");

  std::size_t point = 0;
  for (int rtt_ms : rtts_ms) {
    for (std::size_t flows : flow_counts) {
      util::OnlineStats norm;
      double bound = 0.0;
      for (std::size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].point != point) continue;
        norm.add(results[i].normalized_latency);
        bound = results[i].lower_bound_s;
      }
      std::printf("%8d %8zu %12.2f %12.2f %12.2f %12.2f %14.2f\n", rtt_ms, flows, bound,
                  norm.mean(), norm.min(), norm.max(), norm.stddev());
      std::printf("csv: %d,%zu,%.3f,%.3f,%.3f,%.3f\n", rtt_ms, flows, norm.mean(),
                  norm.min(), norm.max(), norm.stddev());
      ++point;
    }
  }

  std::printf("\nsweep wall-clock: %.2f s for %zu runs (%s)\n", sweep_s, plan.size(),
              serial ? "serial, --serial" : "thread pool");

  std::printf("\nnotes: bound includes 40 B/segment header overhead (5.59 s for 64 MB\n"
              "at 100 Mbps vs the paper's payload-only 5.39 s). The paper's headline:\n"
              "with 200 ms RTT, latency varies from 11 s to 50 s (norm ~2-9).\n");
  bench::print_obs_artifacts(obs);
  return 0;
}

int main(int argc, char** argv) {
  using namespace lossburst;
  const util::FlagSet robust = {{"robust", "", "robust transfer (watchdog, retry, re-striping)"}};
  return util::run_main(
      argc, argv, bench::kSweepFlags + core::kObsFlags + core::kFaultFlags + robust, run);
}

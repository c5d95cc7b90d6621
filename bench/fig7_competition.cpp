// Figure 7: aggregate throughput of 16 TCP Pacing flows vs 16 TCP NewReno
// flows sharing a 100 Mbps bottleneck with 50 ms RTT, over 40 seconds.
//
// Expected shape: the paced aggregate runs visibly below the NewReno
// aggregate — the paper reports a 17% deficit — even though both use
// identical loss detection and congestion reaction. The paper observed the
// same behaviour "with different parameters (different RTTs and different
// number of flows)", which the sweep below also reproduces.
//
// All simulations (the headline run plus the full-mode sweep) are planned
// up front with fixed seeds and fanned out over the thread pool; printing
// happens afterwards in plan order, so --serial output is byte-identical.
#include <vector>

#include "bench_util.hpp"
#include "util/ascii_chart.hpp"

static int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  const bool full = flags.flag("full");
  const bool serial = flags.flag("serial");
  const obs::ObsConfig obs = core::obs_config(flags, "fig7_");
  const fault::FaultPlan fault_plan = core::fault_plan(flags);

  bench::print_header("FIG7", "TCP Pacing (16) vs TCP NewReno (16), 100 Mbps, 50 ms",
                      "paced aggregate ~17% below NewReno aggregate");
  if (!fault_plan.empty()) {
    std::printf("fault plan active (%zu impaired link(s), seed %llu)\n",
                fault_plan.links().size(),
                static_cast<unsigned long long>(fault_plan.seed));
  }

  // Plan: index 0 is the headline figure; the rest are the parameter sweep.
  struct PlanEntry {
    core::CompetitionConfig cfg;
    std::size_t flows = 0;
    int rtt_ms = 0;
  };
  std::vector<PlanEntry> plan;
  {
    PlanEntry main_run;
    main_run.cfg.seed = 7;
    main_run.cfg.paced_flows = 16;
    main_run.cfg.window_flows = 16;
    main_run.cfg.rtt = util::Duration::millis(50);
    main_run.cfg.duration = util::Duration::seconds(40);
    main_run.cfg.obs = obs;  // telemetry on the headline run only
    main_run.cfg.fault = fault_plan;
    plan.push_back(main_run);
  }
  if (full) {
    for (std::size_t flows : {4u, 8u, 16u}) {
      for (int rtt_ms : {10, 50, 200}) {
        PlanEntry e;
        e.cfg.seed = 70 + flows + static_cast<std::uint64_t>(rtt_ms);
        e.cfg.paced_flows = flows;
        e.cfg.window_flows = flows;
        e.cfg.rtt = util::Duration::millis(rtt_ms);
        e.cfg.duration = util::Duration::seconds(40);
        e.flows = flows;
        e.rtt_ms = rtt_ms;
        plan.push_back(e);
      }
    }
  }

  std::vector<core::CompetitionResult> results(plan.size());
  bench::WallTimer timer;
  bench::run_sweep(plan.size(), serial,
                   [&](std::size_t i) { results[i] = core::run_competition(plan[i].cfg); });
  const double sweep_s = timer.elapsed_s();

  const auto& r = results[0];
  util::ChartSeries paced{"TCP Pacing (16 flows)", {}, {}, 'p'};
  util::ChartSeries window{"TCP NewReno (16 flows)", {}, {}, 'n'};
  for (std::size_t i = 0; i < r.paced_mbps.size(); ++i) {
    paced.x.push_back(static_cast<double>(i + 1));
    paced.y.push_back(r.paced_mbps[i]);
  }
  for (std::size_t i = 0; i < r.window_mbps.size(); ++i) {
    window.x.push_back(static_cast<double>(i + 1));
    window.y.push_back(r.window_mbps[i]);
  }
  util::ChartOptions opts;
  opts.title = "Figure 7: aggregate throughput (Mbps) vs time (s)";
  opts.x_label = "time (seconds)";
  std::puts(util::render_chart({paced, window}, opts).c_str());

  std::printf("csv: second,paced_mbps,newreno_mbps\n");
  for (std::size_t i = 0; i < r.paced_mbps.size(); ++i) {
    std::printf("csv: %zu,%.2f,%.2f\n", i + 1, r.paced_mbps[i], r.window_mbps[i]);
  }

  std::printf("\nsteady-state means: paced %.1f Mbps, newreno %.1f Mbps\n",
              r.paced_mean_mbps, r.window_mean_mbps);
  std::printf("congestion events/flow: paced %.1f, newreno %.1f\n",
              r.paced_cong_events_per_flow, r.window_cong_events_per_flow);
  std::printf("paper vs measured: paced deficit 17%%  ->  measured %.1f%%\n",
              r.paced_deficit * 100.0);

  // "We observe the same behavior with different parameters."
  if (full) {
    std::printf("\nparameter sweep (deficit should stay positive):\n");
    std::printf("%8s %8s %12s\n", "flows", "rtt_ms", "deficit");
    for (std::size_t i = 1; i < plan.size(); ++i) {
      std::printf("%8zu %8d %11.1f%%\n", plan[i].flows, plan[i].rtt_ms,
                  results[i].paced_deficit * 100.0);
    }
  }
  std::printf("\nsweep wall-clock: %.2f s for %zu runs (%s)\n", sweep_s, plan.size(),
              serial ? "serial, --serial" : "thread pool");
  bench::print_obs_artifacts(obs);
  return 0;
}

int main(int argc, char** argv) {
  using namespace lossburst;
  return util::run_main(argc, argv, bench::kSweepFlags + core::kObsFlags + core::kFaultFlags, run);
}

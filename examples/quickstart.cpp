// Quickstart: build a small dumbbell, run 16 NewReno flows over a DropTail
// bottleneck, and print the sub-RTT loss-burstiness analysis — the paper's
// §3 measurement in ~20 lines of application code.
#include <cstdio>
#include <iostream>

#include "core/burstiness_study.hpp"
#include "util/flags.hpp"

static int run(const lossburst::util::Flags&) {
  using namespace lossburst;

  core::DumbbellExperimentConfig cfg;
  cfg.seed = 42;
  cfg.tcp_flows = 16;
  cfg.duration = util::Duration::seconds(30);

  std::puts("Running the Figure-1 dumbbell: 16 NewReno flows + 50 on-off noise");
  std::puts("flows over a 100 Mbps DropTail bottleneck, 30 simulated seconds...\n");

  const core::DumbbellExperimentResult r = core::run_dumbbell_experiment(cfg);

  std::printf("bottleneck forwarded %llu packets (utilization %.1f%%), dropped %llu\n",
              static_cast<unsigned long long>(r.bottleneck_packets),
              r.bottleneck_utilization * 100.0,
              static_cast<unsigned long long>(r.total_drops));
  std::printf("aggregate TCP goodput: %.1f Mbps, mean base RTT: %.1f ms\n\n",
              r.aggregate_goodput_mbps, r.mean_rtt_s * 1e3);

  std::cout << core::summarize_burstiness(r.loss) << "\n\n";
  std::cout << core::render_loss_pdf_chart(r.loss, "PDF of inter-loss time (quickstart)");
  return 0;
}

int main(int argc, char** argv) { return lossburst::util::run_main(argc, argv, {}, run); }

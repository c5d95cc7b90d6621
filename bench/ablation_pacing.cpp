// Ablation (§5): all-rate-based deployments are more predictable.
//
// "If the computing environment is tightly controlled ... a rate-based
// implementation has an advantage in that it makes TCP more fair, and leads
// to better predictability of throughput for concurrent flows."
//
// Two measurements:
//  (a) Long-flow throughput fairness — N concurrent flows, all window-based
//      vs all paced; Jain index and CoV of per-flow throughput. This is the
//      §5 claim, and the paced column should win clearly: every paced flow
//      observes every congestion event, so no flow gets a free ride.
//  (b) The Figure-8 parallel transfer rerun in both modes: Jain over
//      per-flow completion times (paced wins) and the absolute latency.
//      Caveat shown by the data: with plain NewReno loss recovery (no SACK),
//      an all-paced fleet at large RTT recovers multi-loss windows slowly —
//      every flow is hit by every event — so absolute latency suffers even
//      though fairness improves.
#include <cmath>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/noise.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "util/stats.hpp"

namespace {

double jain_index(const std::vector<double>& xs) {
  double sum = 0.0, sumsq = 0.0;
  for (double x : xs) {
    sum += x;
    sumsq += x * x;
  }
  if (sumsq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sumsq);
}

struct FairnessRow {
  std::size_t n = 0;
  bool paced = false;
  double mean_mbps = 0.0;
  double cov = 0.0;
  double jain = 0.0;
};

/// (a) N concurrent long flows of one class; per-flow throughput fairness.
FairnessRow long_flow_fairness(bool paced, std::size_t n, std::uint64_t seed) {
  using namespace lossburst;
  sim::Simulator sim(seed);
  net::Network network(sim);
  net::DumbbellConfig dc;
  dc.flow_count = n;
  dc.access_delays.assign(n, util::Duration::millis(24));
  net::Dumbbell bell = net::build_dumbbell(network, dc);

  std::vector<std::unique_ptr<tcp::TcpFlow>> flows;
  util::Rng rng = sim.rng().split(1);
  for (std::size_t i = 0; i < n; ++i) {
    tcp::TcpSender::Params sp;
    sp.emission = paced ? tcp::EmissionMode::kPaced : tcp::EmissionMode::kWindowBurst;
    sp.pacing_rtt_hint = util::Duration::millis(50);
    flows.push_back(std::make_unique<tcp::TcpFlow>(sim, static_cast<net::FlowId>(i + 1),
                                                   bell.fwd_routes[i], bell.rev_routes[i], sp));
    flows.back()->sender().start(
        util::TimePoint::zero() +
        rng.uniform_duration(util::Duration::zero(), util::Duration::millis(500)));
  }
  core::NoiseBundle noise = core::attach_noise(sim, bell, 50, 0.10, 100'000'000, rng.split(2));
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(60));

  std::vector<double> mbps;
  for (auto& f : flows) {
    mbps.push_back(static_cast<double>(f->receiver().bytes_received()) * 8.0 / 60.0 / 1e6);
  }
  return FairnessRow{n, paced, util::Summary(mbps).mean(),
                     util::coefficient_of_variation(mbps), jain_index(mbps)};
}

int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  const bool full = flags.flag("full");

  bench::print_header("ABL-PACE", "uniform window-based vs uniform paced deployments",
                      "all-rate-based -> fairer, more predictable per-flow throughput");

  const bool serial = flags.flag("serial");

  std::printf("(a) long-flow throughput fairness, 100 Mbps / 50 ms, 60 s\n");
  std::printf("%8s %10s %12s %12s %10s\n", "flows", "mode", "mean_mbps", "cov", "jain");
  {
    struct Point {
      bool paced;
      std::size_t n;
      std::uint64_t seed;
    };
    std::vector<Point> plan;
    for (std::size_t n : {8u, 16u}) {
      plan.push_back({false, n, 960 + n});
      plan.push_back({true, n, 960 + n});
    }
    std::vector<FairnessRow> rows(plan.size());
    bench::run_sweep(plan.size(), serial, [&](std::size_t i) {
      rows[i] = long_flow_fairness(plan[i].paced, plan[i].n, plan[i].seed);
    });
    for (const auto& row : rows) {
      std::printf("%8zu %10s %12.2f %12.3f %10.3f\n", row.n,
                  row.paced ? "paced" : "window", row.mean_mbps, row.cov, row.jain);
      std::printf("csv-a: %zu,%s,%.3f,%.4f,%.4f\n", row.n, row.paced ? "paced" : "window",
                  row.mean_mbps, row.cov, row.jain);
    }
  }

  std::printf("\n(b) Figure-8 parallel transfers in both modes\n");
  const std::size_t repeats = full ? 5 : 3;
  std::printf("%8s %8s %10s %12s %12s %12s %10s\n", "rtt_ms", "flows", "mode",
              "mean_norm", "spread", "stddev", "jain");
  for (int rtt_ms : {50, 200}) {
    for (std::size_t flows : {4u, 16u}) {
      for (const bool paced : {false, true}) {
        core::ParallelTransferConfig cfg;
        cfg.seed = 900 + static_cast<std::uint64_t>(rtt_ms) + flows;
        cfg.flows = flows;
        cfg.rtt = util::Duration::millis(rtt_ms);
        cfg.emission = paced ? tcp::EmissionMode::kPaced : tcp::EmissionMode::kWindowBurst;
        cfg.total_bytes = 64ULL << 20;
        cfg.timeout = util::Duration::seconds(400);
        // The batch fans out across a pool with per-repeat seeds fixed up
        // front; --serial forces one thread for the identity check.
        const auto batch = core::run_parallel_transfer_batch(cfg, repeats, serial ? 1 : 0);

        util::OnlineStats norm;
        double jain_sum = 0.0;
        for (const auto& r : batch) {
          norm.add(r.normalized_latency);
          jain_sum += jain_index(r.per_flow_latency_s);
        }
        std::printf("%8d %8zu %10s %12.2f %12.2f %12.2f %10.3f\n", rtt_ms, flows,
                    paced ? "paced" : "window", norm.mean(), norm.max() - norm.min(),
                    norm.stddev(), jain_sum / static_cast<double>(batch.size()));
        std::printf("csv: %d,%zu,%s,%.3f,%.3f,%.3f,%.4f\n", rtt_ms, flows,
                    paced ? "paced" : "window", norm.mean(), norm.max() - norm.min(),
                    norm.stddev(), jain_sum / static_cast<double>(batch.size()));
      }
    }
  }

  std::printf("\nreading: in (a) the paced rows should show lower CoV and higher Jain —\n"
              "the §5 predictability claim. In (b) paced completion times are fairer\n"
              "(higher Jain) but, without SACK, absolute latency at 200 ms suffers:\n"
              "every paced flow is hit by every loss event and multi-loss recovery\n"
              "under plain NewReno is slow.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(argc, argv, bench::kSweepFlags, run); }

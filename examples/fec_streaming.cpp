// Example: burst-adaptive streaming FEC vs the burst-oblivious baselines
// (DESIGN.md §15, EXPERIMENTS.md FIG9).
//
// One CBR symbol stream crosses a 200 ms-RTT path whose forward link runs a
// Gilbert loss channel (mean burst 4 packets, ~2% loss). Three repair
// disciplines spend the same redundancy budget (12.5%):
//
//   arq       pure NACK-driven retransmission — every loss costs >= 1 RTT
//   block     fixed block FEC, k=16 + r=2 — covers 2 losses per generation,
//             so a typical burst of 4 still falls back to ARQ
//   adaptive  sliding-window RLC whose repair spacing, clustering, and
//             window depth track the receiver's fitted Gilbert (p, q)
//
// The figure of merit is in-order delivery delay against the deterministic
// send schedule. A second scenario adds link flaps: fixed-rate FEC without
// an ARQ fallback stalls permanently, while the adaptive controller degrades
// to retransmission and completes.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fec_experiment.hpp"
#include "util/flags.hpp"

using namespace lossburst;

namespace {

struct Row {
  const char* label;
  core::FecRunResult r;
};

core::FecRunConfig base_config() {
  core::FecRunConfig cfg;
  cfg.seed = 21;
  cfg.fec.symbols = 5000;
  cfg.fec.interval = util::Duration::millis(2);
  cfg.horizon = util::Duration::seconds(120);
  // Matched Gilbert channel on the forward link: p=0.005, q=0.25 -> mean
  // burst length 4, stationary loss ~2%.
  fault::GilbertSpec g;
  g.link = "path.fwd";
  g.p_good_to_bad = 0.005;
  g.p_bad_to_good = 0.25;
  cfg.plan.gilbert.push_back(g);
  return cfg;
}

core::FecRunConfig arq_config() {
  core::FecRunConfig cfg = base_config();
  cfg.fec.mode = fec::FecMode::kArq;
  return cfg;
}

core::FecRunConfig block_config(bool arq_fallback) {
  core::FecRunConfig cfg = base_config();
  cfg.fec.mode = fec::FecMode::kBlock;
  cfg.fec.block_k = 16;  // r/k = 2/16 = 12.5%: the shared redundancy budget
  cfg.fec.block_r = 2;
  cfg.fec.arq_fallback = arq_fallback;
  return cfg;
}

core::FecRunConfig adaptive_config() {
  core::FecRunConfig cfg = base_config();
  cfg.fec.mode = fec::FecMode::kSliding;
  cfg.fec.adaptive = true;
  cfg.fec.policy.budget = 0.125;  // same 12.5% ceiling as block r/k
  return cfg;
}

void add_flaps(core::FecRunConfig& cfg) {
  // Two 1.5 s outages inside the 10 s stream: each erases ~750 consecutive
  // symbols — an order of magnitude beyond what any 12.5%-redundancy code
  // can cover. The Gilbert channel is removed so the contrast is purely
  // about outage handling.
  cfg.plan.gilbert.clear();
  fault::FlapSpec f;
  f.link = "path.fwd";
  f.at_s = 3.0;
  f.down_s = 1.5;
  f.up_s = 2.0;
  f.cycles = 2;
  f.policy = fault::DownPolicy::kDrop;
  cfg.plan.flaps.push_back(f);
}

void print_table(const std::vector<Row>& rows) {
  std::printf("  %-9s %9s %7s %7s %7s %7s %8s %8s %6s\n", "mode", "delivered",
              "mean", "p50", "p95", "p99", "max", "overhead", "retx");
  std::printf("  %-9s %9s %7s %7s %7s %7s %8s %8s %6s\n", "", "", "(ms)",
              "(ms)", "(ms)", "(ms)", "(ms)", "", "");
  for (const Row& row : rows) {
    const core::FecRunResult& r = row.r;
    std::printf("  %-9s %4llu/%-4llu %7.1f %7.1f %7.1f %7.1f %8.1f %7.1f%% %6llu%s\n",
                row.label, static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.symbols), r.mean_delay_ms,
                r.p50_delay_ms, r.p95_delay_ms, r.p99_delay_ms, r.max_delay_ms,
                r.overhead * 100.0, static_cast<unsigned long long>(r.retx_sent),
                r.completed ? "" : "  [INCOMPLETE]");
  }
}

/// ASCII CDF of in-order delivery delay, one curve per mode.
void print_cdf(const std::vector<Row>& rows) {
  const double edges[] = {105, 110, 120, 150, 200, 300, 400, 500, 700, 1000};
  std::printf("  %-9s", "P(d<=x)");
  for (double e : edges) std::printf(" %6.0f", e);
  std::printf("  ms\n");
  for (const Row& row : rows) {
    std::printf("  %-9s", row.label);
    std::vector<double> sorted = row.r.delays_ms;
    std::sort(sorted.begin(), sorted.end());
    for (double e : edges) {
      const auto it = std::upper_bound(sorted.begin(), sorted.end(), e);
      const double frac =
          sorted.empty() ? 0.0
                         : static_cast<double>(it - sorted.begin()) /
                               static_cast<double>(row.r.symbols);
      std::printf(" %5.1f%%", frac * 100.0);
    }
    std::printf("\n");
  }
}

int run(const util::Flags&) {
  std::puts("Streaming FEC on a 10 Mbps / 200 ms-RTT path, Gilbert(p=0.005,");
  std::puts("q=0.25) forward loss: mean burst 4 pkts, ~2% loss. 5000 symbols");
  std::puts("at 2 ms. All modes share a 12.5% redundancy budget.\n");

  std::vector<Row> rows;
  {
    core::FecRunConfig cfg = arq_config();
    rows.push_back({"arq", core::run_fec_stream(cfg)});
  }
  {
    core::FecRunConfig cfg = block_config(/*arq_fallback=*/true);
    rows.push_back({"block", core::run_fec_stream(cfg)});
  }
  {
    core::FecRunConfig cfg = adaptive_config();
    rows.push_back({"adaptive", core::run_fec_stream(cfg)});
  }

  std::puts("[matched Gilbert] in-order delivery delay:");
  print_table(rows);
  std::puts("");
  print_cdf(rows);

  const auto& fit = rows.back().r.receiver_fit;
  std::printf("\nadaptive sink's fitted channel: p=%.4f q=%.3f (injected "
              "p=0.0050 q=0.250)%s\n",
              fit.p_good_to_bad, fit.p_bad_to_good,
              rows.back().r.fit_held ? " [held]" : "");

  std::puts("\n[link flaps] clean path + two 1.5 s outages; fixed-rate");
  std::puts("block FEC without ARQ fallback cannot recover an outage:");
  std::vector<Row> flap_rows;
  {
    core::FecRunConfig cfg = block_config(/*arq_fallback=*/false);
    add_flaps(cfg);
    flap_rows.push_back({"block-nf", core::run_fec_stream(cfg)});
  }
  {
    core::FecRunConfig cfg = adaptive_config();
    add_flaps(cfg);
    flap_rows.push_back({"adaptive", core::run_fec_stream(cfg)});
  }
  print_table(flap_rows);
  std::printf("  adaptive controller degraded to ARQ during outages: %s\n",
              flap_rows.back().r.degraded ? "yes (still degraded at end)"
                                          : "yes, and recovered");

  std::puts("\nLesson (paper §3/§6): loss is bursty, and repair that ignores");
  std::puts("burst length pays for it in delay. Fitting the Gilbert channel");
  std::puts("online and matching repair clustering to the fitted burst length");
  std::puts("turns the same redundancy budget into strictly better in-order");
  std::puts("delivery delay — and an explicit ARQ degradation path is what");
  std::puts("survives outages no code rate can cover.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return lossburst::util::run_main(argc, argv, {}, run); }

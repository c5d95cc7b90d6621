// Figure 4 + Table 1: PDF of inter-loss time over the synthetic internet.
//
// Methodology (paper §3.1): 26 PlanetLab sites (Table 1, printed below);
// random directed pairs probed with CBR flows at two packet sizes (48 B and
// 400 B); a path measurement is kept only when both traces show similar loss
// patterns; loss intervals are normalized by each path's RTT and pooled.
//
// Expected shape: less extreme than NS-2/Dummynet — "40% of the packet
// losses cluster within short time periods of 0.01 RTT and 60% of the packet
// losses cluster within time periods of 1 RTT" — but still far above the
// Poisson reference at sub-RTT timescales (0 to 0.25 RTT).
#include "bench_util.hpp"
#include "inet/campaign.hpp"

static int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  const bool full = flags.flag("full");

  bench::print_header("FIG4+TAB1", "PDF of inter-loss time (synthetic PlanetLab campaign)",
                      "40% of losses < 0.01 RTT, 60% < 1 RTT; >> Poisson below 0.25 RTT");

  // Table 1 — the measurement sites.
  std::printf("\nTable 1: PlanetLab sites in measurement\n");
  std::printf("%-46s %s\n", "Node", "Location");
  for (const auto& s : inet::planetlab_sites()) {
    std::printf("%-46s %s\n", s.hostname.c_str(), s.location.c_str());
  }
  std::printf("(%zu sites, %zu directional paths)\n\n", inet::planetlab_sites().size(),
              inet::all_directional_pairs().size());

  inet::CampaignConfig cfg;
  cfg.seed = 2006;  // campaign window: Oct-Dec 2006
  cfg.num_paths = full ? 40 : 12;
  cfg.probe_duration = util::Duration::seconds(full ? 300 : 45);  // paper: 5 min
  cfg.warmup = util::Duration::seconds(5);
  // Path probes run across the campaign's thread pool; per-path seeds are
  // fixed at plan time, so --serial produces bit-identical pooled output.
  const bool serial = flags.flag("serial");
  if (serial) cfg.threads = 1;
  const bench::WallTimer timer;
  const auto result = inet::run_campaign(cfg);
  std::printf("campaign wall-clock: %.2f s for %zu paths x 2 probe sizes (%s)\n\n",
              timer.elapsed_s(), cfg.num_paths,
              serial ? "serial, --serial" : "thread pool");

  std::printf("%6s %6s %8s %10s %10s %10s %6s %s\n", "from", "to", "rtt_ms", "sent",
              "lost48", "lost400", "valid", "reason");
  for (const auto& p : result.paths) {
    std::printf("%6zu %6zu %8.1f %10llu %10llu %10llu %6s %s\n", p.site_a, p.site_b,
                p.rtt_ms, static_cast<unsigned long long>(p.large_run.probes_sent),
                static_cast<unsigned long long>(p.small_run.probes_lost),
                static_cast<unsigned long long>(p.large_run.probes_lost),
                p.validated ? "yes" : "no", p.validated ? "" : p.reject_reason);
  }
  std::printf("\nvalidated paths: %zu / %zu\n\n", result.validated_paths,
              result.paths.size());

  bench::print_pdf_analysis(result.pooled, "Figure 4: PDF of inter-loss time (internet)");
  bench::print_pdf_csv(result.pooled);

  std::printf("\npaper vs measured: 40%% < 0.01 RTT -> %.1f%%;  60%% < 1 RTT -> %.1f%%\n",
              result.pooled.frac_below_001_rtt * 100.0,
              result.pooled.frac_below_1_rtt * 100.0);
  return 0;
}

int main(int argc, char** argv) { return bench::run_main(argc, argv, bench::kSweepFlags, run); }

// Command-line front end: run any of the library's experiments with
// parameters from flags. The artifact a downstream user scripts against.
//
//   lossburst_cli dumbbell --flows 16 --seed 7 --duration 30 --queue red
//   lossburst_cli competition --paced 16 --window 16 --rtt-ms 50
//   lossburst_cli transfer --flows 8 --rtt-ms 200 --mb 64 [--paced] [--sack]
//   lossburst_cli visibility --flows 16 [--paced]
//   lossburst_cli shuffle --nodes 8 --chunk-kb 1024 [--sack]
//   lossburst_cli campaign --paths 8 --duration 30
//   lossburst_cli probe
//   lossburst_cli shard-campaign --shards 4 [--fault] [--obs-dir DIR]
//
// dumbbell, competition, and transfer accept --fault-plan FILE (a fault-plan
// text file, see src/fault/plan.hpp) and --fault-seed N (override the plan's
// seed). transfer additionally accepts --robust (watchdog + retry +
// re-striping). Flags take `--key value` or `--key=value`; an unknown flag,
// a malformed or out-of-range value, or a malformed plan exits 2 before the
// experiment starts.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "analysis/gilbert.hpp"
#include "core/burstiness_study.hpp"
#include "core/front_end.hpp"
#include "core/shuffle_experiment.hpp"
#include "inet/path.hpp"
#include "inet/shard_campaign.hpp"
#include "inet/sites.hpp"

using namespace lossburst;

namespace {

constexpr std::uint64_t kAnySeed = std::numeric_limits<std::uint64_t>::max();

std::uint64_t seed(const util::Flags& f, std::uint64_t fallback) {
  return f.integer("seed", fallback, 0, kAnySeed);
}

std::size_t count(const util::Flags& f, std::string_view name, std::size_t fallback,
                  std::size_t hi) {
  return static_cast<std::size_t>(f.integer(name, fallback, 1, hi));
}

util::Duration seconds(const util::Flags& f, std::string_view name, double fallback) {
  return util::Duration::from_seconds(f.number(name, fallback, 0.001, 86'400));
}

util::Duration rtt(const util::Flags& f) {
  return util::Duration::from_seconds(f.number("rtt-ms", 50, 0.1, 10'000) / 1e3);
}

net::QueueKind queue(const util::Flags& f) {
  const std::string name = f.text("queue", "droptail");
  if (name == "droptail") return net::QueueKind::kDropTail;
  if (name == "red") return net::QueueKind::kRed;
  if (name == "red-ecn") return net::QueueKind::kRedEcn;
  if (name == "pecn") return net::QueueKind::kPersistentEcn;
  throw util::FlagError("--queue: '" + name + "' is not one of droptail|red|red-ecn|pecn");
}

constexpr util::FlagSpec kSeed{"seed", "N"};
constexpr util::FlagSpec kPaced{"paced"};
constexpr util::FlagSpec kSack{"sack"};
constexpr util::FlagSpec kQueue{"queue", "droptail|red|red-ecn|pecn"};
constexpr util::FlagSpec kRtt{"rtt-ms", "MS"};

int cmd_dumbbell(const util::Flags& a) {
  core::DumbbellExperimentConfig cfg;
  cfg.seed = seed(a, 1);
  cfg.tcp_flows = count(a, "flows", 16, 4096);
  cfg.duration = seconds(a, "duration", 30);
  cfg.buffer_bdp_fraction = a.number("buffer", 1.0, 0.01, 100);
  cfg.queue = queue(a);
  if (a.flag("paced")) cfg.emission = tcp::EmissionMode::kPaced;
  if (a.flag("dummynet")) {
    cfg.emulate_dummynet = true;
    cfg.rtt_distribution = core::RttDistribution::kDummynetClasses;
  }
  cfg.fault = core::fault_plan(a);
  const auto r = core::run_dumbbell_experiment(cfg);
  std::printf("drops=%llu utilization=%.1f%% goodput=%.1fMbps mean_rtt=%.1fms\n",
              static_cast<unsigned long long>(r.total_drops),
              r.bottleneck_utilization * 100.0, r.aggregate_goodput_mbps,
              r.mean_rtt_s * 1e3);
  if (!cfg.fault.empty()) {
    std::printf("fault: gilbert_drops=%llu flap_drops=%llu corrupted=%llu duplicated=%llu\n",
                static_cast<unsigned long long>(r.fault_totals.gilbert_drops),
                static_cast<unsigned long long>(r.fault_totals.flap_drops),
                static_cast<unsigned long long>(r.fault_totals.corrupted),
                static_cast<unsigned long long>(r.fault_totals.duplicated));
  }
  std::cout << core::summarize_burstiness(r.loss) << '\n'
            << core::render_loss_pdf_chart(r.loss, "inter-loss PDF");
  return 0;
}

int cmd_competition(const util::Flags& a) {
  core::CompetitionConfig cfg;
  cfg.seed = seed(a, 7);
  cfg.paced_flows = count(a, "paced", 16, 1024);
  cfg.window_flows = count(a, "window", 16, 1024);
  cfg.rtt = rtt(a);
  cfg.duration = seconds(a, "duration", 40);
  cfg.queue = queue(a);
  cfg.ecn = a.flag("ecn");
  cfg.sack = a.flag("sack");
  cfg.fault = core::fault_plan(a);
  const auto r = core::run_competition(cfg);
  std::printf("paced=%.1fMbps window=%.1fMbps deficit=%.1f%%\n", r.paced_mean_mbps,
              r.window_mean_mbps, r.paced_deficit * 100.0);
  return 0;
}

int cmd_transfer(const util::Flags& a) {
  core::ParallelTransferConfig cfg;
  cfg.seed = seed(a, 8);
  cfg.flows = count(a, "flows", 4, 1024);
  cfg.rtt = rtt(a);
  cfg.total_bytes = a.integer("mb", 64, 1, 65'536) << 20;
  if (a.flag("paced")) cfg.emission = tcp::EmissionMode::kPaced;
  cfg.sack = a.flag("sack");
  cfg.robust = a.flag("robust");
  cfg.fault = core::fault_plan(a);
  const auto r = core::run_parallel_transfer(cfg);
  std::printf("latency=%.2fs bound=%.2fs normalized=%.2f flows_with_loss=%zu%s\n",
              r.latency_s, r.lower_bound_s, r.normalized_latency, r.flows_with_loss,
              r.all_completed ? "" : " (INCOMPLETE)");
  if (cfg.robust) {
    std::printf("robust: retries=%zu restripes=%zu\n", r.stripes_retried, r.restripes);
  }
  return 0;
}

int cmd_visibility(const util::Flags& a) {
  core::LossVisibilityConfig cfg;
  cfg.seed = seed(a, 9);
  cfg.flows = count(a, "flows", 16, 4096);
  cfg.emission =
      a.flag("paced") ? tcp::EmissionMode::kPaced : tcp::EmissionMode::kWindowBurst;
  const auto r = core::run_loss_visibility(cfg);
  std::printf("events=%zu mean_drops=%.1f mean_flows_hit=%.2f fraction=%.1f%%\n",
              r.events.size(), r.mean_drops_per_event, r.mean_flows_hit,
              r.mean_fraction_hit * 100.0);
  std::printf("models: eq1(rate)=%.2f eq2(window)=%.2f K=%.1f\n", r.model_rate_based,
              r.model_window_based, r.k_packets_per_rtt);
  return 0;
}

int cmd_shuffle(const util::Flags& a) {
  core::ShuffleConfig cfg;
  cfg.seed = seed(a, 12);
  cfg.nodes = static_cast<std::size_t>(a.integer("nodes", 8, 2, 128));
  cfg.bytes_per_flow = a.integer("chunk-kb", 1024, 1, 1u << 20) << 10;
  cfg.sack = a.flag("sack");
  if (a.flag("paced")) cfg.emission = tcp::EmissionMode::kPaced;
  const auto r = core::run_shuffle(cfg);
  std::printf("completion=%.2fs bound=%.2fs normalized=%.2f drops=%llu%s\n",
              r.completion_s, r.lower_bound_s, r.normalized,
              static_cast<unsigned long long>(r.downlink_drops),
              r.all_completed ? "" : " (INCOMPLETE)");
  return 0;
}

int cmd_campaign(const util::Flags& a) {
  inet::CampaignConfig cfg;
  cfg.seed = seed(a, 2006);
  cfg.num_paths = count(a, "paths", 8, 1000);
  cfg.probe_duration = seconds(a, "duration", 30);
  const auto r = inet::run_campaign(cfg);
  std::printf("paths=%zu validated=%zu pooled_losses=%zu\n", r.paths.size(),
              r.validated_paths, r.pooled.loss_count);
  std::cout << core::summarize_burstiness(r.pooled) << '\n';
  return 0;
}

// One internet path's loss process measured with CBR probes, the paper's
// §3.1 methodology end to end: pick two PlanetLab sites and estimate the
// path RTT, probe the path twice (48 B and 400 B packets), cross-validate
// the two traces, then analyze inter-loss intervals and fit a
// Gilbert-Elliott model.
int cmd_probe(const util::Flags&) {
  const auto& sites = inet::planetlab_sites();
  const inet::Site& from = sites[0];   // UCLA
  const inet::Site& to = sites[24];    // CESNET, Czech Republic
  const util::Duration path_rtt = inet::estimate_rtt(from, to);

  std::printf("Path: %s -> %s\n", from.hostname.c_str(), to.hostname.c_str());
  std::printf("Great-circle distance: %.0f km, estimated base RTT: %.1f ms\n\n",
              inet::great_circle_km(from, to), path_rtt.millis());

  inet::PathConfig cfg;
  cfg.rtt = path_rtt;
  cfg.seed = 0xCE5;
  cfg.hops = 2;
  cfg.probe_interval = util::Duration::millis(10);
  cfg.probe_duration = util::Duration::seconds(60);

  std::puts("Probing with 48-byte packets...");
  cfg.probe_bytes = 48;
  const auto small_run = inet::run_path_probe(cfg);
  std::puts("Probing with 400-byte packets...");
  cfg.probe_bytes = 400;
  const auto large_run = inet::run_path_probe(cfg);

  std::printf("\n48B run: %llu/%llu lost (%.2f%%);  400B run: %llu/%llu lost (%.2f%%)\n",
              static_cast<unsigned long long>(small_run.probes_lost),
              static_cast<unsigned long long>(small_run.probes_sent),
              small_run.loss_rate() * 100.0,
              static_cast<unsigned long long>(large_run.probes_lost),
              static_cast<unsigned long long>(large_run.probes_sent),
              large_run.loss_rate() * 100.0);

  const auto verdict = analysis::validate_probe_pair(small_run.summary(),
                                                     large_run.summary());
  std::printf("cross-validation: %s (%s)\n\n", verdict.validated ? "ACCEPTED" : "REJECTED",
              verdict.reason);

  const auto a = analysis::analyze_loss_intervals(large_run.loss_times_s, large_run.rtt_s);
  std::cout << core::summarize_burstiness(a) << "\n\n";
  std::cout << core::render_loss_pdf_chart(a, "inter-loss PDF for this path") << "\n";

  const auto fit = analysis::fit_gilbert(large_run.loss_indicator);
  std::printf("Gilbert-Elliott fit: P(G->B)=%.4f P(B->G)=%.4f mean burst %.2f pkts "
              "(%.1fx an independent-loss process)\n",
              fit.p_good_to_bad, fit.p_bad_to_good, fit.mean_burst_length(),
              fit.burstiness_vs_bernoulli());
  return 0;
}

// One large synthetic-internet measurement campaign on the sharded parallel
// engine (DESIGN.md §12). The topology — regional 10G backbones plus
// per-site access links — is partitioned across N shards along the
// highest-latency backbone cuts; each shard advances on its own thread
// under conservative-lookahead epochs. The printed digest is byte-identical
// for any --shards value, which is the point: parallelism is an engine
// property here, not a statistics property.
int cmd_shard_campaign(const util::Flags& a) {
  if (a.flag("help")) {
    std::fputs(util::usage_text("lossburst_cli shard-campaign", a.spec()).c_str(), stdout);
    return 0;
  }
  inet::ShardCampaignConfig cfg;
  cfg.shards = count(a, "shards", cfg.shards, 64);
  cfg.sites = count(a, "sites", cfg.sites, 100'000);
  cfg.flows = count(a, "flows", cfg.flows, 100'000);
  cfg.regions = count(a, "regions", cfg.regions, 64);
  cfg.duration = util::Duration::seconds(
      static_cast<std::int64_t>(a.integer("duration-s", 10, 1, 86'400)));
  cfg.seed = seed(a, cfg.seed);
  cfg.fault_backbone = a.flag("fault");
  cfg.obs = core::obs_config(a, "campaign_");

  std::printf("shard campaign: %zu sites in %zu regions, %zu probe flows, "
              "%lld s, %zu shard(s)%s\n",
              cfg.sites, cfg.regions, cfg.flows,
              static_cast<long long>(cfg.duration.ns() / 1'000'000'000),
              cfg.shards, cfg.fault_backbone ? ", Gilbert fault on bb.0.1" : "");

  const inet::ShardCampaignResult res = inet::run_shard_campaign(cfg);

  std::printf("events executed : %llu\n",
              static_cast<unsigned long long>(res.events));
  if (cfg.shards > 1) {
    std::printf("epochs          : %llu (lookahead %.3f ms)\n",
                static_cast<unsigned long long>(res.epochs),
                res.lookahead.millis());
  } else {
    std::puts("epochs          : n/a (serial bypass at --shards 1)");
  }
  std::printf("probes          : %llu sent, %llu received (%.3f%% lost)\n",
              static_cast<unsigned long long>(res.probes_sent),
              static_cast<unsigned long long>(res.probes_received),
              res.probes_sent == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(res.probes_sent - res.probes_received) /
                        static_cast<double>(res.probes_sent));
  std::printf("digest          : %016llx  (byte-identical for any --shards)\n",
              static_cast<unsigned long long>(res.digest));
  if (!cfg.obs.dir.empty()) {
    std::printf("telemetry       : %s/campaign_s<k>_intervals.csv (per shard) "
                "+ campaign_trace.json (one pid per shard)\n",
                cfg.obs.dir.c_str());
  }

  if (cfg.fault_backbone) {
    std::vector<bool> pooled;
    for (const auto& f : res.flows) {
      if (!f.crosses_fault_link) continue;
      pooled.insert(pooled.end(), f.loss_indicator.begin(), f.loss_indicator.end());
    }
    std::printf("fault           : %llu Gilbert drops on bb.0.1\n",
                static_cast<unsigned long long>(res.fault_totals.gilbert_drops));
    if (pooled.size() > 100) {
      const auto fit = analysis::fit_gilbert(pooled);
      std::printf("fit (crossing flows pooled): P(G->B)=%.4f P(B->G)=%.4f "
                  "loss %.3f%%\n",
                  fit.p_good_to_bad, fit.p_bad_to_good, fit.loss_rate * 100.0);
    }
  }
  return 0;
}

struct Command {
  const char* name;
  int (*run)(const util::Flags&);
  util::FlagSet flags;
};

}  // namespace

int main(int argc, char** argv) {
  // Built in main, not at namespace scope: the shared flag groups are
  // defined in another translation unit.
  const Command commands[] = {
      {"dumbbell", cmd_dumbbell,
       util::FlagSet{kSeed, {"flows", "N"}, {"duration", "S"}, {"buffer", "BDP"}, kQueue, kPaced,
                     {"dummynet"}} +
           core::kFaultFlags},
      {"competition", cmd_competition,
       util::FlagSet{kSeed, {"paced", "N"}, {"window", "N"}, kRtt, {"duration", "S"}, kQueue,
                     {"ecn"}, kSack} +
           core::kFaultFlags},
      {"transfer", cmd_transfer,
       util::FlagSet{kSeed, {"flows", "N"}, kRtt, {"mb", "MB"}, kPaced, kSack, {"robust"}} +
           core::kFaultFlags},
      {"visibility", cmd_visibility, {kSeed, {"flows", "N"}, kPaced}},
      {"shuffle", cmd_shuffle, {kSeed, {"nodes", "N"}, {"chunk-kb", "KB"}, kSack, kPaced}},
      {"campaign", cmd_campaign, {kSeed, {"paths", "N"}, {"duration", "S"}}},
      {"probe", cmd_probe, {}},
      {"shard-campaign", cmd_shard_campaign,
       {{"shards", "N"}, {"sites", "N"}, {"flows", "N"}, {"regions", "N"}, {"duration-s", "S"},
        kSeed, {"fault"}, core::kObsDirFlag, core::kObsIntervalFlag, {"help"}}},
  };
  if (argc >= 2) {
    for (const Command& c : commands) {
      if (std::strcmp(argv[1], c.name) != 0) continue;
      // Usage text names the subcommand: "lossburst_cli <name>".
      std::string program = std::string("lossburst_cli ") + c.name;
      argv[1] = program.data();
      return util::run_main(argc - 1, argv + 1, c.flags, c.run);
    }
  }
  std::FILE* out = argc >= 2 ? stderr : stdout;
  if (argc >= 2) std::fprintf(out, "error: unknown command '%s'\n", argv[1]);
  std::fputs("usage: lossburst_cli <command> [--key value | --key=value ...]\n"
             "commands: dumbbell competition transfer visibility shuffle campaign probe"
             " shard-campaign\n"
             "examples:\n"
             "  lossburst_cli dumbbell --flows 16 --duration 30 --queue red\n"
             "  lossburst_cli competition --paced 16 --window 16 --rtt-ms 50\n"
             "  lossburst_cli transfer --flows 8 --rtt-ms 200 --mb 64 --sack\n"
             "  lossburst_cli transfer --robust --fault-plan chaos.plan --fault-seed 3\n"
             "  lossburst_cli shuffle --nodes 8 --chunk-kb 1024\n"
             "  lossburst_cli shard-campaign --shards 4 --fault\n",
             out);
  return argc >= 2 ? 2 : 0;
}

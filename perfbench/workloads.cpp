#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "analysis/dispersion.hpp"
#include "analysis/episodes.hpp"
#include "analysis/gilbert.hpp"
#include "core/dumbbell_experiment.hpp"
#include "core/fec_experiment.hpp"
#include "inet/shard_campaign.hpp"
#include "obs/live/publisher.hpp"

namespace perfbench {

using namespace lossburst;
namespace fs = std::filesystem;

namespace {

// Digests and loss counts of the default seed at full scale. A change that
// moves one of these changed what the simulator computes, not how fast.
constexpr std::uint64_t kDumbbellDigest = 0xb7dc5803757e07faULL;
constexpr std::uint64_t kDumbbellDrops = 1569;
constexpr std::uint64_t kCampaignDigest = 0x42da043c20800c93ULL;
constexpr std::uint64_t kCampaignDrops = 1020;
constexpr std::uint64_t kFecDigest = 0x05a2bd1bde18bc70ULL;
constexpr std::uint64_t kFecDrops = 15538;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// Parse the loop profiler's text report (obs::LoopProfiler::report).
std::map<std::string, TagTotal> read_profile(const fs::path& path) {
  std::map<std::string, TagTotal> tags;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string tag;
    TagTotal t;
    double total_ms = 0.0;
    std::string share;
    double mean_ns = 0.0;
    double max_ns = 0.0;
    if (!(row >> tag >> t.count >> total_ms >> share >> mean_ns >> max_ns)) continue;
    if (tag == "total") continue;
    row >> t.units;  // absent for tags that complete no link units
    t.total_s = total_ms * 1e-3;
    tags[tag] = t;
  }
  return tags;
}

/// Column sums of an interval CSV: cumulative totals for counter columns,
/// which the exporter writes as per-interval deltas.
std::map<std::string, double> read_interval_totals(const fs::path& path) {
  std::map<std::string, double> sums;
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> names;
  if (std::getline(in, line)) {
    std::istringstream hdr(line);
    std::string name;
    while (std::getline(hdr, name, ',')) names.push_back(name);
  }
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string cell;
    for (std::size_t c = 0; std::getline(row, cell, ',') && c < names.size(); ++c) {
      sums[names[c]] += std::strtod(cell.c_str(), nullptr);
    }
  }
  return sums;
}

double artifact_bytes(const fs::path& dir, const std::string& prefix) {
  double bytes = 0.0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().filename().string().rfind(prefix, 0) == 0) {
      bytes += static_cast<double>(e.file_size());
    }
  }
  return bytes;
}

const char* span_name(Mode mode) {
  switch (mode) {
    case Mode::kSetup: return "setup";
    case Mode::kPlain: return "run";
    case Mode::kTraced: return "traced";
    case Mode::kBypass: return "bypass";
    case Mode::kWide: return "wide";
  }
  return "?";
}

/// Telemetry that exists only to run the loop profiler: coarse sampling,
/// no flight-recorder kinds.
obs::ObsConfig profiler_only(const std::string& dir, const std::string& prefix) {
  obs::ObsConfig o;
  o.dir = dir;
  o.prefix = prefix;
  o.interval = util::Duration::seconds(1);
  o.trace_kinds = 0;
  o.profile = true;
  return o;
}

void attach_artifacts(Outcome& out, const fs::path& dir, const std::string& prefix,
                      SpanLog& log) {
  out.tags = read_profile(dir / (prefix + "profile.txt"));
  for (const auto& [tag, t] : out.tags) log.add_tag_total(tag, out.run_span, t);
  out.counters["obs.artifact_bytes"] = artifact_bytes(dir, prefix);
}

// ---- dumbbell: the FIG2 point ----------------------------------------------

Outcome run_dumbbell(Mode mode, std::uint64_t seed, Scale scale, const std::string& scratch,
                     SpanLog& log, int iteration) {
  core::DumbbellExperimentConfig cfg;
  cfg.seed = seed;
  cfg.tcp_flows = 32;
  cfg.buffer_bdp_fraction = 0.5;
  cfg.duration = util::Duration::seconds(scale == Scale::kFull ? 30 : 2);
  cfg.warmup = util::Duration::seconds(scale == Scale::kFull ? 5 : 1);
  if (mode == Mode::kSetup) {
    cfg.duration = util::Duration::zero();
    cfg.warmup = util::Duration::zero();
  }
  const fs::path dir = fs::path(scratch) / "obs";
  const std::string prefix = "observed_";
  // A publisher serves one run; with no clients attached it still
  // snapshots, decimates and rings every interval.
  std::unique_ptr<obs::live::LivePublisher> live;

  Outcome out;
  out.run_span = log.open(span_name(mode), -1, iteration);
  if (mode != Mode::kBypass) {
    live = std::make_unique<obs::live::LivePublisher>();
    cfg.obs.dir = dir.string();
    cfg.obs.prefix = prefix;
    cfg.obs.live = live.get();
    cfg.obs.profile = mode == Mode::kTraced;
  }
  const core::DumbbellExperimentResult r = log.timed(
      "lib.run_dumbbell_experiment", out.run_span, iteration,
      [&] { return core::run_dumbbell_experiment(cfg); });
  // fig2's per-run analysis: episode structure and IDC across timescales.
  std::vector<double> times = r.drop_times_s;
  std::sort(times.begin(), times.end());
  analysis::EpisodeStats eps;
  analysis::DispersionCurve idc;
  if (times.size() > 10) {
    eps = log.timed("analysis.episode_stats", out.run_span, iteration,
                    [&] { return analysis::episode_stats(times, 0.5 * r.mean_rtt_s); });
    idc = log.timed("analysis.dispersion_curve", out.run_span, iteration, [&] {
      return analysis::dispersion_curve(times, 0.01 * r.mean_rtt_s, 20.0 * r.mean_rtt_s, 8);
    });
  }
  log.close(out.run_span);
  live.reset();

  Fnv h;
  h.add(r.total_drops);
  h.add(r.bottleneck_packets);
  h.add(r.aggregate_goodput_mbps);
  h.add(r.mean_rtt_s);
  for (double t : r.drop_times_s) h.add(t);
  h.add(static_cast<std::uint64_t>(eps.episode_count));
  h.add(static_cast<std::uint64_t>(eps.max_drops));
  h.add(eps.mean_spacing_s);
  for (double v : idc.idc) h.add(v);
  out.digest = h.h;
  out.drops = r.total_drops;
  out.counters["net.drops"] = static_cast<double>(r.total_drops);
  out.counters["net.bottleneck_pkts"] = static_cast<double>(r.bottleneck_packets);
  out.counters["fault.gilbert_drops"] = static_cast<double>(r.fault_totals.gilbert_drops);
  out.counters["fault.flap_drops"] = static_cast<double>(r.fault_totals.flap_drops);
  if (mode == Mode::kTraced) attach_artifacts(out, dir, prefix, log);
  return out;
}

// ---- campaign: the sharded internet probe run ------------------------------

Outcome run_campaign(Mode mode, std::uint64_t seed, Scale scale, SpanLog& log,
                     int iteration) {
  inet::ShardCampaignConfig cfg;
  cfg.seed = seed;
  // Timed runs use one shard. A barrier-synchronised run waits at every
  // epoch for whichever vCPU the hypervisor has preempted: on a 4-vCPU KVM
  // guest the median wall time of a 25 s run at K = 4 swung 2x or more from
  // run to run, while its CPU time held within 10%. K = 4 runs in traced mode,
  // where the shard layer is measured. With 4 regions the latency-aware
  // partition cuts the faulted 0 -> 1 backbone at K = 4; with 8 regions it
  // keeps regions 0 and 1 in one shard at any K <= 4, and the cross-shard
  // fault path would go unexercised.
  cfg.shards = mode == Mode::kWide ? 4 : 1;
  cfg.regions = 4;
  cfg.sites = scale == Scale::kFull ? 1000 : 200;
  cfg.flows = scale == Scale::kFull ? 1024 : 128;
  cfg.fault_backbone = true;
  cfg.duration = util::Duration::seconds(scale == Scale::kFull ? 10 : 2);
  if (mode == Mode::kSetup) cfg.duration = util::Duration::zero();

  Outcome out;
  out.run_span = log.open(span_name(mode), -1, iteration);
  const inet::ShardCampaignResult r = log.timed(
      "lib.run_shard_campaign", out.run_span, iteration,
      [&] { return inet::run_shard_campaign(cfg); });
  // examples/shard_campaign: fit the Gilbert channel over the pooled loss
  // indicators of the flows that cross the faulted backbone.
  std::vector<bool> pooled;
  for (const auto& f : r.flows) {
    if (f.crosses_fault_link) {
      pooled.insert(pooled.end(), f.loss_indicator.begin(), f.loss_indicator.end());
    }
  }
  analysis::GilbertFit fit;
  if (pooled.size() > 100) {
    fit = log.timed("analysis.fit_gilbert", out.run_span, iteration,
                    [&] { return analysis::fit_gilbert(pooled); });
  }
  log.close(out.run_span);

  Fnv h;
  h.add(r.digest);
  h.add(r.probes_sent);
  h.add(r.probes_received);
  h.add(fit.p_good_to_bad);
  h.add(fit.p_bad_to_good);
  out.digest = h.h;
  out.drops = r.probes_sent - r.probes_received;
  out.counters["sim.events"] = static_cast<double>(r.events);
  out.counters["shard.epochs"] = static_cast<double>(r.epochs);
  out.counters["shard.lookahead_ms"] = r.lookahead.millis();
  out.counters["fault.gilbert_drops"] = static_cast<double>(r.fault_totals.gilbert_drops);
  out.counters["fault.flap_drops"] = static_cast<double>(r.fault_totals.flap_drops);
  return out;
}

// ---- FEC: adaptive sliding-window RLC under Gilbert loss and flaps ----------

Outcome run_fec(Mode mode, std::uint64_t seed, Scale scale, const std::string& scratch,
                SpanLog& log, int iteration) {
  const bool full = scale == Scale::kFull;
  core::FecRunConfig cfg;
  cfg.seed = seed;
  cfg.fec.mode = fec::FecMode::kSliding;
  cfg.fec.adaptive = true;
  cfg.fec.policy.budget = 0.125;
  cfg.fec.symbols = full ? 500'000 : 20'000;
  cfg.fec.interval = util::Duration::millis(2);
  cfg.plan.seed = seed;
  fault::GilbertSpec g;
  g.link = "path.fwd";
  g.p_good_to_bad = 0.005;
  g.p_bad_to_good = 0.25;
  cfg.plan.gilbert.push_back(g);
  // A 1.5 s outage every 100 s (every 20 s at quick scale), all inside the
  // stream, so the controller degrades to ARQ and recovers each time.
  fault::FlapSpec f;
  f.link = "path.fwd";
  f.at_s = full ? 50.0 : 10.0;
  f.down_s = 1.5;
  f.up_s = (full ? 100.0 : 20.0) - f.down_s;
  f.cycles = full ? 10 : 2;
  f.policy = fault::DownPolicy::kDrop;
  cfg.plan.flaps.push_back(f);
  // Just past the stream end: with obs on, the sampler runs to the horizon.
  cfg.horizon = cfg.fec.interval * static_cast<std::int64_t>(cfg.fec.symbols) +
                util::Duration::seconds(5);
  if (mode == Mode::kSetup) cfg.horizon = util::Duration::zero();
  const fs::path dir = fs::path(scratch) / "obs";
  const std::string prefix = "fec_";
  if (mode == Mode::kTraced) cfg.obs = profiler_only(dir.string(), prefix);

  Outcome out;
  out.run_span = log.open(span_name(mode), -1, iteration);
  const core::FecRunResult r = log.timed("lib.run_fec_stream", out.run_span, iteration,
                                         [&] { return core::run_fec_stream(cfg); });
  log.close(out.run_span);

  out.digest = r.digest;
  out.drops = r.retx_sent;
  if (mode != Mode::kSetup && (!r.completed || r.delivered != r.symbols)) {
    out.defect = "stream incomplete: " + std::to_string(r.delivered) + "/" +
                 std::to_string(r.symbols) + " symbols delivered in order";
  }
  out.counters["fec.repairs"] = static_cast<double>(r.repairs_sent);
  out.counters["fec.retx"] = static_cast<double>(r.retx_sent);
  out.counters["fec.decoded"] = static_cast<double>(r.decoded);
  out.counters["fec.overhead"] = r.overhead;
  if (mode == Mode::kTraced) {
    attach_artifacts(out, dir, prefix, log);
    // run_fec_stream returns no fault or queue counters; the interval
    // export carries both as registry columns.
    double queue_drops = 0.0;
    for (const auto& [name, sum] : read_interval_totals(dir / (prefix + "intervals.csv"))) {
      if (name == "fault.path.fwd.gilbert_drops") out.counters["fault.gilbert_drops"] = sum;
      if (name == "fault.path.fwd.flap_drops") out.counters["fault.flap_drops"] = sum;
      if (name.rfind("queue.", 0) == 0 && name.size() > 8 &&
          name.compare(name.size() - 8, 8, ".dropped") == 0) {
        queue_drops += sum;
      }
    }
    out.counters["net.drops"] = queue_drops;
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"dumbbell_observed", 2007, kDumbbellDigest, kDumbbellDrops},
      {"campaign_sharded", 2006, kCampaignDigest, kCampaignDrops},
      {"fec_gilbert_flap", 21, kFecDigest, kFecDrops},
  };
  return all;
}

Outcome run_once(const Workload& w, Mode mode, std::uint64_t seed, Scale scale,
                 const std::string& scratch, SpanLog& log, int iteration) {
  if (w.name == "dumbbell_observed") return run_dumbbell(mode, seed, scale, scratch, log, iteration);
  if (w.name == "campaign_sharded") return run_campaign(mode, seed, scale, log, iteration);
  return run_fec(mode, seed, scale, scratch, log, iteration);
}

}  // namespace perfbench

// A single large synthetic-internet measurement run on the sharded engine
// (DESIGN.md §12): one topology of regional backbones and per-site access
// links, probed by CBR flows between random site pairs, partitioned across
// K shards with conservative-lookahead synchronization.
//
// Unlike inet::run_campaign (which parallelizes across independent per-path
// simulators), this campaign exercises *intra-run* parallelism: every flow
// shares one event-ordered world, and the result — per-flow arrival logs,
// loss indicators, and the digest over all of them — is byte-identical for
// any shard count (tests/test_shard.cpp holds K in {1,2,4,8} to one digest).
//
// Shard-count independence rules the builder follows (and any caller
// extending it must follow):
//  - links are created in a fixed global order (backbone pairs ascending,
//    then per-site access links), so creation indices — the cross-shard
//    tie-break keys — never depend on the partition;
//  - every RNG stream derives from (campaign seed, component id), never
//    from a shard simulator's root RNG;
//  - fault plans are per-link, seeded from (campaign seed, link index), so
//    the injector derives the same streams no matter which shard's network
//    the link landed in.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/channel.hpp"
#include "net/packet.hpp"
#include "obs/telemetry.hpp"
#include "util/time.hpp"

namespace lossburst::inet {

using util::Duration;

struct ShardCampaignConfig {
  std::uint64_t seed = 2006;
  std::size_t shards = 1;
  std::size_t regions = 8;    ///< continental hubs (<= the PlanetLab site count)
  std::size_t sites = 1000;   ///< synthetic sites, round-robin across regions
  std::size_t flows = 256;    ///< directed site-pair probe flows
  std::size_t onoff_per_region = 4;  ///< shard-local background noise flows
  std::uint32_t probe_bytes = 400;
  Duration probe_interval = Duration::millis(20);
  Duration duration = Duration::seconds(10);
  /// Attach a Gilbert-Elliott loss channel to the region 0 -> 1 backbone
  /// link — a shard boundary whenever regions 0 and 1 land in different
  /// shards, which is how the cross-cut fault path is exercised.
  bool fault_backbone = false;
  double gilbert_p = 0.01;  ///< P(Good -> Bad) per packet
  double gilbert_q = 0.30;  ///< P(Bad -> Good) per packet

  /// Telemetry (DESIGN.md §8/§13): one bundle per shard. With obs.dir set,
  /// the run writes per-shard interval CSVs plus ONE merged Chrome trace
  /// with a trace_event process (pid) per shard. With obs.live set, every
  /// shard attaches to the publisher (columns prefixed "s<k>.") and
  /// publication happens at epoch boundaries — the coordinator's only
  /// single-threaded points — so streaming never races the workers.
  /// Sampling reads registries at those boundaries; the sampled values are
  /// exact for K == 1 and barrier-consistent (deterministic per K) for
  /// K > 1. Telemetry never alters event outcomes: the digest for a given
  /// (seed, K) is identical with obs on or off. An artifact that cannot be
  /// written throws std::runtime_error naming its path.
  obs::ObsConfig obs{};
};

struct ShardFlowReport {
  net::FlowId flow = 0;
  std::size_t src_site = 0;
  std::size_t dst_site = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  /// Per-probe loss indicator in send order (fit_gilbert input).
  std::vector<bool> loss_indicator;
  /// True when the route traverses the (possibly faulted) 0 -> 1 backbone.
  bool crosses_fault_link = false;
};

struct ShardCampaignResult {
  std::size_t shards = 1;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;          ///< 0 when K == 1 (serial bypass)
  Duration lookahead = Duration(0);
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_received = 0;
  /// FNV-1a over every flow's (id, sent, arrivals(seq, arrived, sent)) in
  /// flow-id order — the byte-identity witness across shard counts.
  std::uint64_t digest = 0;
  std::vector<ShardFlowReport> flows;
  fault::FaultCounters fault_totals;  ///< zeros unless fault_backbone
};

ShardCampaignResult run_shard_campaign(const ShardCampaignConfig& cfg);

}  // namespace lossburst::inet

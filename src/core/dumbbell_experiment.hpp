// The Figure 1 experiment: N TCP flows plus 50 on-off noise flows share a
// 100 Mbps DropTail bottleneck; every drop at the router is recorded and the
// inter-loss-interval PDF is computed (Figures 2 and 3, §3.2).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/loss_intervals.hpp"
#include "fault/plan.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "tcp/sender.hpp"
#include "util/time.hpp"

namespace lossburst::core {

using util::Duration;

enum class RttDistribution {
  kUniformRandom,   ///< NS-2 setup: access latencies U[2 ms, 200 ms]
  kDummynetClasses, ///< emulation setup: {2, 10, 50, 200} ms only
};

struct DumbbellExperimentConfig {
  std::uint64_t seed = 1;
  std::size_t tcp_flows = 16;        ///< paper sweeps 2, 4, 8, 16, 32
  tcp::CcVariant variant = tcp::CcVariant::kNewReno;
  tcp::EmissionMode emission = tcp::EmissionMode::kWindowBurst;
  RttDistribution rtt_distribution = RttDistribution::kUniformRandom;
  net::QueueKind queue = net::QueueKind::kDropTail;
  net::RedTuning red{};  ///< used when queue is kRed / kRedEcn
  std::uint64_t bottleneck_bps = 100'000'000;
  double buffer_bdp_fraction = 1.0;  ///< paper sweeps 1/8 .. 2
  Duration duration = Duration::seconds(60);
  Duration warmup = Duration::seconds(5);  ///< drops before this are discarded

  // Noise: 50 two-way exponential on-off flows, average 10% of capacity.
  std::size_t noise_flows = 50;
  double noise_load = 0.10;

  // Emulation add-ons (Figure 3): quantize drop timestamps to the Dummynet
  // clock and add software-router processing noise at the bottleneck.
  bool emulate_dummynet = false;
  Duration emu_clock = Duration::millis(1);

  /// Telemetry (DESIGN.md §8): set obs.dir to export interval CSV + Chrome
  /// trace JSON for this run. Off (zero overhead beyond a few branches) when
  /// dir is empty. An artifact that cannot be written throws
  /// std::runtime_error naming its path.
  obs::ObsConfig obs{};

  /// Fault plan (DESIGN.md §10): impairments to inject, keyed by link name
  /// ("bottleneck.fwd" etc.). Injected drops merge into the same loss trace
  /// the analysis consumes. Empty (default) = no fault layer attached.
  fault::FaultPlan fault{};
};

struct DumbbellExperimentResult {
  analysis::LossIntervalAnalysis loss;   ///< the paper's headline analysis
  std::vector<double> drop_times_s;      ///< raw (possibly quantized) trace
  double mean_rtt_s = 0.0;               ///< normalization unit used
  std::uint64_t total_drops = 0;
  std::uint64_t bottleneck_packets = 0;  ///< forwarded by the bottleneck
  double bottleneck_utilization = 0.0;
  double aggregate_goodput_mbps = 0.0;
  fault::FaultCounters fault_totals{};   ///< injected impairments, all links
};

DumbbellExperimentResult run_dumbbell_experiment(const DumbbellExperimentConfig& cfg);

}  // namespace lossburst::core

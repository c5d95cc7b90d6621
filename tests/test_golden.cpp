// Golden-digest regression tests.
//
// Each scenario is reduced to one FNV-1a digest over everything a figure or
// a fault report is built from: the bottleneck drop times (raw double bits),
// goodput and every fault counter. The pinned values are
// the link datapath's reference behaviour; a datapath refactor that changes
// any of them has changed a figure, not just an implementation. Determinism
// within one build is covered by test_determinism.cpp — these tests pin the
// numbers across builds and rewrites.
//
// The GoldenDigestTest.*Artifacts tests pin the bytes of the --obs-dir
// exports the same way: a formatter that is wrong identically on every run
// passes a run-vs-run comparison but moves these digests.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/dumbbell_experiment.hpp"
#include "inet/shard_campaign.hpp"
#include "obs/trace_ring.hpp"

namespace lossburst {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// FNV-1a over a file's bytes.
std::string file_digest(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty()) << p;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return hex(h);
}

void mix_counters(Fnv& d, const fault::FaultCounters& c) {
  d.mix(c.gilbert_drops);
  d.mix(c.flap_drops);
  d.mix(c.parked);
  d.mix(c.corrupted);
  d.mix(c.duplicated);
  d.mix(c.down_transitions);
  d.mix(c.stall_windows);
}

std::uint64_t digest(const core::DumbbellExperimentResult& r) {
  Fnv d;
  d.mix(static_cast<std::uint64_t>(r.drop_times_s.size()));
  for (const double t : r.drop_times_s) d.mix(t);
  d.mix(r.aggregate_goodput_mbps);
  mix_counters(d, r.fault_totals);
  return d.h;
}

// A quick 0.5-BDP DropTail dumbbell: enough TCP + noise traffic for the
// sub-RTT drop episodes of Figs. 2-4, short enough for a Debug test run.
core::DumbbellExperimentConfig quick_dumbbell() {
  core::DumbbellExperimentConfig cfg;
  cfg.seed = 1307;
  cfg.tcp_flows = 16;
  cfg.noise_flows = 20;
  cfg.buffer_bdp_fraction = 0.5;
  cfg.warmup = util::Duration::millis(500);
  cfg.duration = util::Duration::seconds(8);
  return cfg;
}

TEST(GoldenDigestTest, DropTailDumbbell) {
  const auto r = core::run_dumbbell_experiment(quick_dumbbell());
  ASSERT_GT(r.total_drops, 100u) << "scenario must congest the bottleneck";
  EXPECT_EQ(r.total_drops, 4968u);
  EXPECT_EQ(hex(digest(r)), "0xc39b345f6afab38a");
}

// The same dumbbell with every fault layer on the bottleneck, driven by the
// FaultInjector's pre-scheduled edges: Gilbert loss, corruption and
// duplication from t = 1 s, two 50 ms fiber-cut outages and three 20 ms
// dequeue stalls.
TEST(GoldenDigestTest, FaultedDumbbell) {
  core::DumbbellExperimentConfig cfg = quick_dumbbell();
  fault::FaultPlan& plan = cfg.fault;
  plan.seed = 41;
  plan.gilbert.push_back({"bottleneck.fwd", 0.01, 0.3, 1.0, 1.0, -1.0});
  plan.corrupt.push_back({"bottleneck.fwd", 0.005, 0.005, 1.0, -1.0});
  plan.flaps.push_back({"bottleneck.fwd", 2.0, 0.05, 0.7, 2, fault::DownPolicy::kDrop});
  plan.stalls.push_back({"bottleneck.fwd", 1.5, 0.02, 0.9, 3});
  const auto r = core::run_dumbbell_experiment(cfg);
  const fault::FaultCounters& c = r.fault_totals;
  ASSERT_GT(c.gilbert_drops, 0u);
  ASSERT_GT(c.flap_drops, 0u);
  ASSERT_GT(c.corrupted, 0u);
  ASSERT_GT(c.duplicated, 0u);
  ASSERT_EQ(c.down_transitions, 2u);
  ASSERT_EQ(c.stall_windows, 3u);
  EXPECT_EQ(c.gilbert_drops, 999u);
  EXPECT_EQ(c.flap_drops, 11u);
  EXPECT_EQ(r.total_drops, 2279u);
  EXPECT_EQ(hex(digest(r)), "0xba2339def17933fa");
}

// The sharded campaign at K = 2 with a Gilbert channel on the region 0 -> 1
// backbone. With two regions each region is its own shard, so the faulted
// link is the cut: the Gilbert verdicts are drawn on the sending side and the
// surviving packets cross through the boundary hop.
inet::ShardCampaignConfig quick_campaign() {
  inet::ShardCampaignConfig cfg;
  cfg.seed = 4242;
  cfg.shards = 2;
  cfg.regions = 2;
  cfg.sites = 48;
  cfg.flows = 32;
  cfg.onoff_per_region = 2;
  cfg.probe_interval = util::Duration::millis(5);
  cfg.duration = util::Duration::seconds(2);
  cfg.fault_backbone = true;
  cfg.gilbert_p = 0.05;
  cfg.gilbert_q = 0.3;
  return cfg;
}

TEST(GoldenDigestTest, ShardCampaignGilbertOnCut) {
  const auto r = inet::run_shard_campaign(quick_campaign());
  ASSERT_GT(r.epochs, 0u);
  ASSERT_GT(r.fault_totals.gilbert_drops, 0u);
  Fnv d;
  d.mix(r.digest);
  d.mix(r.probes_sent);
  d.mix(r.probes_received);
  mix_counters(d, r.fault_totals);
  EXPECT_EQ(r.fault_totals.gilbert_drops, 568u);
  EXPECT_EQ(r.probes_received, 12232u);
  EXPECT_EQ(hex(d.h), "0xa3b9e576c9543731");
}

// The observed quick dumbbell's interval CSV and Chrome trace, default
// sampling interval, ring capacity and trace kinds.
TEST(GoldenDigestTest, ObservedDumbbellArtifacts) {
  const auto dir = std::filesystem::temp_directory_path() / "lossburst_golden_dumbbell";
  std::filesystem::remove_all(dir);
  core::DumbbellExperimentConfig cfg = quick_dumbbell();
  cfg.obs.dir = dir.string();
  cfg.obs.prefix = "g_";
  const auto r = core::run_dumbbell_experiment(cfg);
  EXPECT_EQ(r.total_drops, 4968u);
  EXPECT_EQ(file_digest(dir / "g_intervals.csv"), "0xbf8afafe4660baaf");
  EXPECT_EQ(file_digest(dir / "g_trace.json"), "0xb6a4dbfac12e7d99");
  std::filesystem::remove_all(dir);
}

// The K = 2 campaign's per-shard interval CSVs and its multi-recorder trace
// (one trace_event process per shard).
TEST(GoldenDigestTest, ShardCampaignArtifacts) {
  const auto dir = std::filesystem::temp_directory_path() / "lossburst_golden_campaign";
  std::filesystem::remove_all(dir);
  inet::ShardCampaignConfig cfg = quick_campaign();
  cfg.obs.dir = dir.string();
  cfg.obs.prefix = "g_";
  const auto r = inet::run_shard_campaign(cfg);
  EXPECT_EQ(r.probes_received, 12232u);
  EXPECT_EQ(file_digest(dir / "g_s0_intervals.csv"), "0x3d06ef81622bce64");
  EXPECT_EQ(file_digest(dir / "g_s1_intervals.csv"), "0xc74906916bb000aa");
  EXPECT_EQ(file_digest(dir / "g_trace.json"), "0x58971727961d14d3");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lossburst

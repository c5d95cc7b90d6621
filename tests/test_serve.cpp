// Telemetry service end-to-end (DESIGN.md §13): the acceptance proofs.
//
//  - A faulted fig7 (competition) run and a K=4 sharded campaign must be
//    byte-identical with 0 vs 8 concurrent streaming clients attached over
//    real TCP sockets: clients observe the run, they never perturb it.
//  - A fault plan injected through the socket's control plane (applied at
//    the deterministic pre-run boundary) must reproduce exactly the probe
//    loss indicator — and so the fitted Gilbert p/q — of a cold run with
//    the same plan passed at construction.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/gilbert.hpp"
#include "core/competition_experiment.hpp"
#include "fault/plan.hpp"
#include "inet/shard_campaign.hpp"
#include "obs/live/publisher.hpp"
#include "serve/control.hpp"
#include "serve/scenario.hpp"
#include "serve/server.hpp"

namespace {

using namespace lossburst;
using util::Duration;

// ---------------------------------------------------------------------------
// Minimal blocking NDJSON socket client for the tests.

class SocketClient {
 public:
  explicit SocketClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{10, 0};  // a stuck read fails the test instead of hanging it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~SocketClient() {
    stop_drain();
    stop_flood();
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off, 0);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  /// Blocking read of the next full line ("" on EOF/timeout).
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Read until a line contains `needle`; returns it ("" if the stream ends
  /// first).
  std::string read_until(const std::string& needle) {
    for (;;) {
      std::string line = read_line();
      if (line.empty()) return {};
      if (line.find(needle) != std::string::npos) return line;
    }
  }

  /// Consume everything on a background thread until EOF (a subscribed
  /// streaming client at full drain speed).
  void start_drain() {
    drain_thread_ = std::thread([this] {
      char chunk[65536];
      for (;;) {
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0) return;
        bytes_drained_.fetch_add(static_cast<std::uint64_t>(n),
                                 std::memory_order_relaxed);
      }
    });
  }

  void stop_drain() {
    if (!drain_thread_.joinable()) return;
    ::shutdown(fd_, SHUT_RDWR);
    drain_thread_.join();
  }

  /// Send `bytes` of input with no newline on a background thread — a
  /// client whose line never ends. Stops early once the server hangs up.
  void start_flood(std::size_t bytes) {
    flood_thread_ = std::thread([this, bytes] {
      const std::string chunk(4096, 'x');
      for (std::size_t sent = 0; sent < bytes;) {
        const ssize_t n = ::send(fd_, chunk.data(), std::min(chunk.size(), bytes - sent),
                                 MSG_NOSIGNAL);
        if (n <= 0) return;
        sent += static_cast<std::size_t>(n);
      }
    });
  }

  void stop_flood() {
    if (!flood_thread_.joinable()) return;
    ::shutdown(fd_, SHUT_RDWR);  // unblocks a send the server stopped reading
    flood_thread_.join();
  }

  [[nodiscard]] std::uint64_t bytes_drained() const {
    return bytes_drained_.load(std::memory_order_relaxed);
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::thread drain_thread_;
  std::thread flood_thread_;
  std::atomic<std::uint64_t> bytes_drained_{0};
};

/// N clients that connect, confirm the hello, subscribe, and drain.
class ClientFleet {
 public:
  ClientFleet(std::uint16_t port, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      auto c = std::make_unique<SocketClient>(port);
      EXPECT_TRUE(c->connected()) << "client " << i << " failed to connect";
      EXPECT_NE(c->read_until("\"type\":\"hello\""), "");
      c->send_line(R"({"cmd":"subscribe"})");
      c->start_drain();
      clients_.push_back(std::move(c));
    }
  }

  void stop() {
    for (auto& c : clients_) c->stop_drain();
  }

  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (const auto& c : clients_) total += c->bytes_drained();
    return total;
  }

 private:
  std::vector<std::unique_ptr<SocketClient>> clients_;
};

fault::FaultPlan parse_plan_text(const std::string& text) {
  std::istringstream in(text);
  const fault::PlanParseResult r = fault::parse_plan(in);
  EXPECT_TRUE(r.ok) << r.error;
  return r.plan;
}

// ---------------------------------------------------------------------------
// Byte-identity: faulted fig7 with 0 vs 8 streaming clients.

core::CompetitionConfig small_faulted_fig7() {
  core::CompetitionConfig cfg;
  cfg.seed = 7;
  cfg.paced_flows = 2;
  cfg.window_flows = 2;
  cfg.noise_flows = 8;
  cfg.bottleneck_bps = 20'000'000;
  cfg.rtt = Duration::millis(50);
  cfg.duration = Duration::seconds(3);
  cfg.meter_interval = Duration::millis(500);
  cfg.fault = parse_plan_text(
      "seed 99\n"
      "gilbert bottleneck.fwd p=0.02 q=0.3\n");
  return cfg;
}

core::CompetitionResult run_fig7_with_clients(std::size_t n_clients,
                                              std::uint64_t* streamed_bytes) {
  obs::live::LivePublisher pub;
  serve::ControlQueue control;
  serve::TelemetryServer server(pub, control);
  server.start();

  ClientFleet fleet(server.port(), n_clients);

  core::CompetitionConfig cfg = small_faulted_fig7();
  cfg.obs.live = &pub;
  const core::CompetitionResult result = core::run_competition(cfg);

  server.stop();
  fleet.stop();
  if (streamed_bytes != nullptr) *streamed_bytes = fleet.total_bytes();
  return result;
}

void expect_identical(const core::CompetitionResult& a,
                      const core::CompetitionResult& b) {
  ASSERT_EQ(a.paced_mbps.size(), b.paced_mbps.size());
  for (std::size_t i = 0; i < a.paced_mbps.size(); ++i) {
    EXPECT_EQ(a.paced_mbps[i], b.paced_mbps[i]) << "paced interval " << i;
  }
  ASSERT_EQ(a.window_mbps.size(), b.window_mbps.size());
  for (std::size_t i = 0; i < a.window_mbps.size(); ++i) {
    EXPECT_EQ(a.window_mbps[i], b.window_mbps[i]) << "window interval " << i;
  }
  EXPECT_EQ(a.paced_mean_mbps, b.paced_mean_mbps);
  EXPECT_EQ(a.window_mean_mbps, b.window_mean_mbps);
  EXPECT_EQ(a.paced_deficit, b.paced_deficit);
  EXPECT_EQ(a.paced_cong_events_per_flow, b.paced_cong_events_per_flow);
  EXPECT_EQ(a.window_cong_events_per_flow, b.window_cong_events_per_flow);
  EXPECT_EQ(a.fault_totals.gilbert_drops, b.fault_totals.gilbert_drops);
  EXPECT_EQ(a.fault_totals.corrupted, b.fault_totals.corrupted);
}

TEST(ServeIdentityTest, FaultedFig7ByteIdenticalWith0Vs8Clients) {
  const core::CompetitionResult quiet = run_fig7_with_clients(0, nullptr);
  std::uint64_t streamed = 0;
  const core::CompetitionResult watched = run_fig7_with_clients(8, &streamed);

  // The watched run really streamed (all 8 clients saw telemetry)...
  EXPECT_GT(streamed, 0u);
  EXPECT_GT(quiet.fault_totals.gilbert_drops, 0u);  // the fault really fired
  // ...and observation changed nothing.
  expect_identical(quiet, watched);
}

// ---------------------------------------------------------------------------
// Byte-identity: K=4 sharded campaign with 0 vs 8 streaming clients.

inet::ShardCampaignConfig small_campaign() {
  inet::ShardCampaignConfig cfg;
  cfg.seed = 2006;
  cfg.shards = 4;
  cfg.regions = 8;
  cfg.sites = 120;
  cfg.flows = 32;
  cfg.duration = Duration::seconds(2);
  cfg.fault_backbone = true;
  return cfg;
}

std::uint64_t run_campaign_with_clients(std::size_t n_clients,
                                        std::uint64_t* streamed_bytes) {
  obs::live::LivePublisher pub;
  serve::ControlQueue control;
  serve::TelemetryServer server(pub, control);
  server.start();

  ClientFleet fleet(server.port(), n_clients);

  inet::ShardCampaignConfig cfg = small_campaign();
  cfg.obs.live = &pub;
  const inet::ShardCampaignResult result = inet::run_shard_campaign(cfg);

  server.stop();
  fleet.stop();
  if (streamed_bytes != nullptr) *streamed_bytes = fleet.total_bytes();
  return result.digest;
}

TEST(ServeIdentityTest, ShardCampaignK4ByteIdenticalWith0Vs8Clients) {
  // Reference digest with telemetry fully off: streaming must not move it.
  const std::uint64_t bare = inet::run_shard_campaign(small_campaign()).digest;

  const std::uint64_t quiet = run_campaign_with_clients(0, nullptr);
  std::uint64_t streamed = 0;
  const std::uint64_t watched = run_campaign_with_clients(8, &streamed);

  EXPECT_GT(streamed, 0u);
  EXPECT_EQ(quiet, bare);
  EXPECT_EQ(watched, bare);
}

// ---------------------------------------------------------------------------
// Control-plane parity: a plan injected through the socket reproduces the
// cold --fault-plan run exactly.

constexpr const char* kParityPlan =
    "seed 4242\n"
    "gilbert bottleneck.fwd p=0.03 q=0.25\n";

serve::ServeScenarioConfig parity_config() {
  serve::ServeScenarioConfig cfg;
  cfg.seed = 11;
  cfg.tcp_flows = 2;
  cfg.dynamic_slots = 2;
  cfg.bottleneck_bps = 5'000'000;
  cfg.duration = Duration::seconds(4);
  return cfg;
}

TEST(ServeControlTest, SocketInjectedPlanMatchesColdFaultPlanRun) {
  // Cold reference: the plan is attached at construction.
  std::vector<bool> cold_indicator;
  {
    obs::live::LivePublisher pub;
    serve::ControlQueue control;
    serve::ServeScenarioConfig cfg = parity_config();
    cfg.obs.live = &pub;
    cfg.fault = parse_plan_text(kParityPlan);
    serve::ServeScenario scen(cfg, &control);
    scen.run();
    cold_indicator = scen.probe_loss_indicator();
  }

  // Live run: same scenario, no cold plan; the plan arrives over the socket
  // and is applied at the t=0 control boundary before any event runs.
  std::vector<bool> live_indicator;
  std::uint64_t applied = 0;
  {
    obs::live::LivePublisher pub;
    serve::ControlQueue control;
    serve::ServeScenarioConfig cfg = parity_config();
    cfg.obs.live = &pub;
    serve::ServeScenario scen(cfg, &control);

    serve::TelemetryServer server(pub, control);
    server.start();
    SocketClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_NE(client.read_until("\"type\":\"hello\""), "");
    client.send_line(
        R"({"cmd":"inject-plan","plan":"seed 4242\ngilbert bottleneck.fwd p=0.03 q=0.25"})");
    ASSERT_NE(client.read_until("\"type\":\"ok\""), "")
        << "inject-plan was not acknowledged";

    scen.run();
    live_indicator = scen.probe_loss_indicator();
    applied = scen.control_commands_applied();

    // The asynchronous verdict confirms the injector attached cleanly.
    const std::string verdict = client.read_until("\"type\":\"control\"");
    ASSERT_NE(verdict, "");
    EXPECT_NE(verdict.find("ok: plan injected"), std::string::npos) << verdict;
    server.stop();
  }

  EXPECT_EQ(applied, 1u);
  ASSERT_FALSE(cold_indicator.empty());
  ASSERT_EQ(cold_indicator, live_indicator);  // sample-for-sample identical

  // And therefore the fitted burst parameters agree exactly.
  const auto cold_fit = analysis::fit_gilbert(cold_indicator);
  const auto live_fit = analysis::fit_gilbert(live_indicator);
  EXPECT_GT(cold_fit.loss_rate, 0.0);  // the injected channel really dropped
  EXPECT_EQ(cold_fit.p_good_to_bad, live_fit.p_good_to_bad);
  EXPECT_EQ(cold_fit.p_bad_to_good, live_fit.p_bad_to_good);
  EXPECT_EQ(cold_fit.loss_rate, live_fit.loss_rate);
}

// ---------------------------------------------------------------------------
// Slow-client isolation: a client that never reads loses only its own
// samples; the publisher and a healthy client are unaffected.

TEST(ServeControlTest, DeadClientLosesOnlyItsOwnSamples) {
  obs::live::LivePublisher pub;
  serve::ControlQueue control;
  serve::TelemetryServer server(pub, control);
  server.start();

  // One healthy draining client, one client that connects, subscribes, and
  // then never reads a byte.
  SocketClient healthy(server.port());
  ASSERT_TRUE(healthy.connected());
  ASSERT_NE(healthy.read_until("\"type\":\"hello\""), "");
  healthy.send_line(R"({"cmd":"subscribe"})");
  healthy.start_drain();

  SocketClient dead(server.port());
  ASSERT_TRUE(dead.connected());
  ASSERT_NE(dead.read_until("\"type\":\"hello\""), "");
  dead.send_line(R"({"cmd":"subscribe"})");
  // ...and stops reading entirely.

  serve::ServeScenarioConfig cfg = parity_config();
  cfg.duration = Duration::seconds(2);
  cfg.obs.live = &pub;
  serve::ServeScenario scen(cfg, &control);
  scen.run();

  // The simulation finished at full rate regardless of the dead client, and
  // the healthy client saw the stream.
  EXPECT_GT(pub.intervals_published(), 0u);
  server.stop();
  healthy.stop_drain();
  EXPECT_GT(healthy.bytes_drained(), 0u);
}

// ---------------------------------------------------------------------------
// Bounded input: a client that never sends a newline cannot grow the
// server's buffer past the line cap, and its drop leaves other clients served.

TEST(ServeControlTest, OverlongLineIsRejectedAndServerKeepsServing) {
  obs::live::LivePublisher pub;
  serve::ControlQueue control;
  serve::TelemetryServer server(pub, control);
  server.start();

  SocketClient flooder(server.port());
  ASSERT_TRUE(flooder.connected());
  ASSERT_NE(flooder.read_until("\"type\":\"hello\""), "");
  flooder.start_flood(std::size_t{1} << 20);  // 1 MiB, no newline
  const std::string err = flooder.read_until("\"type\":\"error\"");
  EXPECT_NE(err.find("line too long"), std::string::npos) << err;
  EXPECT_EQ(flooder.read_line(), "");  // then the server hangs up
  flooder.stop_flood();

  SocketClient next(server.port());
  ASSERT_TRUE(next.connected());
  ASSERT_NE(next.read_until("\"type\":\"hello\""), "");
  next.send_line(R"({"cmd":"stats"})");
  EXPECT_NE(next.read_until("\"type\":\"stats\""), "");
  server.stop();
}

}  // namespace

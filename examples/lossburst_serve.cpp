// lossburst_serve: run a faulted dumbbell while serving live telemetry and
// runtime control over NDJSON/TCP (DESIGN.md §13). Connect with
// tools/obs_client.py, or any line-oriented TCP client:
//
//   ./lossburst_serve --port 7787 --duration-s 60 &
//   python3 tools/obs_client.py --port 7787 watch
//
// With --wait-run the simulation is built but does not start until a client
// sends {"cmd":"run"} — the window in which control commands (inject-plan,
// add-flow, ...) land at the t = 0 boundary, making the run byte-identical
// to one configured cold with the same settings.
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

#include "analysis/gilbert.hpp"
#include "core/front_end.hpp"
#include "obs/live/publisher.hpp"
#include "serve/scenario.hpp"
#include "serve/server.hpp"

using namespace lossburst;

namespace {

const util::FlagSet kFlags = {
    {"port", "N", "listen port (default 0 = ephemeral, printed)"},
    {"seed", "N", "simulation seed (default 1)"},
    {"flows", "N", "persistent TCP flows (default 4)"},
    {"slots", "N", "dynamic add-flow slots (default 4)"},
    {"duration-s", "N", "simulated horizon in seconds (default 30)"},
    {"interval-ms", "N", "publish/sample interval (default 100)"},
    {"fault-plan", "F", "cold fault plan file applied at construction"},
    core::kObsDirFlag,
    {"wait-run", "", "hold the simulation until a client sends run"},
    {"help", "", "print this help"},
};

int run(const util::Flags& flags) {
  if (flags.flag("help")) {
    std::fputs(util::usage_text("lossburst_serve", flags.spec()).c_str(), stdout);
    return 0;
  }
  const auto port = static_cast<std::uint16_t>(flags.integer("port", 0, 0, 65'535));
  serve::ServeScenarioConfig cfg;
  cfg.seed = flags.integer("seed", cfg.seed, 0, std::numeric_limits<std::uint64_t>::max());
  cfg.tcp_flows = static_cast<std::size_t>(flags.integer("flows", cfg.tcp_flows, 0, 1024));
  cfg.dynamic_slots =
      static_cast<std::size_t>(flags.integer("slots", cfg.dynamic_slots, 0, 1024));
  cfg.duration = util::Duration::seconds(
      static_cast<std::int64_t>(flags.integer("duration-s", 30, 1, 86'400)));
  cfg.fault = core::fault_plan(flags);
  cfg.obs = core::obs_config(flags, "serve_");
  cfg.obs.interval = util::Duration::millis(
      static_cast<std::int64_t>(flags.integer("interval-ms", 100, 10, 60'000)));
  const bool wait_run = flags.flag("wait-run");

  obs::live::LivePublisher pub;
  serve::ControlQueue control;
  cfg.obs.live = &pub;

  serve::ServeScenario scenario(cfg, &control);
  serve::TelemetryServer server(pub, control, {.port = port});
  server.start();
  std::printf("lossburst_serve: listening on 127.0.0.1:%u (seed=%llu, %.0fs)\n",
              server.port(), static_cast<unsigned long long>(cfg.seed),
              cfg.duration.seconds());
  std::fflush(stdout);

  if (wait_run) {
    std::puts("waiting for {\"cmd\":\"run\"} ...");
    std::fflush(stdout);
    while (!server.run_requested() && !server.stop_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  if (!server.stop_requested()) scenario.run(server.stop_flag());

  std::printf("published %llu ring records over %llu intervals (%zu columns)\n",
              static_cast<unsigned long long>(pub.ring().published()),
              static_cast<unsigned long long>(pub.intervals_published()),
              pub.schema().size());
  const std::vector<bool> lost = scenario.probe_loss_indicator();
  std::size_t losses = 0;
  for (const bool b : lost) losses += b ? 1 : 0;
  std::printf("done: simulated %.1fs, probe %llu pkts (%zu lost), "
              "%llu control commands, %zu clients\n",
              scenario.sim().now().seconds(),
              static_cast<unsigned long long>(scenario.probe_packets_sent()),
              losses,
              static_cast<unsigned long long>(scenario.control_commands_applied()),
              server.clients_served());
  if (losses > 0) {
    const analysis::GilbertFit fit = analysis::fit_gilbert(lost);
    std::printf("probe gilbert fit: p=%.6f q=%.6f loss=%.6f\n",
                fit.p_good_to_bad, fit.p_bad_to_good, fit.loss_rate);
  }
  server.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, kFlags, run); }

// Line-delimited-JSON telemetry server (DESIGN.md §13).
//
// One accept thread plus one thread per client. Each client thread owns a
// private SnapshotRing cursor and drains the LivePublisher at its own pace:
// a slow or dead client's blocking write stalls only its own thread, the
// ring overwrites what it failed to read (counted in its cursor), and the
// simulation thread never learns the client exists. Commands arrive as one
// JSON object per line; streamed telemetry leaves the same way. A client
// whose pending line grows past 64 KiB without a newline gets one error line
// and is disconnected.
//
// Protocol (all lines are single JSON objects):
//   -> {"cmd":"subscribe"}                  start streaming snapshots
//   -> {"cmd":"resolution","level":N}       only stream roll-up levels >= N
//   -> {"cmd":"topflows","enabled":false}   gate top-flow records
//   -> {"cmd":"schema"}                     reply with the frozen column set
//   -> {"cmd":"inject-plan","plan":"..."}   fault-plan text ('\n'-escaped)
//   -> {"cmd":"clear-fault"}                drop the runtime fault layer
//   -> {"cmd":"add-flow","slot":N}          start dynamic flow slot N
//   -> {"cmd":"remove-flow","slot":N}       stop dynamic flow slot N
//   -> {"cmd":"set-queue","link":"...","capacity":N}
//   -> {"cmd":"run"}                        release a --wait-run simulation
//   -> {"cmd":"stop"}                       ask the simulation to end early
//   -> {"cmd":"stats"}                      reply with this client's counters
//   <- {"type":"metric"|"topflow"|"trace"|"trace_drops"|"mark"|
//       "schema"|"control"|"ok"|"error"|"stats"|"hello", ...}
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/live/publisher.hpp"
#include "serve/control.hpp"

namespace lossburst::serve {

class TelemetryServer {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  };

  TelemetryServer(obs::live::LivePublisher& pub, ControlQueue& control);
  TelemetryServer(obs::live::LivePublisher& pub, ControlQueue& control,
                  Options opt);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Bind, listen on 127.0.0.1, and start the accept thread. Throws
  /// std::runtime_error on socket failure.
  void start();
  /// Close the listener and every client, join all threads. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Set once any client sends {"cmd":"run"} / {"cmd":"stop"}.
  [[nodiscard]] bool run_requested() const {
    return run_requested_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const volatile bool* stop_flag() const { return &stop_flag_; }
  [[nodiscard]] std::size_t clients_served() const {
    return clients_served_.load(std::memory_order_acquire);
  }

 private:
  struct Client {
    int fd = -1;
    std::uint64_t id = 0;
    std::thread thread;
    std::atomic<bool> done{false};  ///< loop exited, final flush written
  };

  void accept_loop();
  void client_loop(Client* c);
  void handle_line(Client& c, const std::string& line, std::string& out,
                   obs::live::SnapshotRing::Cursor& cursor, bool& subscribed,
                   std::uint32_t& min_level, bool& want_topflows);
  void format_rec(const obs::live::SnapshotRec& rec, std::uint64_t ring_dropped,
                  std::string& out) const;

  obs::live::LivePublisher& pub_;
  ControlQueue& control_;
  Options opt_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::mutex clients_mu_;
  std::atomic<std::uint64_t> next_client_id_{1};
  std::atomic<std::size_t> clients_served_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> run_requested_{false};
  std::atomic<bool> stop_requested_{false};
  volatile bool stop_flag_ = false;  ///< plain mirror for the sim loop poll
};

}  // namespace lossburst::serve

#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace lossburst::serve {

using obs::live::SnapKind;
using obs::live::SnapshotRec;
using obs::live::SnapshotRing;

namespace {

// ---- minimal JSON helpers (this protocol only: flat objects, string and
// unsigned-integer fields). Hand-rolled on purpose — no new dependencies.

void json_escape(const std::string& in, std::string& out) {
  for (char ch : in) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

bool json_field_str(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\"";
  std::size_t p = line.find(needle);
  if (p == std::string::npos) return false;
  p = line.find(':', p + needle.size());
  if (p == std::string::npos) return false;
  p = line.find('"', p + 1);
  if (p == std::string::npos) return false;
  out.clear();
  for (++p; p < line.size(); ++p) {
    const char ch = line[p];
    if (ch == '"') return true;
    if (ch == '\\' && p + 1 < line.size()) {
      const char esc = line[++p];
      switch (esc) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        default: out += esc;  // \" \\ \/ and anything else: literal
      }
    } else {
      out += ch;
    }
  }
  return false;  // unterminated string
}

bool json_field_u64(const std::string& line, const char* key, std::uint64_t& out) {
  const std::string needle = std::string("\"") + key + "\"";
  std::size_t p = line.find(needle);
  if (p == std::string::npos) return false;
  p = line.find(':', p + needle.size());
  if (p == std::string::npos) return false;
  ++p;
  while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
  if (p >= line.size() || line[p] < '0' || line[p] > '9') return false;
  out = 0;
  while (p < line.size() && line[p] >= '0' && line[p] <= '9') {
    out = out * 10 + static_cast<std::uint64_t>(line[p] - '0');
    ++p;
  }
  return true;
}

bool json_field_bool(const std::string& line, const char* key, bool fallback) {
  const std::string needle = std::string("\"") + key + "\"";
  std::size_t p = line.find(needle);
  if (p == std::string::npos) return fallback;
  p = line.find(':', p + needle.size());
  if (p == std::string::npos) return fallback;
  ++p;
  while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
  if (line.compare(p, 4, "true") == 0) return true;
  if (line.compare(p, 5, "false") == 0) return false;
  return fallback;
}

void append_num(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

// Longest pending (newline-free) input a client may buffer: the bound on
// per-client memory for bytes from outside the process.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 16;

bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TelemetryServer::TelemetryServer(obs::live::LivePublisher& pub,
                                 ControlQueue& control)
    : TelemetryServer(pub, control, Options{}) {}

TelemetryServer::TelemetryServer(obs::live::LivePublisher& pub,
                                 ControlQueue& control, Options opt)
    : pub_(pub), control_(control), opt_(opt) {}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opt_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: bind/listen failed");
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void TelemetryServer::stop() {
  if (!running_.exchange(false)) {
    // start() never ran (or stop() already did); nothing to join.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  const std::lock_guard<std::mutex> lock(clients_mu_);
  // Grace window: a short run can finish inside one client poll tick, so
  // give each thread a moment to notice running_ == false and write its
  // final flush before the socket is shut under it. A client stuck in a
  // blocking send (peer not reading) just burns the window; the shutdown
  // below unblocks it and it loses only its own tail.
  for (int spin = 0; spin < 100; ++spin) {
    bool all_done = true;
    for (const auto& c : clients_) {
      if (!c->done.load(std::memory_order_acquire)) all_done = false;
    }
    if (all_done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& c : clients_) {
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);  // unblocks a stuck send
    if (c->thread.joinable()) c->thread.join();
    if (c->fd >= 0) {
      ::close(c->fd);
      c->fd = -1;
    }
  }
  clients_.clear();
}

void TelemetryServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (!running_.load(std::memory_order_acquire)) break;
    if (pr <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto client = std::make_unique<Client>();
    client->fd = fd;
    client->id = next_client_id_.fetch_add(1, std::memory_order_relaxed);
    Client* cp = client.get();
    clients_served_.fetch_add(1, std::memory_order_release);
    {
      const std::lock_guard<std::mutex> lock(clients_mu_);
      clients_.push_back(std::move(client));
    }
    cp->thread = std::thread([this, cp] { client_loop(cp); });
  }
}

void TelemetryServer::client_loop(Client* c) {
  std::string inbuf;
  std::size_t scanned = 0;  // prefix of inbuf already searched for '\n'
  std::string out = "{\"type\":\"hello\",\"service\":\"lossburst\",\"version\":1}\n";
  SnapshotRing::Cursor cursor = pub_.make_cursor();
  bool subscribed = false;
  std::uint32_t min_level = 0;
  bool want_topflows = true;
  std::vector<std::string> results;
  if (!write_all(c->fd, out.data(), out.size())) {
    ::shutdown(c->fd, SHUT_RDWR);
    c->done.store(true, std::memory_order_release);
    return;
  }
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{c->fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 20);
    if (pr > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char buf[4096];
      const ssize_t n = ::recv(c->fd, buf, sizeof buf, 0);
      if (n <= 0) break;  // peer closed
      inbuf.append(buf, static_cast<std::size_t>(n));
    }
    out.clear();
    std::size_t start = 0;
    for (std::size_t nl = inbuf.find('\n', scanned); nl != std::string::npos;
         nl = inbuf.find('\n', start)) {
      const std::string line = inbuf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) {
        handle_line(*c, line, out, cursor, subscribed, min_level, want_topflows);
      }
    }
    inbuf.erase(0, start);
    scanned = inbuf.size();
    if (inbuf.size() > kMaxLineBytes) {
      // A line this long is not a command; stop buffering it. The client
      // gets the replies already due plus one error, then the hang-up.
      out += "{\"type\":\"error\",\"msg\":\"line too long; disconnecting\"}\n";
      write_all(c->fd, out.data(), out.size());
      ::shutdown(c->fd, SHUT_RDWR);
      c->done.store(true, std::memory_order_release);
      return;
    }

    results.clear();
    control_.drain_results(c->id, results);
    for (const std::string& r : results) {
      out += "{\"type\":\"control\",\"msg\":\"";
      json_escape(r, out);
      out += "\"}\n";
    }

    if (subscribed && pub_.frozen()) {
      SnapshotRec rec;
      while (pub_.ring().poll(cursor, rec) == SnapshotRing::Poll::kOk) {
        const auto kind = static_cast<SnapKind>(rec.kind);
        if (kind == SnapKind::kMetric && rec.aux < min_level) continue;
        if (kind == SnapKind::kTopFlow && !want_topflows) continue;
        format_rec(rec, cursor.dropped, out);
        if (out.size() >= (1u << 16)) {  // bound the batch; flush and refill
          if (!write_all(c->fd, out.data(), out.size())) {
            ::shutdown(c->fd, SHUT_RDWR);
            c->done.store(true, std::memory_order_release);
            return;
          }
          out.clear();
        }
      }
    }
    if (!out.empty() && !write_all(c->fd, out.data(), out.size())) break;
  }
  // Final flush: the run may have finished (and the server begun stopping)
  // between two of this client's polls — drain what is left so a live
  // reader sees the tail of a short run. Best-effort: if stop() already
  // shut this socket down, the write fails and the records are dropped,
  // which costs only this client its samples.
  out.clear();
  results.clear();
  control_.drain_results(c->id, results);
  for (const std::string& r : results) {
    out += "{\"type\":\"control\",\"msg\":\"";
    json_escape(r, out);
    out += "\"}\n";
  }
  if (subscribed && pub_.frozen()) {
    SnapshotRec rec;
    while (pub_.ring().poll(cursor, rec) == SnapshotRing::Poll::kOk) {
      const auto kind = static_cast<SnapKind>(rec.kind);
      if (kind == SnapKind::kMetric && rec.aux < min_level) continue;
      if (kind == SnapKind::kTopFlow && !want_topflows) continue;
      format_rec(rec, cursor.dropped, out);
      if (out.size() >= (1u << 16)) {
        if (!write_all(c->fd, out.data(), out.size())) {
          ::shutdown(c->fd, SHUT_RDWR);
          c->done.store(true, std::memory_order_release);
          return;
        }
        out.clear();
      }
    }
  }
  if (!out.empty()) write_all(c->fd, out.data(), out.size());
  ::shutdown(c->fd, SHUT_RDWR);
  c->done.store(true, std::memory_order_release);
}

void TelemetryServer::handle_line(Client& c, const std::string& line,
                                  std::string& out, SnapshotRing::Cursor& cursor,
                                  bool& subscribed, std::uint32_t& min_level,
                                  bool& want_topflows) {
  std::string cmd;
  if (!json_field_str(line, "cmd", cmd)) {
    out += "{\"type\":\"error\",\"msg\":\"missing cmd\"}\n";
    return;
  }
  const auto ack = [&out, &cmd] {
    out += "{\"type\":\"ok\",\"cmd\":\"";
    json_escape(cmd, out);
    out += "\"}\n";
  };
  const auto fail = [&out, &cmd](const char* msg) {
    out += "{\"type\":\"error\",\"cmd\":\"";
    json_escape(cmd, out);
    out += "\",\"msg\":\"";
    out += msg;
    out += "\"}\n";
  };

  if (cmd == "subscribe") {
    if (!subscribed) cursor = pub_.make_cursor();
    subscribed = true;
    ack();
  } else if (cmd == "resolution") {
    std::uint64_t level = 0;
    if (!json_field_u64(line, "level", level) ||
        level >= obs::live::Decimator::kLevels) {
      fail("level must be 0..3");
      return;
    }
    min_level = static_cast<std::uint32_t>(level);
    ack();
  } else if (cmd == "topflows") {
    want_topflows = json_field_bool(line, "enabled", true);
    ack();
  } else if (cmd == "schema") {
    if (!pub_.frozen()) {
      fail("schema not frozen yet (simulation not started)");
      return;
    }
    out += "{\"type\":\"schema\",\"interval_ns\":";
    append_num(out, static_cast<double>(pub_.interval_ns()));
    out += ",\"columns\":[";
    const auto& schema = pub_.schema();
    for (std::size_t i = 0; i < schema.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"id\":";
      append_num(out, static_cast<double>(i));
      out += ",\"name\":\"";
      json_escape(schema[i].name, out);
      out += "\",\"kind\":\"";
      out += schema[i].kind == obs::MetricKind::kCounter ? "counter" : "gauge";
      out += "\"}";
    }
    out += "],\"fec\":[";
    // Repair-health stanza: the column ids of the streaming-FEC endpoints
    // (DESIGN.md §15), so clients can watch decode/repair health without
    // string-matching the whole schema.
    bool first_fec = true;
    for (std::size_t i = 0; i < schema.size(); ++i) {
      if (schema[i].name.rfind("fec.", 0) != 0) continue;
      if (!first_fec) out += ',';
      first_fec = false;
      append_num(out, static_cast<double>(i));
    }
    out += "]}\n";
  } else if (cmd == "inject-plan") {
    ControlCommand cc;
    cc.verb = ControlCommand::Verb::kInjectPlan;
    cc.client = c.id;
    if (!json_field_str(line, "plan", cc.arg)) {
      fail("missing plan");
      return;
    }
    control_.post(std::move(cc));
    ack();
  } else if (cmd == "clear-fault") {
    ControlCommand cc;
    cc.verb = ControlCommand::Verb::kClearFault;
    cc.client = c.id;
    control_.post(std::move(cc));
    ack();
  } else if (cmd == "add-flow" || cmd == "remove-flow") {
    ControlCommand cc;
    cc.verb = cmd == "add-flow" ? ControlCommand::Verb::kAddFlow
                                : ControlCommand::Verb::kRemoveFlow;
    cc.client = c.id;
    if (!json_field_u64(line, "slot", cc.value)) {
      fail("missing slot");
      return;
    }
    control_.post(std::move(cc));
    ack();
  } else if (cmd == "set-queue") {
    ControlCommand cc;
    cc.verb = ControlCommand::Verb::kSetQueue;
    cc.client = c.id;
    if (!json_field_str(line, "link", cc.arg) ||
        !json_field_u64(line, "capacity", cc.value)) {
      fail("need link and capacity");
      return;
    }
    control_.post(std::move(cc));
    ack();
  } else if (cmd == "run") {
    run_requested_.store(true, std::memory_order_release);
    ack();
  } else if (cmd == "stop") {
    stop_requested_.store(true, std::memory_order_release);
    stop_flag_ = true;
    ack();
  } else if (cmd == "stats") {
    out += "{\"type\":\"stats\",\"dropped\":";
    append_num(out, static_cast<double>(cursor.dropped));
    out += ",\"intervals\":";
    append_num(out, static_cast<double>(pub_.intervals_published()));
    out += ",\"published\":";
    append_num(out, static_cast<double>(pub_.ring().published()));
    out += "}\n";
  } else {
    fail("unknown cmd");
  }
}

void TelemetryServer::format_rec(const SnapshotRec& rec, std::uint64_t ring_dropped,
                                 std::string& out) const {
  const double t_s = static_cast<double>(rec.t_ns) * 1e-9;
  switch (static_cast<SnapKind>(rec.kind)) {
    case SnapKind::kMetric: {
      out += "{\"type\":\"metric\",\"t\":";
      append_num(out, t_s);
      out += ",\"id\":";
      append_num(out, rec.id);
      const auto& schema = pub_.schema();
      if (rec.id < schema.size()) {
        out += ",\"name\":\"";
        json_escape(schema[rec.id].name, out);
        out += "\"";
      }
      out += ",\"level\":";
      append_num(out, static_cast<double>(rec.aux));
      out += ",\"min\":";
      append_num(out, rec.v0);
      out += ",\"mean\":";
      append_num(out, rec.v1);
      out += ",\"max\":";
      append_num(out, rec.v2);
      out += ",\"last\":";
      append_num(out, rec.v3);
      out += "}\n";
      break;
    }
    case SnapKind::kTopFlow:
      out += "{\"type\":\"topflow\",\"t\":";
      append_num(out, t_s);
      out += ",\"rank\":";
      append_num(out, rec.id);
      out += ",\"flow\":";
      append_num(out, static_cast<double>(rec.aux));
      out += ",\"bytes\":";
      append_num(out, rec.v0);
      out += ",\"retx\":";
      append_num(out, rec.v1);
      out += ",\"losses\":";
      append_num(out, rec.v2);
      out += ",\"bps\":";
      append_num(out, rec.v3 * 8.0);
      out += "}\n";
      break;
    case SnapKind::kTraceKinds:
      out += "{\"type\":\"trace\",\"t\":";
      append_num(out, t_s);
      out += ",\"kind\":";
      append_num(out, rec.id);
      out += ",\"count\":";
      append_num(out, rec.v0);
      out += "}\n";
      break;
    case SnapKind::kTraceDrops:
      out += "{\"type\":\"trace_drops\",\"t\":";
      append_num(out, t_s);
      out += ",\"lost\":";
      append_num(out, rec.v0);
      out += "}\n";
      break;
    case SnapKind::kMark:
      out += "{\"type\":\"mark\",\"t\":";
      append_num(out, t_s);
      out += ",\"interval\":";
      append_num(out, static_cast<double>(rec.aux));
      out += ",\"len_s\":";
      append_num(out, rec.v0);
      out += ",\"client_dropped\":";
      append_num(out, static_cast<double>(ring_dropped));
      out += "}\n";
      break;
  }
}

}  // namespace lossburst::serve

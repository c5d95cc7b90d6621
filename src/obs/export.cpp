#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "obs/tags.hpp"
#include "util/csv.hpp"

namespace lossburst::obs {

namespace {

// All numeric output goes through snprintf with explicit formats: the byte
// stream must not depend on locale or default ostream precision.
std::string fmt_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string fmt_time_s(util::TimePoint t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%09lld",
                static_cast<long long>(t.ns() / 1'000'000'000),
                static_cast<long long>(t.ns() % 1'000'000'000));
  return buf;
}

// Simulated nanoseconds → trace_event microseconds, printed exactly.
void put_ts(std::ostream& out, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out << buf;
}

void put_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

IntervalSeries::IntervalSeries(const Registry& registry) : registry_(&registry) {
  names_.reserve(registry.size());
  kinds_.reserve(registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    names_.push_back(registry.name(i));
    kinds_.push_back(registry.kind(i));
  }
}

void IntervalSeries::reserve(std::size_t rows) {
  times_.reserve(rows);
  values_.reserve(rows * names_.size());
}

void IntervalSeries::sample(util::TimePoint t) {
  times_.push_back(t);
  for (std::size_t i = 0; i < names_.size(); ++i) values_.push_back(registry_->read(i));
}

void IntervalSeries::write_csv(std::ostream& out) const {
  // Fields are pre-formatted with snprintf (see fmt_value) so the emitted
  // bytes never depend on stream precision/locale; CsvWriter handles the
  // row framing and RFC 4180 escaping of metric names.
  util::CsvWriter csv(out);
  const std::size_t n = names_.size();
  csv.row_append("time_s");
  for (const std::string& name : names_) csv.row_append(name);
  csv.end_row();
  for (std::size_t r = 0; r < times_.size(); ++r) {
    csv.row_append(fmt_time_s(times_[r]));
    for (std::size_t c = 0; c < n; ++c) {
      double v = values_[r * n + c];
      if (kinds_[c] == MetricKind::kCounter && r > 0) v -= values_[(r - 1) * n + c];
      csv.row_append(fmt_value(v));
    }
    csv.end_row();
  }
}

namespace {

// One recorder's events under one trace_event pid. `first` and `next_id`
// are shared across shards so the comma framing and span ids stay globally
// unique in the multi-recorder output.
void write_trace_process(std::ostream& out, const FlightRecorder& rec, int pid,
                         const std::string& process_name, bool& first,
                         std::uint64_t& next_id) {
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  sep();
  out << R"({"name":"process_name","ph":"M","pid":)" << pid
      << R"(,"tid":0,"args":{"name":)";
  put_json_string(out, process_name);
  out << "}}";
  const std::vector<std::string>& tracks = rec.track_names();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    sep();
    out << R"({"name":"thread_name","ph":"M","pid":)" << pid << R"(,"tid":)" << i
        << R"(,"args":{"name":)";
    put_json_string(out, tracks[i]);
    out << "}}";
  }

  // Open async spans: (track, packet id) → span id. std::map so that the
  // end-of-trace close pass iterates in a deterministic order.
  std::map<std::pair<std::uint16_t, std::uint64_t>, std::uint64_t> open;
  std::map<std::pair<std::uint16_t, std::uint64_t>, std::int64_t> open_t;
  std::int64_t last_ns = 0;

  auto span_name = [](std::uint64_t a) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "f%" PRIu32 "#%" PRIu32, packet_flow(a), packet_seq(a));
    return std::string(buf);
  };
  auto put_async = [&](char ph, std::uint16_t track, std::uint64_t a, std::uint64_t id,
                       std::int64_t ns) {
    sep();
    out << R"({"cat":"q","name":")" << span_name(a) << R"(","ph":")" << ph
        << R"(","id":)" << id << R"(,"pid":)" << pid << R"(,"tid":)" << track
        << R"(,"ts":)";
    put_ts(out, ns);
    out << '}';
  };
  // `arg_key`, when given, adds one numeric "args" entry.
  auto put_instant = [&](const char* name, std::uint16_t track, std::int64_t ns,
                         const std::string& arg_name, const char* arg_key = nullptr,
                         std::uint64_t arg_value = 0) {
    sep();
    out << R"({"cat":"pkt","name":")" << name;
    if (!arg_name.empty()) out << ' ' << arg_name;
    out << R"(","ph":"i","s":"t","pid":)" << pid << R"(,"tid":)" << track
        << R"(,"ts":)";
    put_ts(out, ns);
    if (arg_key != nullptr) out << R"(,"args":{")" << arg_key << R"(":)" << arg_value << '}';
    out << '}';
  };

  for (std::size_t i = 0; i < rec.size(); ++i) {
    const TraceRecord& r = rec.at(i);
    last_ns = r.t_ns;
    switch (static_cast<RecordKind>(r.kind)) {
      case RecordKind::kPktEnqueue: {
        const std::uint64_t id = next_id++;
        open[{r.track, r.a}] = id;
        open_t[{r.track, r.a}] = r.t_ns;
        put_async('b', r.track, r.a, id, r.t_ns);
        break;
      }
      case RecordKind::kPktDequeue: {
        auto it = open.find({r.track, r.a});
        if (it != open.end()) {
          put_async('e', r.track, r.a, it->second, r.t_ns);
          open.erase(it);
          open_t.erase({r.track, r.a});
        }
        break;
      }
      case RecordKind::kPktDrop:
        put_instant("drop", r.track, r.t_ns, span_name(r.a));
        break;
      case RecordKind::kPktMark:
        put_instant("mark", r.track, r.t_ns, span_name(r.a));
        break;
      case RecordKind::kPktDeliver:
        put_instant("deliver", r.track, r.t_ns, span_name(r.a));
        break;
      case RecordKind::kCwnd: {
        double v;
        static_assert(sizeof(v) == sizeof(r.a));
        std::memcpy(&v, &r.a, sizeof(v));
        sep();
        out << R"({"cat":"cwnd","name":")" << tracks[r.track] << R"( cwnd","ph":"C","pid":)"
            << pid << R"(,"ts":)";
        put_ts(out, r.t_ns);
        out << R"(,"args":{"cwnd":)" << fmt_value(v) << "}}";
        break;
      }
      case RecordKind::kFaultDrop:
        put_instant("fault.drop", r.track, r.t_ns, span_name(r.a));
        break;
      case RecordKind::kFaultEvent:
        put_instant("fault.event", r.track, r.t_ns, "");
        break;
      case RecordKind::kFecRepair:
        put_instant("fec.repair", r.track, r.t_ns, span_name(r.a), "window_len", r.b);
        break;
      case RecordKind::kFecDecode:
        put_instant("fec.decode", r.track, r.t_ns, span_name(r.a), "rank", r.b);
        break;
      case RecordKind::kEventDispatch:
        put_instant(tag_name(static_cast<EventTag>(r.a)).data(), r.track, r.t_ns, "");
        break;
      case RecordKind::kKindCount:
        break;
    }
  }

  // Packets still queued when the run ended: close their spans at the last
  // timestamp so every "b" has a matching "e".
  for (const auto& [key, id] : open) {
    const std::int64_t ns = last_ns > open_t[key] ? last_ns : open_t[key];
    put_async('e', key.first, key.second, id, ns);
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, const FlightRecorder& rec) {
  out << "[\n";
  bool first = true;
  std::uint64_t next_id = 1;
  write_trace_process(out, rec, 1, "lossburst", first, next_id);
  out << "\n]\n";
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<const FlightRecorder*>& shards) {
  out << "[\n";
  bool first = true;
  std::uint64_t next_id = 1;
  for (std::size_t k = 0; k < shards.size(); ++k) {
    write_trace_process(out, *shards[k], static_cast<int>(k) + 1,
                        "shard " + std::to_string(k), first, next_id);
  }
  out << "\n]\n";
}

void export_artifacts(const ObsConfig& cfg, const Telemetry& telemetry,
                      const IntervalSeries& series) {
  if (!cfg.enabled()) return;
  std::filesystem::create_directories(cfg.dir);
  const std::string base = cfg.dir + "/" + cfg.prefix;
  {
    std::ofstream f(base + "intervals.csv");
    series.write_csv(f);
  }
  {
    std::ofstream f(base + "trace.json");
    write_chrome_trace(f, telemetry.recorder());
  }
  if (const LoopProfiler* prof = telemetry.profiler()) {
    std::ofstream f(base + "profile.txt");
    prof->report(f);
  }
}

}  // namespace lossburst::obs

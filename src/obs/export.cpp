#include "obs/export.hpp"

#include <charconv>
#include <concepts>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "obs/format.hpp"
#include "obs/tags.hpp"
#include "util/csv.hpp"

namespace lossburst::obs {

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
  // CsvWriter frames the header and RFC 4180-escapes the metric names. Data
  // rows are numbers only, formatted straight into one reused row buffer
  // and handed to the stream with a single write per row.
  util::CsvWriter csv(out);
  const std::size_t n = names_.size();
  csv.row_append("time_s");
  for (const std::string& name : names_) csv.row_append(name);
  csv.end_row();
  std::string row(2 * kNumberChars + n * (kNumberChars + 1) + 1, '\0');
  for (std::size_t r = 0; r < times_.size(); ++r) {
    char* p = put_fixed(row.data(), times_[r].ns(), 9);
    const double* cur = values_.data() + r * n;
    const double* prev = r > 0 ? cur - n : nullptr;
    for (std::size_t c = 0; c < n; ++c) {
      double v = cur[c];
      if (prev != nullptr && kinds_[c] == MetricKind::kCounter) v -= prev[c];
      *p++ = ',';
      p = put_number(p, v);
    }
    *p++ = '\n';
    out.write(row.data(), p - row.data());
  }
}

namespace {

// Typed trace fragments for TraceBuffer::put.
struct Ts {  // simulated nanoseconds as trace_event microseconds, exactly
  std::int64_t ns;
};
struct SpanName {  // "f<flow>#<seq>" of a packed packet id
  std::uint64_t a;
};
struct JsonString {  // quoted, with '"' and '\' escaped
  std::string_view s;
};

// Trace JSON is appended to one buffer that goes to the stream whenever it
// passes kTraceChunk bytes at an event boundary, so an export holds about
// 16 KiB, never a whole file. A 64 KiB chunk ran no faster and added its
// size to the observed dumbbell's peak RSS.
constexpr std::size_t kTraceChunk = 16 * 1024;

class TraceBuffer {
 public:
  explicit TraceBuffer(std::ostream& out) : out_(out) { buf_.reserve(2 * kTraceChunk); }

  template <typename... Parts>
  void put(const Parts&... parts) {
    (put_one(parts), ...);
  }
  /// Call once per event: writes the buffer out when it is past a chunk.
  void end_event() {
    if (buf_.size() >= kTraceChunk) flush();
  }
  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  void put_one(std::string_view s) { buf_.append(s); }
  template <std::integral T>
  void put_one(T v) {
    if constexpr (std::is_same_v<T, char>) {
      buf_.push_back(v);
    } else {
      char tmp[kNumberChars];
      buf_.append(tmp, std::to_chars(tmp, tmp + sizeof tmp, v).ptr);
    }
  }
  void put_one(double v) {
    char tmp[kNumberChars];
    buf_.append(tmp, put_number(tmp, v));
  }
  void put_one(Ts t) {
    char tmp[2 * kNumberChars];
    buf_.append(tmp, put_fixed(tmp, t.ns, 3));
  }
  void put_one(SpanName n) { put('f', packet_flow(n.a), '#', packet_seq(n.a)); }
  void put_one(JsonString j) {
    buf_.push_back('"');
    for (char c : j.s) {
      if (c == '"' || c == '\\') buf_.push_back('\\');
      buf_.push_back(c);
    }
    buf_.push_back('"');
  }

  std::ostream& out_;
  std::string buf_;
};

// One recorder's events under one trace_event pid. `first` and `next_id`
// are shared across shards so the comma framing and span ids stay globally
// unique in the multi-recorder output.
void write_trace_process(TraceBuffer& out, const FlightRecorder& rec, int pid,
                         std::string_view process_name, bool& first,
                         std::uint64_t& next_id) {
  auto sep = [&] {
    out.end_event();
    if (!first) out.put(",\n");
    first = false;
  };

  sep();
  out.put(R"({"name":"process_name","ph":"M","pid":)", pid, R"(,"tid":0,"args":{"name":)",
          JsonString{process_name}, "}}");
  const std::vector<std::string>& tracks = rec.track_names();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    sep();
    out.put(R"({"name":"thread_name","ph":"M","pid":)", pid, R"(,"tid":)", i,
            R"(,"args":{"name":)", JsonString{tracks[i]}, "}}");
  }

  // Open async spans by (track, packet id). std::map so that the
  // end-of-trace close pass iterates in a deterministic order.
  struct OpenSpan {
    std::uint64_t id;
    std::int64_t t_ns;
  };
  std::map<std::pair<std::uint16_t, std::uint64_t>, OpenSpan> open;
  std::int64_t last_ns = 0;

  auto put_async = [&](char ph, std::uint16_t track, std::uint64_t a, std::uint64_t id,
                       std::int64_t ns) {
    sep();
    out.put(R"({"cat":"q","name":")", SpanName{a}, R"(","ph":")", ph, R"(","id":)", id,
            R"(,"pid":)", pid, R"(,"tid":)", track, R"(,"ts":)", Ts{ns}, '}');
  };
  // `packet` appends the span name of r.a to the event name; `arg_key`,
  // when given, adds r.b as the one numeric "args" entry.
  auto put_instant = [&](std::string_view name, const TraceRecord& r, bool packet,
                         std::string_view arg_key = {}) {
    sep();
    out.put(R"({"cat":"pkt","name":")", name);
    if (packet) out.put(' ', SpanName{r.a});
    out.put(R"(","ph":"i","s":"t","pid":)", pid, R"(,"tid":)", r.track, R"(,"ts":)",
            Ts{r.t_ns});
    if (!arg_key.empty()) out.put(R"(,"args":{")", arg_key, R"(":)", r.b, '}');
    out.put('}');
  };

  for (std::size_t i = 0; i < rec.size(); ++i) {
    const TraceRecord& r = rec.at(i);
    last_ns = r.t_ns;
    switch (static_cast<RecordKind>(r.kind)) {
      case RecordKind::kPktEnqueue: {
        const std::uint64_t id = next_id++;
        open.insert_or_assign({r.track, r.a}, OpenSpan{id, r.t_ns});
        put_async('b', r.track, r.a, id, r.t_ns);
        break;
      }
      case RecordKind::kPktDequeue: {
        auto it = open.find({r.track, r.a});
        if (it != open.end()) {
          put_async('e', r.track, r.a, it->second.id, r.t_ns);
          open.erase(it);
        }
        break;
      }
      case RecordKind::kPktDrop:
        put_instant("drop", r, true);
        break;
      case RecordKind::kPktMark:
        put_instant("mark", r, true);
        break;
      case RecordKind::kPktDeliver:
        put_instant("deliver", r, true);
        break;
      case RecordKind::kCwnd: {
        double v;
        static_assert(sizeof(v) == sizeof(r.a));
        std::memcpy(&v, &r.a, sizeof(v));
        sep();
        out.put(R"({"cat":"cwnd","name":")", tracks[r.track], R"( cwnd","ph":"C","pid":)", pid,
                R"(,"ts":)", Ts{r.t_ns}, R"(,"args":{"cwnd":)", v, "}}");
        break;
      }
      case RecordKind::kFaultDrop:
        put_instant("fault.drop", r, true);
        break;
      case RecordKind::kFaultEvent:
        put_instant("fault.event", r, false);
        break;
      case RecordKind::kFecRepair:
        put_instant("fec.repair", r, true, "window_len");
        break;
      case RecordKind::kFecDecode:
        put_instant("fec.decode", r, true, "rank");
        break;
      case RecordKind::kEventDispatch:
        put_instant(tag_name(static_cast<EventTag>(r.a)), r, false);
        break;
      case RecordKind::kKindCount:
        break;
    }
  }

  // Packets still queued when the run ended: close their spans at the last
  // timestamp so every "b" has a matching "e".
  for (const auto& [key, span] : open) {
    put_async('e', key.first, key.second, span.id, last_ns > span.t_ns ? last_ns : span.t_ns);
  }
}

// The JSON array around one trace_event process per recorder; process k + 1
// is named name(k).
template <typename Name>
void write_trace(std::ostream& out, const std::vector<const FlightRecorder*>& recs, Name name) {
  TraceBuffer buf(out);
  buf.put("[\n");
  bool first = true;
  std::uint64_t next_id = 1;
  for (std::size_t k = 0; k < recs.size(); ++k) {
    write_trace_process(buf, *recs[k], static_cast<int>(k) + 1, name(k), first, next_id);
  }
  buf.put("\n]\n");
  buf.flush();
}

}  // namespace

void write_chrome_trace(std::ostream& out, const FlightRecorder& rec) {
  write_trace(out, {&rec}, [](std::size_t) { return std::string("lossburst"); });
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<const FlightRecorder*>& shards) {
  write_trace(out, shards, [](std::size_t k) { return "shard " + std::to_string(k); });
}

void write_artifact(const std::filesystem::path& path,
                    const std::function<void(std::ostream&)>& write) {
  std::ofstream f(path);
  write(f);
  f.close();
  if (!f) throw std::runtime_error("cannot write " + path.string());
}

void export_artifacts(const ObsConfig& cfg, const Telemetry& telemetry,
                      const IntervalSeries& series) {
  if (!cfg.enabled()) return;
  std::filesystem::create_directories(cfg.dir);
  const std::string base = cfg.dir + "/" + cfg.prefix;
  write_artifact(base + "intervals.csv", [&](std::ostream& f) { series.write_csv(f); });
  write_artifact(base + "trace.json",
                 [&](std::ostream& f) { write_chrome_trace(f, telemetry.recorder()); });
  if (const LoopProfiler* prof = telemetry.profiler()) {
    write_artifact(base + "profile.txt", [&](std::ostream& f) { prof->report(f); });
  }
}

}  // namespace lossburst::obs

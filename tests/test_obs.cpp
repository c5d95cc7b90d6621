// Observability (DESIGN.md §8): metric registry, flight recorder, exporters,
// event-loop profiler, and the determinism contract — identically-seeded
// runs must produce byte-identical CSV/JSON artifacts, including when runs
// execute concurrently on the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/dumbbell_experiment.hpp"
#include "net/queue.hpp"
#include "net/trace.hpp"
#include "obs/export.hpp"
#include "obs/format.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tags.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_ring.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lossburst;
using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, RegistersReadsAndPreservesOrder) {
  obs::Registry reg;
  std::uint64_t hits = 3;
  double level = 0.5;
  int owner_a = 0, owner_b = 0;
  reg.add_counter("a.hits", &hits, &owner_a);
  reg.add(obs::MetricKind::kGauge, "b.level",
          [](const void* c) { return *static_cast<const double*>(c); }, &level, &owner_b);

  ASSERT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(0), "a.hits");
  EXPECT_EQ(reg.kind(0), obs::MetricKind::kCounter);
  EXPECT_EQ(reg.read(0), 3.0);
  EXPECT_EQ(reg.name(1), "b.level");
  EXPECT_EQ(reg.kind(1), obs::MetricKind::kGauge);
  EXPECT_EQ(reg.read(1), 0.5);

  hits = 10;
  level = -1.25;
  EXPECT_EQ(reg.read(0), 10.0);
  EXPECT_EQ(reg.read(1), -1.25);
}

TEST(RegistryTest, ReleaseRemovesOnlyTheOwnersEntries) {
  obs::Registry reg;
  std::uint64_t a = 1, b = 2, c = 3;
  int owner_x = 0, owner_y = 0;
  reg.add_counter("x.first", &a, &owner_x);
  reg.add_counter("y.only", &b, &owner_y);
  reg.add_counter("x.second", &c, &owner_x);

  reg.release(&owner_x);
  ASSERT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.name(0), "y.only");
  EXPECT_EQ(reg.read(0), 2.0);

  reg.release(&owner_x);  // releasing again is a no-op
  EXPECT_EQ(reg.size(), 1u);
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorderTest, DisabledUntilConfiguredAndMaskGates) {
  obs::FlightRecorder rec;
  EXPECT_FALSE(rec.enabled());
  EXPECT_FALSE(rec.should(obs::RecordKind::kPktDrop));
  rec.set_enabled(true);  // no ring allocated: stays off
  EXPECT_FALSE(rec.enabled());

  rec.configure(8, obs::kind_bit(obs::RecordKind::kPktDrop));
  EXPECT_TRUE(rec.enabled());
  EXPECT_TRUE(rec.should(obs::RecordKind::kPktDrop));
  EXPECT_FALSE(rec.should(obs::RecordKind::kPktEnqueue));

  rec.set_enabled(false);
  EXPECT_FALSE(rec.should(obs::RecordKind::kPktDrop));
}

TEST(FlightRecorderTest, WrapDropsOldestKeepsNewest) {
  obs::FlightRecorder rec;
  rec.configure(4, obs::kAllKinds);
  for (std::int64_t i = 0; i < 10; ++i) {
    rec.record(obs::RecordKind::kPktEnqueue, i, 0, static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_records(), 10u);
  EXPECT_EQ(rec.dropped_records(), 6u);
  // Survivors are the newest four, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.at(i).t_ns, static_cast<std::int64_t>(6 + i));
  }
}

TEST(FlightRecorderTest, PacketPackingRoundTrips) {
  const std::uint64_t a = obs::pack_packet(0xabcdu, 0x1234'5678u);
  EXPECT_EQ(obs::packet_flow(a), 0xabcdu);
  EXPECT_EQ(obs::packet_seq(a), 0x1234'5678u);
}

// ---------------------------------------------------------------------------
// Interval series / CSV

TEST(IntervalSeriesTest, CountersExportAsDeltasGaugesRaw) {
  obs::Registry reg;
  std::uint64_t events = 5;
  double depth = 2.5;
  int owner = 0;
  reg.add_counter("events", &events, &owner);
  reg.add(obs::MetricKind::kGauge, "depth",
          [](const void* c) { return *static_cast<const double*>(c); }, &depth, &owner);

  obs::IntervalSeries series(reg);
  series.reserve(4);
  series.sample(TimePoint(100'000'000));
  events = 12;
  depth = 1.0;
  series.sample(TimePoint(200'000'000));

  EXPECT_EQ(series.rows(), 2u);
  EXPECT_EQ(series.columns(), 2u);
  EXPECT_EQ(series.last_time(), TimePoint(200'000'000));
  EXPECT_EQ(series.value(1, 0), 12.0);  // raw accessor is undifferenced

  std::ostringstream out;
  series.write_csv(out);
  EXPECT_EQ(out.str(),
            "time_s,events,depth\n"
            "0.100000000,5,2.5\n"
            "0.200000000,7,1\n");  // counter delta 12-5, gauge raw
}

// ---------------------------------------------------------------------------
// Number formatting: the exporters' formatter against the printf formats it
// stands for. The artifact digests in test_golden.cpp cover what the dumbbell
// happens to emit; this covers every double and time the formatter can meet.

TEST(ExportFormatTest, NumberFieldsMatchPrintf) {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  auto expect_same = [&](const char* want, const char* begin, const char* end,
                         const char* what) {
    ++checked;
    if (std::string_view(begin, static_cast<std::size_t>(end - begin)) == want) return;
    if (++mismatches <= 10) {
      ADD_FAILURE() << what << ": printf \"" << want << "\" vs \""
                    << std::string_view(begin, static_cast<std::size_t>(end - begin)) << '"';
    }
  };
  auto check_number = [&](double v) {
    char want[64];
    std::snprintf(want, sizeof want, "%.10g", v);
    char got[obs::kNumberChars];
    expect_same(want, got, obs::put_number(got, v), "%.10g");
  };
  auto check_time = [&](std::int64_t ns) {
    char want[64];
    char got[2 * obs::kNumberChars];
    std::snprintf(want, sizeof want, "%lld.%09lld", static_cast<long long>(ns / 1'000'000'000),
                  static_cast<long long>(ns % 1'000'000'000));
    expect_same(want, got, obs::put_fixed(got, ns, 9), "%lld.%09lld");
    std::snprintf(want, sizeof want, "%lld.%03lld", static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    expect_same(want, got, obs::put_fixed(got, ns, 3), "%lld.%03lld");
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v :
       {0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1, 1.0 / 3.0, nan, -nan, kInf, -kInf, 1e10, -1e10,
        std::nextafter(1e10, 0.0), std::nextafter(1e10, kInf), std::nextafter(-1e10, 0.0),
        std::nextafter(-1e10, -kInf), 9999999999.0, -9999999999.0, 9999999999.5,
        9999999999.4, 99999999995.0, 1e-4, 1e-5, 0.00012345678905, 123456789.0,
        1234567890.5, 2147483648.0, 4294967296.0, 9007199254740992.0, DBL_MIN, -DBL_MIN,
        DBL_TRUE_MIN, -DBL_TRUE_MIN, std::nextafter(DBL_MIN, 0.0), DBL_MAX, -DBL_MAX,
        DBL_EPSILON}) {
    check_number(v);
  }
  // Per draw: a random bit pattern, an integer in +-2e10 and a dyadic
  // fraction (an integer over a power of two).
  util::Rng rng(20260412);
  for (int i = 0; i < 400'000; ++i) {
    check_number(std::bit_cast<double>(rng.next()));
    check_number(static_cast<double>(rng.uniform_int(-20'000'000'000, 20'000'000'000)));
    const int shift = static_cast<int>(rng.uniform_int(1, 40));
    check_number(std::ldexp(static_cast<double>(rng.uniform_int(-(1 << 30), 1 << 30)), -shift));
  }

  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (const std::int64_t ns :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{7}, std::int64_t{999}, std::int64_t{1000},
        std::int64_t{1001}, std::int64_t{999'999'999}, std::int64_t{1'000'000'000},
        std::int64_t{1'000'000'001}, std::int64_t{10'000'000'000'000}, kMax, std::int64_t{-1},
        std::int64_t{-999}, std::int64_t{-1000}, std::int64_t{-999'999'999},
        std::int64_t{-1'000'000'001}, kMin}) {
    check_time(ns);
  }
  for (int i = 0; i < 200'000; ++i) check_time(rng.uniform_int(0, 10'000'000'000'000));

  EXPECT_EQ(mismatches, 0u) << "of " << checked;
  EXPECT_GE(checked, 1'600'000u);
}

// ---------------------------------------------------------------------------
// Chrome trace exporter

struct ChromeEvent {
  std::string ph;
  std::string id;
  double ts = 0.0;
};

// Line-oriented parse of the exporter's output (one event object per line).
std::vector<ChromeEvent> parse_chrome_trace(const std::string& json) {
  std::vector<ChromeEvent> events;
  std::istringstream in(json);
  std::string line;
  auto field = [](const std::string& l, const std::string& key) -> std::string {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = l.find(needle);
    if (at == std::string::npos) return {};
    std::size_t begin = at + needle.size();
    std::size_t end = begin;
    if (l[begin] == '"') {
      ++begin;
      end = l.find('"', begin);
    } else {
      end = l.find_first_of(",}", begin);
    }
    return l.substr(begin, end - begin);
  };
  while (std::getline(in, line)) {
    if (line.find("\"ph\"") == std::string::npos) continue;
    ChromeEvent e;
    e.ph = field(line, "ph");
    e.id = field(line, "id");
    const std::string ts = field(line, "ts");
    if (!ts.empty()) e.ts = std::stod(ts);
    events.push_back(std::move(e));
  }
  return events;
}

// Every async begin must have exactly one matching end, later or equal in
// time; nothing may remain open.
void expect_spans_paired(const std::vector<ChromeEvent>& events) {
  std::map<std::string, double> open;
  for (const auto& e : events) {
    if (e.ph == "b") {
      ASSERT_FALSE(e.id.empty());
      ASSERT_EQ(open.count(e.id), 0u) << "duplicate open id " << e.id;
      open.emplace(e.id, e.ts);
    } else if (e.ph == "e") {
      auto it = open.find(e.id);
      ASSERT_NE(it, open.end()) << "end without begin, id " << e.id;
      EXPECT_GE(e.ts, it->second) << "negative span duration, id " << e.id;
      open.erase(it);
    }
  }
  EXPECT_TRUE(open.empty()) << open.size() << " spans left open";
}

TEST(ChromeTraceTest, EmitsSpansInstantsAndMetadata) {
  obs::FlightRecorder rec;
  rec.configure(16, obs::kAllKinds);
  const std::uint16_t tq = rec.register_track("q0");
  rec.record(obs::RecordKind::kPktEnqueue, 1'000, tq, obs::pack_packet(1, 5), 1);
  rec.record(obs::RecordKind::kPktDequeue, 2'500, tq, obs::pack_packet(1, 5), 0);
  rec.record(obs::RecordKind::kPktDrop, 3'000, tq, obs::pack_packet(2, 9), 1);

  std::ostringstream out;
  obs::write_chrome_trace(out, rec);
  const std::string json = out.str();

  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"q0\""), std::string::npos);
  EXPECT_NE(json.find("\"drop f2#9\""), std::string::npos);
  // Timestamps are microseconds with fixed sub-us digits: 1000 ns -> 1.000.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.500"), std::string::npos);

  const auto events = parse_chrome_trace(json);
  expect_spans_paired(events);
}

TEST(ChromeTraceTest, UnmatchedOpensAreClosedAtEnd) {
  obs::FlightRecorder rec;
  rec.configure(16, obs::kAllKinds);
  const std::uint16_t tq = rec.register_track("q0");
  rec.record(obs::RecordKind::kPktEnqueue, 1'000, tq, obs::pack_packet(1, 1), 1);
  rec.record(obs::RecordKind::kPktEnqueue, 2'000, tq, obs::pack_packet(1, 2), 2);
  rec.record(obs::RecordKind::kPktDequeue, 3'000, tq, obs::pack_packet(1, 1), 1);
  // seq 2 never dequeues (still queued when the run ended).

  std::ostringstream out;
  obs::write_chrome_trace(out, rec);
  expect_spans_paired(parse_chrome_trace(out.str()));
}

TEST(ChromeTraceTest, EveryRecordKindReachesTheTrace) {
  // One record of every kind, each at its own timestamp; every timestamp
  // must show up in the export. A kind the exporter forgets emits nothing
  // and fails here by number.
  constexpr auto kKinds = static_cast<std::size_t>(obs::RecordKind::kKindCount);
  obs::FlightRecorder rec;
  rec.configure(2 * kKinds, obs::kAllKinds);
  const std::uint16_t track = rec.register_track("t0");
  const std::uint64_t pkt = obs::pack_packet(3, 7);
  auto ts_ns = [](std::size_t k) { return static_cast<std::int64_t>(1'000 * (k + 1) + 7); };
  // A dequeue only exports when it closes a span an earlier enqueue opened.
  static_assert(obs::RecordKind::kPktEnqueue < obs::RecordKind::kPktDequeue);
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<obs::RecordKind>(k);
    // kEventDispatch carries an EventTag in `a`; 0 is a valid tag.
    const std::uint64_t a = kind == obs::RecordKind::kEventDispatch ? 0 : pkt;
    rec.record(kind, ts_ns(k), track, a, 4);
  }

  std::ostringstream out;
  obs::write_chrome_trace(out, rec);
  const std::string json = out.str();
  std::map<double, int> seen;
  for (const ChromeEvent& e : parse_chrome_trace(json)) ++seen[e.ts];
  for (std::size_t k = 0; k < kKinds; ++k) {
    EXPECT_EQ(seen.count(static_cast<double>(ts_ns(k)) / 1000.0), 1u)
        << "RecordKind " << k << " is missing from the Chrome trace";
  }
  EXPECT_NE(json.find(R"("fec.repair f3#7","ph":"i")"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"window_len":4})"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"rank":4})"), std::string::npos);
  expect_spans_paired(parse_chrome_trace(json));
}

// ---------------------------------------------------------------------------
// Profiler

TEST(LoopProfilerTest, AccumulatesPerTag) {
  obs::LoopProfiler prof;
  prof.record(obs::EventTag::kLinkTx, 100);
  prof.record(obs::EventTag::kLinkTx, 300);
  prof.record(obs::EventTag::kTcpRto, 50);

  EXPECT_EQ(prof.count(obs::EventTag::kLinkTx), 2u);
  EXPECT_EQ(prof.total_ns(obs::EventTag::kLinkTx), 400u);
  EXPECT_EQ(prof.count(obs::EventTag::kTcpRto), 1u);
  EXPECT_EQ(prof.total_count(), 3u);
  EXPECT_EQ(prof.histogram(obs::EventTag::kLinkTx).total(), 2u);

  std::ostringstream out;
  prof.report(out);
  EXPECT_NE(out.str().find("link.tx"), std::string::npos);
  EXPECT_NE(out.str().find("tcp.rto"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine counters + dispatch tags

TEST(EventQueueObsTest, CountsScheduledFiredCancelledAndHighWater) {
  sim::EventQueue q;
  auto h1 = q.schedule(TimePoint(10), [] {});
  auto h2 = q.schedule(TimePoint(20), [] {});
  q.schedule(TimePoint(30), [] {}, obs::EventTag::kLinkTx);
  (void)h1;
  EXPECT_EQ(q.scheduled_count(), 3u);
  EXPECT_EQ(q.heap_high_water(), 3u);

  h2.cancel();
  EXPECT_EQ(q.cancelled_count(), 1u);

  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(q.fired_count(), 2u);
  EXPECT_EQ(q.last_dispatch_tag(), obs::EventTag::kLinkTx);
  EXPECT_EQ(q.heap_high_water(), 3u);
}

TEST(SimulatorObsTest, TelemetryRegistersEngineMetricsAndProfiles) {
  sim::Simulator sim(1);
  obs::Telemetry telemetry;
  telemetry.enable_profiler();
  sim.set_telemetry(&telemetry);

  ASSERT_GT(telemetry.registry().size(), 0u);
  EXPECT_EQ(telemetry.registry().name(0), "engine.scheduled");

  int fired = 0;
  sim.in(Duration::millis(1), [&] { ++fired; }, obs::EventTag::kTcpRto);
  sim.in(Duration::millis(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(telemetry.profiler()->count(obs::EventTag::kTcpRto), 1u);
  EXPECT_EQ(telemetry.profiler()->count(obs::EventTag::kGeneric), 1u);

  sim.set_telemetry(nullptr);
  EXPECT_EQ(telemetry.registry().size(), 0u);
}

// ---------------------------------------------------------------------------
// Queue tracer mark occupancy (the LossTrace::on_mark fix)

TEST(QueueTracerTest, MarkRecordsRealQueueOccupancy) {
  sim::Simulator sim(2);
  net::PacketPool pool;
  net::PersistentEcnQueue q(2, Duration::millis(10));
  q.attach(&sim, &pool);
  net::LossTrace trace;
  q.set_tracer(&trace);

  net::Packet pkt;
  pkt.size_bytes = 1000;
  pkt.ecn_capable = true;
  pkt.flow = 1;
  // Fill to capacity, then overflow: the drop opens the marking window.
  ASSERT_TRUE(q.enqueue(pool.materialize(pkt)));
  ASSERT_TRUE(q.enqueue(pool.materialize(pkt)));
  ASSERT_FALSE(q.enqueue(pool.materialize(pkt)));
  ASSERT_EQ(trace.drops().size(), 1u);
  EXPECT_EQ(trace.drops()[0].queue_len, 2u);

  // Drain one, then enqueue inside the window: the packet is CE-marked and
  // the tracer must see the occupancy the arriving packet found (one packet
  // already queued), not zero.
  pool.release(q.dequeue());
  ASSERT_TRUE(q.enqueue(pool.materialize(pkt)));
  ASSERT_EQ(trace.marks().size(), 1u);
  EXPECT_EQ(trace.marks()[0].queue_len, 1u);
}

// ---------------------------------------------------------------------------
// Logger gating

TEST(LogMacroTest, DisabledLevelSkipsArgumentEvaluation) {
  const util::LogLevel saved = util::global_log_level();
  std::ostringstream out;
  util::Logger log("obs", out);

  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("payload");
  };

  util::set_global_log_level(util::LogLevel::kWarn);
  LOSSBURST_LOG_DEBUG(log, "dropped ", expensive());
  EXPECT_EQ(evaluations, 0);  // the macro guard short-circuits the call
  EXPECT_TRUE(out.str().empty());

  util::set_global_log_level(util::LogLevel::kDebug);
  LOSSBURST_LOG_DEBUG(log, "kept ", expensive());
  EXPECT_EQ(evaluations, 1);
  EXPECT_NE(out.str().find("kept payload"), std::string::npos);

  util::set_global_log_level(saved);
}

// ---------------------------------------------------------------------------
// End-to-end artifact export + determinism

core::DumbbellExperimentConfig small_obs_config(const std::string& dir) {
  core::DumbbellExperimentConfig cfg;
  cfg.seed = 21;
  cfg.tcp_flows = 2;
  cfg.noise_flows = 5;
  cfg.duration = Duration::seconds(2);
  cfg.warmup = Duration::millis(500);
  cfg.obs.dir = dir;
  cfg.obs.prefix = "t_";
  cfg.obs.interval = Duration::millis(100);
  cfg.obs.trace_capacity = 4096;
  return cfg;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ObsExportTest, RunWritesWellFormedArtifacts) {
  const auto dir = std::filesystem::temp_directory_path() / "lossburst_obs_export";
  std::filesystem::remove_all(dir);
  const auto result = core::run_dumbbell_experiment(small_obs_config(dir.string()));
  EXPECT_GT(result.bottleneck_packets, 0u);

  const std::string csv = slurp(dir / "t_intervals.csv");
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(csv.rfind("time_s,engine.scheduled", 0), 0u);  // header leads
  // ~25 sample rows for 2.5 s at 100 ms plus the final sample.
  const auto rows = std::count(csv.begin(), csv.end(), '\n') - 1;
  EXPECT_GE(rows, 25);

  const std::string json = slurp(dir / "t_trace.json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  const auto events = parse_chrome_trace(json);
  EXPECT_GT(events.size(), 100u);
  expect_spans_paired(events);
  std::filesystem::remove_all(dir);
}

TEST(ObsExportTest, UnwritableArtifactThrowsNamingThePath) {
  // A directory squatting on the CSV's path: the stream cannot open, and
  // the run must say so rather than return as if the artifact were there.
  const auto dir = std::filesystem::temp_directory_path() / "lossburst_obs_unwritable";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "t_intervals.csv");
  try {
    core::run_dumbbell_experiment(small_obs_config(dir.string()));
    ADD_FAILURE() << "export into an unwritable path returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find((dir / "t_intervals.csv").string()), std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(ObsExportTest, SameSeedRunsAreByteIdenticalEvenOnThreadPool) {
  const auto base = std::filesystem::temp_directory_path() / "lossburst_obs_det";
  std::filesystem::remove_all(base);

  // Reference run, serial.
  core::run_dumbbell_experiment(small_obs_config((base / "serial").string()));

  // Two more identically-seeded runs, concurrently on the pool.
  util::ThreadPool tp;
  tp.parallel_for(2, [&](std::size_t i) {
    core::run_dumbbell_experiment(
        small_obs_config((base / ("pool" + std::to_string(i))).string()));
  });

  const std::string ref_csv = slurp(base / "serial" / "t_intervals.csv");
  const std::string ref_json = slurp(base / "serial" / "t_trace.json");
  ASSERT_FALSE(ref_csv.empty());
  ASSERT_FALSE(ref_json.empty());
  for (int i = 0; i < 2; ++i) {
    const auto dir = base / ("pool" + std::to_string(i));
    EXPECT_EQ(slurp(dir / "t_intervals.csv"), ref_csv) << dir;
    EXPECT_EQ(slurp(dir / "t_trace.json"), ref_json) << dir;
  }
  std::filesystem::remove_all(base);
}

}  // namespace

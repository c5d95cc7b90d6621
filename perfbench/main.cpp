// perfbench: end-to-end host-time benchmark of the lossburst simulator.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scale full|quick] [--out-dir DIR]
//
// Closed loop: each iteration is one batch simulation that starts when the
// previous one ends. --trace 0 reports the end-to-end metrics (run_s,
// setup_s, cpu_s, peak_rss_mb); --trace 1 runs the same workload with the
// loop profiler on and reports per-layer metrics. Every iteration is checked
// against pinned and cross-run digests. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}; the recorded spans go to
// <out-dir>/spans-<workload>-s<seed>-t<trace>.jsonl.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  bool have_seed = false;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  Scale scale = Scale::kFull;
  std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--scale full|quick] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.have_seed = true;
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--scale") {
      if (v != "full" && v != "quick") usage("--scale is full or quick");
      a.scale = v == "quick" ? Scale::kQuick : Scale::kFull;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-iteration correctness: the run's own invariant, the pinned outputs of
/// the default seed, and equality with the reference digest. The reference
/// is the run's first iteration: obs off for dumbbell_observed and K = 1 for
/// the campaign, so obs-on and K = 4 iterations are compared against them.
class Checker {
 public:
  Checker(const Workload& w, bool pinned) : w_(w), pinned_(pinned) {}

  void check(const Outcome& o, const char* what) {
    ++attempted_;
    std::string err = o.defect;
    if (err.empty() && pinned_ && (o.digest != w_.pinned_digest || o.drops != w_.pinned_drops)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "digest %016" PRIx64 " drops %" PRIu64 " != pinned %016" PRIx64
                    " drops %" PRIu64,
                    o.digest, o.drops, w_.pinned_digest, w_.pinned_drops);
      err = buf;
    }
    if (err.empty() && has_ref_ && o.digest != ref_) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "digest %016" PRIx64 " != reference %016" PRIx64,
                    o.digest, ref_);
      err = buf;
    }
    if (!has_ref_) {
      has_ref_ = true;
      ref_ = o.digest;
      drops_ = o.drops;
    }
    if (!err.empty()) {
      ++failed_;
      std::fprintf(stderr, "perfbench: %s iteration failed: %s\n", what, err.c_str());
    }
  }

  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] std::uint64_t digest() const { return ref_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  const Workload& w_;
  bool pinned_;
  bool has_ref_ = false;
  std::uint64_t ref_ = 0;
  std::uint64_t drops_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double tag_s(const Outcome& o, const char* tag) {
  const auto it = o.tags.find(tag);
  return it == o.tags.end() ? 0.0 : it->second.total_s;
}

double tag_count(const Outcome& o, const char* tag) {
  const auto it = o.tags.find(tag);
  return it == o.tags.end() ? 0.0 : static_cast<double>(it->second.count);
}

double counter(const Outcome& o, const char* name) {
  const auto it = o.counters.find(name);
  return it == o.counters.end() ? 0.0 : it->second;
}

/// Layer metrics of one traced iteration. Names absent from a workload's
/// layers read 0 (see README: "not exercised").
std::vector<Metric> layer_metrics(const Outcome& o, const SpanLog& log) {
  const double run_s = log.at(o.run_span).seconds();
  double tagged_s = 0.0;
  double events = 0.0;
  double link_units = 0.0;
  for (const auto& [name, t] : o.tags) {
    tagged_s += t.total_s;
    events += static_cast<double>(t.count);
    link_units += static_cast<double>(t.units);
  }
  if (o.tags.empty()) events = counter(o, "sim.events");
  const auto batch = o.tags.find("link.batch");
  const double batch_units =
      batch == o.tags.end() ? 0.0 : static_cast<double>(batch->second.units);
  const double repairs = counter(o, "fec.repairs");
  return {
      {"sim.events", events, "count"},
      {"sim.self_s", o.tags.empty() ? 0.0 : run_s - tagged_s, "s"},
      {"net.link_tx_s", tag_s(o, "link.tx"), "s"},
      {"net.link_arrive_s", tag_s(o, "link.arrive"), "s"},
      {"net.link_batch_s", tag_s(o, "link.batch"), "s"},
      {"net.link_pkts", link_units, "count"},
      {"net.batch_share", ratio(batch_units, link_units), "ratio"},
      {"net.drops", counter(o, "net.drops"), "count"},
      {"net.bottleneck_pkts", counter(o, "net.bottleneck_pkts"), "count"},
      {"tcp.timer_s", tag_s(o, "tcp.rto") + tag_s(o, "tcp.delack") + tag_s(o, "tcp.pacing"),
       "s"},
      {"tcp.timer_events",
       tag_count(o, "tcp.rto") + tag_count(o, "tcp.delack") + tag_count(o, "tcp.pacing"),
       "count"},
      {"tcp.source_s", tag_s(o, "source"), "s"},
      {"tcp.source_events", tag_count(o, "source"), "count"},
      {"fault.events", tag_count(o, "fault"), "count"},
      {"fault.s", tag_s(o, "fault"), "s"},
      {"fault.gilbert_drops", counter(o, "fault.gilbert_drops"), "count"},
      {"fault.flap_drops", counter(o, "fault.flap_drops"), "count"},
      {"fec.source_s", tag_s(o, "fec.source"), "s"},
      {"fec.feedback_s", tag_s(o, "fec.feedback"), "s"},
      {"fec.repairs", repairs, "count"},
      {"fec.retx", counter(o, "fec.retx"), "count"},
      {"fec.decoded", counter(o, "fec.decoded"), "count"},
      {"fec.decode_yield", ratio(counter(o, "fec.decoded"), repairs), "ratio"},
      {"fec.overhead", counter(o, "fec.overhead"), "ratio"},
      {"obs.sample_s", tag_s(o, "periodic"), "s"},
      {"obs.samples", tag_count(o, "periodic"), "count"},
      {"obs.artifact_bytes", counter(o, "obs.artifact_bytes"), "bytes"},
      {"analysis.fit_s", log.child_seconds(o.run_span, "analysis.fit_gilbert"), "s"},
      {"analysis.episodes_s", log.child_seconds(o.run_span, "analysis.episode_stats"), "s"},
      {"analysis.dispersion_s", log.child_seconds(o.run_span, "analysis.dispersion_curve"),
       "s"},
  };
}

void print_result(const Checker& chk, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              chk.failed() == 0 && chk.attempted() > 0 ? "true" : "false", chk.attempted(),
              chk.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const auto& all = workloads();
  const auto wit = std::find_if(all.begin(), all.end(),
                                [&](const Workload& w) { return w.name == args.workload; });
  if (wit == all.end()) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wit;
  const std::uint64_t seed = args.have_seed ? args.seed : w.default_seed;

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool invariants = LOSSBURST_INVARIANTS_ENABLED != 0;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: this is a '%s' build (invariants %s); timings must come "
                 "from -DCMAKE_BUILD_TYPE=Release.\n",
                 build_type.c_str(), invariants ? "on" : "off");
    return 3;
  }

  const fs::path out_dir(args.out_dir);
  const fs::path scratch = out_dir / ("scratch-" + std::to_string(getpid()));
  fs::create_directories(scratch / "obs");

  SpanLog log;
  Checker chk(w, args.scale == Scale::kFull && seed == w.default_seed);
  const bool observed = w.name == "dumbbell_observed";
  const bool sharded = w.name == "campaign_sharded";
  int iteration = 0;
  auto call = [&](Mode mode) {
    return run_once(w, mode, seed, args.scale, scratch.string(), log, iteration++);
  };

  // Reference (and warm-up) run: caches fill and lazy set-up finishes before
  // anything is timed. For the observed dumbbell the reference is the same
  // scenario with obs off, so every observed run must match the plain one.
  chk.check(call(observed ? Mode::kBypass : Mode::kPlain), "reference");
  if (observed) chk.check(call(Mode::kPlain), "warm-up");

  std::vector<Metric> metrics;
  std::vector<double> run_s;
  // A run ends when the next round, taking as long as the last one, would
  // overrun --seconds, so a run never outlasts its budget by a round.
  const std::int64_t t0 = wall_ns();
  std::int64_t round_start = t0;
  const auto room_for_another = [&] {
    const std::int64_t now = wall_ns();
    const bool room = 2 * now - round_start - t0 <= static_cast<std::int64_t>(args.seconds * 1e9);
    round_start = now;
    return room;
  };
  if (args.trace == 0) {
    std::vector<double> setup_s;
    setup_s.reserve(1 << 16);
    std::vector<double> cpu_s;
    do {
      const Outcome o = call(Mode::kPlain);
      chk.check(o, "timed");
      run_s.push_back(log.at(o.run_span).seconds());
      cpu_s.push_back(log.at(o.run_span).cpu_s);
      // Set-up: the same call with zero simulated duration, about 40 ms of
      // it after every iteration, so its median covers the same stretch of
      // host time as run_s does rather than one brief moment. The batch is
      // one span; the spans of its calls are dropped, so the log (and the
      // peak RSS) does not grow with the number of repeats.
      const std::int64_t s0 = wall_ns();
      const int batch = log.open("setup_batch", -1, iteration);
      const std::size_t mark = log.size();
      do {
        setup_s.push_back(log.at(call(Mode::kSetup).run_span).seconds());
        log.truncate(mark);
      } while (setup_s.size() < 10 || wall_ns() - s0 < 40'000'000);
      log.close(batch);
    } while (room_for_another());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {{"run_s", median(run_s), "s"},
               {"setup_s", median(setup_s), "s"},
               {"cpu_s", median(cpu_s), "s"},
               {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"}};
  } else {
    // Rounds of an untraced and a traced iteration, plus the obs-off or the
    // K = 4 variant, interleaved so drift hits both sides of every ratio
    // alike. The campaign has no profiler hook, so a traced call would only
    // repeat the untraced one: its layer metrics come from the untraced K = 1
    // iteration and its trace overhead is 1 by construction.
    std::vector<double> traced_s;
    std::vector<double> bypass_s;  // dumbbell_observed with obs off
    std::vector<double> k4_s;      // the campaign on 4 shards: wall, CPU
    std::vector<double> k4_cpu_s;
    Outcome k4;  // the last K = 4 campaign, for its shard counters
    std::map<std::string, std::vector<double>> layers;
    std::map<std::string, const char*> units;
    std::vector<std::string> order;
    do {
      const Outcome u = call(Mode::kPlain);
      chk.check(u, "untraced");
      run_s.push_back(log.at(u.run_span).seconds());
      Outcome t = u;
      if (!sharded) {
        t = call(Mode::kTraced);
        chk.check(t, "traced");
        traced_s.push_back(log.at(t.run_span).seconds());
      }
      for (const Metric& m : layer_metrics(t, log)) {
        if (units.emplace(m.name, m.unit).second) order.push_back(m.name);
        layers[m.name].push_back(m.value);
      }
      if (observed) {
        const Outcome r = call(Mode::kBypass);
        chk.check(r, "obs-off");
        bypass_s.push_back(log.at(r.run_span).seconds());
      }
      if (sharded) {
        k4 = call(Mode::kWide);
        chk.check(k4, "K=4");
        k4_s.push_back(log.at(k4.run_span).seconds());
        k4_cpu_s.push_back(log.at(k4.run_span).cpu_s);
      }
    } while (room_for_another());
    for (const std::string& name : order) {
      metrics.push_back({name, median(layers[name]), units[name]});
    }
    const double serial_s = sharded ? median(run_s) : 0.0;
    const double k4_run_s = median(k4_s);
    const std::vector<Metric> tail = {
        {"shard.epochs", counter(k4, "shard.epochs"), "count"},
        {"shard.lookahead_ms", counter(k4, "shard.lookahead_ms"), "ms"},
        {"shard.events_per_epoch",
         ratio(counter(k4, "sim.events"), counter(k4, "shard.epochs")), "count"},
        {"shard.serial_run_s", serial_s, "s"},
        {"shard.k4_run_s", k4_run_s, "s"},
        {"shard.speedup", ratio(serial_s, k4_run_s), "ratio"},
        {"shard.busy_cores", ratio(median(k4_cpu_s), k4_run_s), "cores"},
        {"obs.bypass_run_s", median(bypass_s), "s"},
        {"obs.cost_s", observed ? median(run_s) - median(bypass_s) : 0.0, "s"},
        {"trace.overhead", sharded ? 1.0 : ratio(median(traced_s), median(run_s)), "ratio"},
    };
    metrics.insert(metrics.end(), tail.begin(), tail.end());
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  char info[1024];
  std::snprintf(info, sizeof info,
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"trace\": %d, \"scale\": \"%s\", \"build_type\": \"%s\", "
                "\"invariants\": %s, \"compiler\": \"%s\", \"nproc\": %u, "
                "\"iterations\": %zu, \"digest\": \"%016" PRIx64 "\", \"drops\": %" PRIu64
                ", \"run_s_q1\": %.6g, \"run_s_median\": %.6g, \"run_s_q3\": %.6g",
                w.name.c_str(), seed, args.trace,
                args.scale == Scale::kFull ? "full" : "quick", build_type.c_str(),
                invariants ? "true" : "false", PERFBENCH_COMPILER, nproc, run_s.size(),
                chk.digest(), chk.drops(), quantile(run_s, 0.25), median(run_s),
                quantile(run_s, 0.75));
  std::string info_line = info;
  // A tail percentile only when at least ten iterations lie beyond it.
  for (const double p : {0.99, 0.9}) {
    if (static_cast<double>(run_s.size()) * (1.0 - p) >= 10.0) {
      char buf[64];
      std::snprintf(buf, sizeof buf, ", \"run_s_p%.0f\": %.6g", p * 100.0, quantile(run_s, p));
      info_line += buf;
      break;
    }
  }
  info_line += "}";

  {
    std::ofstream spans(out_dir / ("spans-" + w.name + "-s" + std::to_string(seed) + "-t" +
                                   std::to_string(args.trace) + ".jsonl"));
    spans << info_line << "\n";
    log.write_jsonl(spans);
  }
  fs::remove_all(scratch);

  std::printf("perfbench-info %s\n", info_line.c_str());
  print_result(chk, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

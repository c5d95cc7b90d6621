// The three end-to-end workloads the benchmark drives through the library's
// public entry points. Each run is one batch simulation plus the analysis
// calls its figure bench or example makes, timed from outside by spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

enum class Scale { kFull, kQuick };

/// How one call is made.
enum class Mode {
  kSetup,   ///< zero simulated duration: build, attach, partition, teardown
  kPlain,   ///< the workload as specified, profiler off (campaign: K = 1)
  kTraced,  ///< profiler on (through ObsConfig::profile), artifacts read back
  kWide,    ///< campaign only: the same campaign on four shards (K = 4)
  kBypass,  ///< dumbbell_observed only: the same scenario with obs off
};

/// What one call produced: the values the correctness checks compare and
/// the layer counters the result structs (or, when traced, the exported
/// artifacts) carry.
struct Outcome {
  std::uint64_t digest = 0;  ///< FNV-1a over the simulated outputs
  std::uint64_t drops = 0;   ///< the workload's loss count (see README)
  std::string defect;        ///< non-empty when a per-run invariant failed
  std::map<std::string, double> counters;
  std::map<std::string, TagTotal> tags;  ///< traced runs: profiler per-tag totals
  int run_span = -1;                     ///< index of the run span
};

struct Workload {
  std::string name;
  std::uint64_t default_seed;
  /// Pinned outputs for the default seed at full scale.
  std::uint64_t pinned_digest;
  std::uint64_t pinned_drops;
};

const std::vector<Workload>& workloads();

/// Run `w` once. Spans for the library call and each analysis call are
/// recorded under a run span named after the mode; `scratch` is a directory
/// the call may write telemetry artifacts into.
Outcome run_once(const Workload& w, Mode mode, std::uint64_t seed, Scale scale,
                 const std::string& scratch, SpanLog& log, int iteration);

}  // namespace perfbench

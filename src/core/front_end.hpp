// Flag groups shared by the front ends (bench/ and examples/ mains) and the
// one reader for each: telemetry (--obs-*) and fault injection (--fault-*).
// A front end lists the groups it accepts in its util::FlagSet; the readers
// read only the flags that set declares.
#pragma once

#include <string>

#include "fault/plan.hpp"
#include "obs/telemetry.hpp"
#include "util/flags.hpp"

namespace lossburst::core {

inline constexpr util::FlagSpec kObsDirFlag{"obs-dir", "DIR",
                                            "export interval CSV + Chrome trace JSON into DIR"};
/// Metric sampling period, 10 ms .. 60 s.
inline constexpr util::FlagSpec kObsIntervalFlag{"obs-interval", "MS",
                                                 "metric sampling period (default 100)"};
/// All four telemetry flags (the fig benches): kObsDirFlag, kObsIntervalFlag,
/// --obs-trace-cap N and --obs-profile.
extern const util::FlagSet kObsFlags;
/// --fault-plan FILE and --fault-seed N.
extern const util::FlagSet kFaultFlags;

/// Telemetry settings from the declared --obs-* flags; artifacts are named
/// `<prefix>intervals.csv`, ... Telemetry stays off unless --obs-dir is given.
obs::ObsConfig obs_config(const util::Flags& flags, std::string prefix);

/// The --fault-plan file with --fault-seed applied; an empty plan when no
/// plan is given. A malformed plan throws util::FlagError
/// ("bad fault plan: <line-numbered message>"), so nothing half-applies.
fault::FaultPlan fault_plan(const util::Flags& flags);

}  // namespace lossburst::core

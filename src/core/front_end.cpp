#include "core/front_end.hpp"

namespace lossburst::core {

const util::FlagSet kObsFlags = {
    kObsDirFlag,
    kObsIntervalFlag,
    {"obs-trace-cap", "N", "flight-recorder capacity in records (default 16384)"},
    {"obs-profile", "", "also write the event-loop wall-time profile"},
};
const util::FlagSet kFaultFlags = {
    {"fault-plan", "FILE", "impairment schedule (src/fault/plan.hpp format)"},
    {"fault-seed", "N", "override the plan's RNG seed"},
};

obs::ObsConfig obs_config(const util::Flags& flags, std::string prefix) {
  obs::ObsConfig cfg;
  cfg.prefix = std::move(prefix);
  cfg.dir = flags.text("obs-dir", "");
  if (flags.declares("obs-interval")) {
    cfg.interval = util::Duration::millis(
        static_cast<std::int64_t>(flags.integer("obs-interval", 100, 10, 60'000)));
  }
  if (flags.declares("obs-trace-cap")) {
    cfg.trace_capacity = flags.integer("obs-trace-cap", cfg.trace_capacity, 1, 1u << 22);
    cfg.profile = flags.flag("obs-profile");
  }
  return cfg;
}

fault::FaultPlan fault_plan(const util::Flags& flags) {
  const bool seeded = flags.declares("fault-seed") && flags.has("fault-seed");
  const std::string path = flags.text("fault-plan", "");
  if (path.empty() && seeded) throw util::FlagError("--fault-seed requires --fault-plan");
  if (path.empty()) return {};
  const fault::PlanParseResult parsed = fault::parse_plan_file(path);
  if (!parsed.ok) throw util::FlagError("bad fault plan: " + parsed.error);
  fault::FaultPlan plan = parsed.plan;
  if (seeded) plan.seed = flags.integer("fault-seed", 0, 0, ~std::uint64_t{0});
  return plan;
}

}  // namespace lossburst::core

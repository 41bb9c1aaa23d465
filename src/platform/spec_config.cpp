#include "platform/spec_config.hpp"

#include <cmath>
#include <functional>
#include <map>

#include "util/error.hpp"

namespace flotilla::platform {

PlatformSpec summit_spec() {
  PlatformSpec spec;
  spec.name = "summit";
  spec.cores_per_node = 42;  // 2 x 21 usable POWER9 cores
  spec.gpus_per_node = 6;    // V100s
  spec.smt = 1;
  // LSF/jsrun machine: no Slurm srun ceiling. Model "no ceiling" as a
  // value far above any realistic concurrency.
  spec.srun_concurrency_ceiling = 1 << 20;
  return spec;
}

PlatformSpec spec_by_name(const std::string& name) {
  if (name == "frontier") return frontier_spec();
  if (name == "summit") return summit_spec();
  if (name == "generic" || name.empty()) return PlatformSpec{};
  util::raise("unknown platform profile '", name,
              "' (known: frontier, summit, generic)");
}

PlatformSpec spec_from_config(const util::Config& config) {
  const auto sub = config.subset("platform");
  PlatformSpec spec = spec_by_name(sub.get_string("name", "generic"));
  for (const auto& [key, value] : sub.entries()) {
    (void)value;
    if (key == "name") {
      continue;
    } else if (key == "cores_per_node") {
      spec.cores_per_node = static_cast<int>(sub.get_int(key));
    } else if (key == "gpus_per_node") {
      spec.gpus_per_node = static_cast<int>(sub.get_int(key));
    } else if (key == "smt") {
      spec.smt = static_cast<int>(sub.get_int(key));
    } else if (key == "srun_ceiling") {
      spec.srun_concurrency_ceiling = sub.get_int(key);
      if (spec.srun_concurrency_ceiling <= 0) {
        spec.srun_concurrency_ceiling = 1 << 20;  // "unlimited"
      }
    } else {
      util::raise("unknown platform config key 'platform.", key, "'");
    }
  }
  FLOT_CHECK(spec.cores_per_node >= 1 && spec.cores_per_node <= 64,
             "cores_per_node out of range: ", spec.cores_per_node);
  FLOT_CHECK(spec.gpus_per_node >= 0 && spec.gpus_per_node <= 8,
             "gpus_per_node out of range: ", spec.gpus_per_node);
  return spec;
}

namespace {

// Applies every `prefix.*` key through a name->slot map; rejects typos and
// values that are not finite and non-negative (every constant is a
// duration, rate, factor or coefficient of variation).
void apply(const util::Config& config, const std::string& prefix,
           const std::map<std::string, double*>& slots) {
  const auto sub = config.subset(prefix);
  for (const auto& [key, value] : sub.entries()) {
    const auto it = slots.find(key);
    FLOT_CHECK(it != slots.end(), "unknown calibration key '", prefix, ".",
               key, "'");
    const double parsed = sub.get_double(key);
    FLOT_CHECK(std::isfinite(parsed) && parsed >= 0.0, "calibration key '",
               prefix, ".", key, "' must be finite and non-negative, got '",
               value, "'");
    *it->second = parsed;
  }
}

}  // namespace

Calibration calibration_from_config(const util::Config& config) {
  Calibration cal = frontier_calibration();
  apply(config, "slurm",
        {
            {"ctl_step_base", &cal.slurm.ctl_step_base},
            {"ctl_step_per_node", &cal.slurm.ctl_step_per_node},
            {"ctl_step_per_node_sq", &cal.slurm.ctl_step_per_node_sq},
            {"ctl_complete_cost", &cal.slurm.ctl_complete_cost},
            {"srun_client_startup", &cal.slurm.srun_client_startup},
            {"node_task_spawn", &cal.slurm.node_task_spawn},
            {"step_retry_initial", &cal.slurm.step_retry_initial},
            {"step_retry_max", &cal.slurm.step_retry_max},
            {"step_retry_factor", &cal.slurm.step_retry_factor},
            {"ctl_retry_cost", &cal.slurm.ctl_retry_cost},
            {"ctl_retry_fraction", &cal.slurm.ctl_retry_fraction},
            {"mpi_wireup_base", &cal.slurm.mpi_wireup_base},
            {"mpi_wireup_per_node", &cal.slurm.mpi_wireup_per_node},
            {"jitter_cv", &cal.slurm.jitter_cv},
        });
  apply(config, "flux",
        {
            {"ingest_cost", &cal.flux.ingest_cost},
            {"sched_cost", &cal.flux.sched_cost},
            {"sched_cost_per_node", &cal.flux.sched_cost_per_node},
            {"exec_coord_base", &cal.flux.exec_coord_base},
            {"event_cost", &cal.flux.event_cost},
            {"exec_spawn", &cal.flux.exec_spawn},
            {"bootstrap_base", &cal.flux.bootstrap_base},
            {"bootstrap_per_node", &cal.flux.bootstrap_per_node},
            {"mpi_wireup_base", &cal.flux.mpi_wireup_base},
            {"mpi_wireup_per_node", &cal.flux.mpi_wireup_per_node},
            {"jitter_cv", &cal.flux.jitter_cv},
        });
  apply(config, "dragon",
        {
            {"dispatch_exec", &cal.dragon.dispatch_exec},
            {"dispatch_func", &cal.dragon.dispatch_func},
            {"node_spawn_exec", &cal.dragon.node_spawn_exec},
            {"func_start", &cal.dragon.func_start},
            {"infra_period", &cal.dragon.infra_period},
            {"infra_cost", &cal.dragon.infra_cost},
            {"bootstrap_base", &cal.dragon.bootstrap_base},
            {"bootstrap_per_node", &cal.dragon.bootstrap_per_node},
            {"startup_timeout", &cal.dragon.startup_timeout},
            {"mpi_wireup_base", &cal.dragon.mpi_wireup_base},
            {"mpi_wireup_per_node", &cal.dragon.mpi_wireup_per_node},
            {"jitter_cv", &cal.dragon.jitter_cv},
        });
  apply(config, "prrte",
        {
            {"dvm_startup_base", &cal.prrte.dvm_startup_base},
            {"dvm_startup_per_node", &cal.prrte.dvm_startup_per_node},
            {"head_relay_cost", &cal.prrte.head_relay_cost},
            {"daemon_spawn_cost", &cal.prrte.daemon_spawn_cost},
            {"mpi_wireup_base", &cal.prrte.mpi_wireup_base},
            {"mpi_wireup_per_node", &cal.prrte.mpi_wireup_per_node},
            {"jitter_cv", &cal.prrte.jitter_cv},
        });
  apply(config, "core",
        {
            {"tmgr_task_cost", &cal.core.tmgr_task_cost},
            {"agent_sched_cost", &cal.core.agent_sched_cost},
            {"submit_cost_flux", &cal.core.submit_cost_flux},
            {"submit_cost_srun", &cal.core.submit_cost_srun},
            {"submit_cost_dragon", &cal.core.submit_cost_dragon},
            {"submit_cost_prrte", &cal.core.submit_cost_prrte},
            {"collect_cost", &cal.core.collect_cost},
            {"agent_bootstrap", &cal.core.agent_bootstrap},
            {"fs_stream_bandwidth_mbps",
             &cal.core.fs_stream_bandwidth_mbps},
            {"stage_latency", &cal.core.stage_latency},
            {"jitter_cv", &cal.core.jitter_cv},
        });
  // Staging divides by it.
  FLOT_CHECK(cal.core.fs_stream_bandwidth_mbps > 0.0,
             "calibration key 'core.fs_stream_bandwidth_mbps' must be "
             "positive, got ", cal.core.fs_stream_bandwidth_mbps);
  return cal;
}

}  // namespace flotilla::platform

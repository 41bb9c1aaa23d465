// Config-driven platform and calibration definitions.
//
// RADICAL-Pilot ships per-machine "resource config" files; Flotilla's
// equivalent lets users describe their platform and override calibration
// constants from key=value configs without recompiling:
//
//   platform.name = summit
//   platform.cores_per_node = 42
//   platform.gpus_per_node = 6
//   platform.srun_ceiling = 0          # no srun ceiling (LSF machine)
//   slurm.ctl_step_base = 0.004
//   flux.exec_spawn = 0.030
//   ...
//
// Unknown keys under known prefixes are rejected (they are always typos in
// an experiment sweep); unrelated prefixes are ignored.
#pragma once

#include "platform/calibration.hpp"
#include "platform/cluster.hpp"
#include "util/config.hpp"

namespace flotilla::platform {

// Summit, OLCF — the platform of the paper's predecessor study ([32]:
// ORTE/JSM many-task characterization): 2x21 usable POWER9 cores and
// 6 V100 GPUs per node, LSF-managed (no srun ceiling).
PlatformSpec summit_spec();

// Looks up a built-in profile by name ("frontier", "summit", "generic");
// throws util::Error for unknown names.
PlatformSpec spec_by_name(const std::string& name);

// Builds a spec from `platform.*` keys, starting from the built-in profile
// named by `platform.name` (default "generic").
PlatformSpec spec_from_config(const util::Config& config);

// Applies `slurm.*`, `flux.*`, `dragon.*`, `prrte.*` and `core.*` overrides
// on top of the default Frontier calibration. Throws util::Error for an
// unknown key, a value that is not finite and non-negative, or a zero
// `core.fs_stream_bandwidth_mbps`.
Calibration calibration_from_config(const util::Config& config);

}  // namespace flotilla::platform

#pragma once

// Post-window calls into single layers of a finished engine.  None of
// them runs inside a timed window or mutates simulated state that a
// fingerprint covers: they are taken after the episode's checks.

#include <cstdint>
#include <filesystem>

#include "core/engine.hpp"
#include "trace.hpp"

namespace perfbench {

struct layer_probe {
    double demand_ns_per_vm = 0.0;
    std::uint64_t active_vms = 0;
    double append_ns_per_sample = 0.0;
    double drs_plan_ms_per_pass = 0.0;
    double whatif_us_per_query = 0.0;
    /// Sum over every probed result, printed so no call can be elided.
    double checksum = 0.0;
};

/// Time the demand oracle, the telemetry store's batch append, DRS
/// planning and what-if placement queries against `engine` at the end of
/// its window (`window_end`).
layer_probe probe_layers(sci::sim_engine& engine, sci::sim_time window_end,
                         tracer& tr);

struct artifact_costs {
    double figures_s = 0.0;
    double export_s = 0.0;
    double export_mib = 0.0;
    double checksum = 0.0;
};

/// Build every figure and table of the paper from the engine's telemetry,
/// then export the daily dataset into `dir` (removed again afterwards).
artifact_costs build_paper_artifacts(const sci::sim_engine& engine,
                                     const std::filesystem::path& dir,
                                     tracer& tr);

}  // namespace perfbench

#pragma once

// The benchmark's workloads: closed batch jobs, one per process.
//
// A run plays a fixed number of passes of its workload: the time budget
// divided by `pass_seconds`, rounded, and at least one.  So every run of
// one budget does the same work, however fast the machine is at the time.
// A pass plays `episodes` engines with seeds derived from the run's seed;
// each engine is set up, run over its window and checked.  A workload with
// an ablation captures a checkpoint partway through the window and, after
// the window, forks it into the what-if ablation's three arms (baseline,
// DRS off, doubled overcommit), each run to the window end and checked.  An
// operation is one engine run to its end: an episode or an arm.  It fails
// if it throws or fails a correctness check.

#include <cstdint>
#include <filesystem>
#include <string_view>

#include "simcore/time.hpp"
#include "trace.hpp"

namespace perfbench {

struct workload {
    std::string_view name;
    double scale = 0.1;
    int episodes = 1;            ///< engines per pass
    sci::sim_time window_end = 0;
    sci::sim_time checkpoint_at = 0;  ///< ablation fork point; 0: no ablation
    sci::sim_duration step = 0;       ///< event-loop span granularity
    bool retry_storm = false;    ///< scenarios/retry_storm.scn physics
    bool paper_artifacts = false;  ///< figures + dataset export per episode
    int min_setups = 1;          ///< setups per run behind the setup_s median
    /// Typical wall seconds of one pass on the machine the benchmark was
    /// written on (4-vCPU Xeon VM); sets the passes a budget buys.
    double pass_seconds = 1.0;
};

/// The workload of that name, or nullptr.
const workload* find_workload(std::string_view name);

struct run_options {
    std::uint64_t seed = 0;
    double seconds = 10.0;
    /// Private directory for the dataset export (removed afterwards).
    std::filesystem::path scratch_dir;
};

struct run_report {
    bool correct = true;
    int attempted = 0;
    int failed = 0;
    metric_sheet end_to_end;
    metric_sheet per_layer;  ///< filled only when the tracer is on
};

/// Play the workload; progress lines and fingerprints go to stdout.
run_report run_workload(const workload& w, const run_options& options,
                        tracer& tr);

/// Pointer-chase latency over a buffer larger than the last-level cache,
/// in ns per dependent load (the drift sentinel).
double memory_latency_ns();

}  // namespace perfbench

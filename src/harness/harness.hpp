#pragma once

// sci::harness — scenario runner, replay traces, and JSON reporting.
//
// run_scenario plays one parsed scenario through a fresh sim_engine with
// an invariant_monitor attached, then fingerprints the run: an FNV-1a
// hash over every event-log row (reasons included) and one over the
// deterministic run_stats fields (wall-clock timings excluded).  The
// fingerprints are bit-identical at any SCI_THREADS — that is the
// engine's core determinism contract — so a trace recorded once replays
// as a regression check: same scenario + same window ⇒ same hashes.
//
// Trace files are recorded (--record) rather than committed: the hashes
// cover floating-point history, which is reproducible on one toolchain
// but not across libm versions.  CI records and replays within one job.
//
// outcomes_json renders the pass/fail summary CI parses (hand-rolled
// writer, same idiom as bench/bench_json).

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "harness/invariants.hpp"
#include "harness/scenario_dsl.hpp"

namespace sci::harness {

struct run_options {
    /// Cap the simulated window to this many days (0 = full window).
    int days = 0;
    /// Write/refresh the scenario's replay trace instead of comparing.
    bool record_trace = false;
    /// Worker-thread override for this run (else engine_config semantics:
    /// SCI_THREADS environment variable).
    std::optional<unsigned> threads;
    /// Assert the scrape-checkable invariants at every scrape barrier
    /// instead of spot-checking (sciverify --watch).
    bool watch = false;
};

enum class replay_status {
    none,        ///< scenario declares no trace
    recorded,    ///< trace written this run
    matched,     ///< hashes equal the recorded trace
    mismatched,  ///< regression: hashes differ
    skipped,     ///< no trace on disk (or window mismatch)
};

std::string_view to_string(replay_status s);

struct scenario_outcome {
    std::string name;
    int days = observation_days;
    run_stats stats;
    std::vector<invariant_result> invariants;
    std::uint64_t event_count = 0;
    std::uint64_t events_hash = 0;
    std::uint64_t stats_hash = 0;
    replay_status replay = replay_status::none;
    std::string replay_detail;
    /// Why the scenario could not be loaded or run to the end; empty when
    /// it ran.
    std::string error;

    /// Green = it ran, every invariant holds and the replay (if any)
    /// matched.
    bool passed() const;
};

/// FNV-1a over the deterministic run_stats fields in field-list order
/// (counters and migration figures; the *_wall_ms host timings are
/// excluded).
std::uint64_t stats_fingerprint(const run_stats& stats);

/// FNV-1a over every event row: t, kind, vm, bb, from, to, reason.
std::uint64_t events_fingerprint(const event_log& events);

/// A recorded replay trace (key = value text, one fingerprint per line).
struct trace_record {
    std::string scenario;
    int days = 0;
    std::uint64_t event_count = 0;
    std::uint64_t events_hash = 0;
    std::uint64_t stats_hash = 0;
};

void write_trace_file(const trace_record& trace,
                      const std::filesystem::path& file);

/// nullopt when the file does not exist; throws on a malformed file.
std::optional<trace_record> read_trace_file(const std::filesystem::path& file);

/// Run one scenario end to end: engine + monitor + fingerprints + replay.
scenario_outcome run_scenario(const scenario_spec& spec,
                              const run_options& options = {});

/// The machine-parseable summary: {"passed": ..., "scenarios": [...]}.
std::string outcomes_json(std::span<const scenario_outcome> outcomes);

}  // namespace sci::harness

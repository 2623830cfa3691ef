#pragma once

// sci::harness — the scenario DSL (*.scn).
//
// A scenario is a small dependency-free text file: '#' comments,
// [section] headers, and key = value lines.  It compiles into the
// existing engine_config (scenario + population + fault nested inside),
// plus the invariants the run must satisfy and an optional replay trace:
//
//   [scenario]
//   name = az_outage
//   description = lose one availability zone, recover through HA
//
//   [engine]
//   scale = 0.03
//   seed = 42
//   daily_churn_fraction = 0.018
//
//   [fault]
//   az_outages = 1
//   az_outage_at = 21600
//
//   [invariants]
//   admission_accounting = true
//   conservation = true
//   recovery_p99_seconds = 7200
//   restore_bit_identity = true
//
//   [snapshot]
//   at = 43200          # barrier for restore_bit_identity (default: mid-window)
//
//   [replay]
//   trace = traces/az_outage.trace
//
// The [engine], [fault] and [backpressure] keys come from engine_config's
// field list (core/engine.hpp).  Unknown sections or keys are errors (with
// the line number) — a typo'd knob must not silently run the default
// physics — and so is a value outside its member's type: integers are
// range-checked against the member's width and sign (seeds are unsigned
// 64-bit), so nothing is narrowed silently.  render_scenario emits the
// canonical form; parse(render(parse(x))) == parse(x) byte for byte,
// which tests/harness_test.cpp pins.
//
// Multi-region scenarios add `[region.N]` sections: one scenario file
// declares N regions, each the base [engine]/[fault] config plus the
// section's per-region deltas.  A region's seed defaults to
// derive_region_seed(base seed, N) and may be overridden explicitly:
//
//   [region.0]
//   name = steady
//
//   [region.1]
//   name = churn_storm
//   daily_churn_fraction = 0.25
//
// Deliberately NOT in the DSL: `threads` (runtime concern — SCI_THREADS;
// a scenario's output is bit-identical at any worker count) and
// `initial_population` (derived from scale, like every fleet dimension).

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "harness/invariants.hpp"
#include "multiregion/region_set.hpp"

namespace sci::harness {

/// One [region.N] section: deltas this region applies on top of the base
/// [engine]/[fault] config.  Unset keys inherit the base scenario.
struct region_override {
    std::size_t index = 0;
    /// Export/diagnostic name; defaults to "region<index>".
    std::string name;
    std::optional<double> scale;
    /// Explicit master seed; defaults to derive_region_seed(base, index).
    std::optional<std::uint64_t> seed;
    std::optional<double> daily_churn_fraction;
    std::optional<double> crash_rate_per_day;
    std::optional<double> migration_abort_probability;
    std::optional<int> az_outages;
    std::optional<sim_duration> az_outage_at;
    std::optional<sim_duration> az_outage_repair_time;
};

/// A parsed scenario: what to run and what must hold.
struct scenario_spec {
    std::string name;
    std::string description;
    engine_config config;
    invariant_config invariants;
    /// Declared [region.N] sections in index order; empty = single-region
    /// scenario run through a plain sim_engine.
    std::vector<region_override> regions;
    /// [snapshot] at = <seconds>: the event-time barrier where the
    /// restore_bit_identity invariant snapshots the run (and where
    /// tooling defaults its checkpoint).  Unset = mid-window.  For
    /// multi-region scenarios the one barrier covers every region.
    std::optional<sim_duration> snapshot_at;
    /// Replay trace path ([replay] trace = ...); empty when absent.
    /// Relative to the .scn file's directory — load_scenario_file
    /// resolves it, parse_scenario keeps it verbatim.
    std::filesystem::path trace;
};

/// Expand a spec into one region_spec per declared [region.N] (a spec
/// without regions yields one region carrying the base config verbatim —
/// derive_region_seed(seed, 0) == seed, so the solo run is unchanged).
/// Region names must be unique: they become export subdirectories.
std::vector<region_spec> region_specs_of(const scenario_spec& spec);

/// Parse scenario text; throws sci::error with the offending line number.
scenario_spec parse_scenario(std::string_view text);

/// Canonical text of a spec (parse . render is the identity on specs).
std::string render_scenario(const scenario_spec& spec);

/// Read + parse a .scn file, resolving the trace path against its
/// directory.
scenario_spec load_scenario_file(const std::filesystem::path& file);

/// Set `key` of config section `section` ("engine", "fault" or
/// "backpressure") from its text, typed and range-checked exactly like a
/// scenario-file line; every other member of `cfg` is left as it was.
/// Returns false when the section has no such key.  Throws sci::error
/// naming the key when the value does not parse; `line` is the
/// scenario-file line the message cites (0: not from a file).
bool set_config_key(engine_config& cfg, std::string_view section,
                    std::string_view key, std::string_view value,
                    int line = 0);

/// Parse one command-line or environment value the way the DSL parses a
/// value: the whole token must parse, and an integer must fit T (an
/// unsigned T takes no sign).  Throws sci::error naming `what`.
/// Instantiated for int, unsigned, std::int64_t, std::uint64_t and double.
template <class T>
T parse_checked(std::string_view what, std::string_view value);

}  // namespace sci::harness

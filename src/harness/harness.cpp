#include "harness/harness.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <memory>
#include <sstream>

#include "multiregion/region_set.hpp"
#include "simcore/error.hpp"
#include "snapshot/snapshot.hpp"

namespace sci::harness {

namespace {

constexpr std::uint64_t fnv_offset = 1469598103934665603ull;
constexpr std::uint64_t fnv_prime = 1099511628211ull;

void fnv1a(std::uint64_t& h, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (value >> (byte * 8)) & 0xffu;
        h *= fnv_prime;
    }
}

void fnv1a(std::uint64_t& h, double value) {
    fnv1a(h, std::bit_cast<std::uint64_t>(value));
}

std::string hex64(std::uint64_t value) {
    static constexpr char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xfu];
        value >>= 4;
    }
    return out;
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    static constexpr char digits[] = "0123456789abcdef";
                    out += "\\u00";
                    out += digits[(c >> 4) & 0xf];
                    out += digits[c & 0xf];
                } else {
                    out += c;
                }
        }
    }
    return out;
}

}  // namespace

std::string_view to_string(replay_status s) {
    switch (s) {
        case replay_status::none: return "none";
        case replay_status::recorded: return "recorded";
        case replay_status::matched: return "matched";
        case replay_status::mismatched: return "mismatched";
        case replay_status::skipped: return "skipped";
    }
    return "unknown";
}

bool scenario_outcome::passed() const {
    if (!error.empty() || replay == replay_status::mismatched) return false;
    return std::all_of(invariants.begin(), invariants.end(),
                       [](const invariant_result& r) { return r.passed; });
}

std::uint64_t stats_fingerprint(const run_stats& s) {
    std::uint64_t h = fnv_offset;
    for_each_field(
        [&h](const field_info& f, const auto& member) {
            if (f.deterministic) fnv1a(h, member);
        },
        s);
    return h;
}

std::uint64_t events_fingerprint(const event_log& events) {
    std::uint64_t h = fnv_offset;
    for (const lifecycle_event& e : events.all()) {
        fnv1a(h, static_cast<std::uint64_t>(e.t));
        fnv1a(h, static_cast<std::uint64_t>(e.kind));
        fnv1a(h, static_cast<std::uint64_t>(e.vm.value()));
        fnv1a(h, static_cast<std::uint64_t>(e.bb.value()));
        fnv1a(h, static_cast<std::uint64_t>(e.from.value()));
        fnv1a(h, static_cast<std::uint64_t>(e.to.value()));
        fnv1a(h, static_cast<std::uint64_t>(e.reason));
    }
    return h;
}

void write_trace_file(const trace_record& trace,
                      const std::filesystem::path& file) {
    if (!file.parent_path().empty()) {
        std::filesystem::create_directories(file.parent_path());
    }
    std::ofstream out(file);
    expects(out.good(), "write_trace_file: cannot create " + file.string());
    out << "scenario = " << trace.scenario << "\n"
        << "days = " << trace.days << "\n"
        << "events = " << trace.event_count << "\n"
        << "events_hash = " << hex64(trace.events_hash) << "\n"
        << "stats_hash = " << hex64(trace.stats_hash) << "\n";
}

std::optional<trace_record> read_trace_file(
    const std::filesystem::path& file) {
    std::ifstream in(file);
    if (!in.good()) return std::nullopt;
    trace_record trace;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) continue;
        const auto trim = [](std::string s) {
            const auto b = s.find_first_not_of(" \t\r");
            const auto e = s.find_last_not_of(" \t\r");
            return b == std::string::npos ? std::string()
                                          : s.substr(b, e - b + 1);
        };
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key == "scenario") trace.scenario = value;
        else if (key == "days") trace.days = std::stoi(value);
        else if (key == "events") trace.event_count = std::stoull(value);
        else if (key == "events_hash") {
            trace.events_hash = std::stoull(value, nullptr, 16);
        } else if (key == "stats_hash") {
            trace.stats_hash = std::stoull(value, nullptr, 16);
        } else {
            throw error("read_trace_file: unknown key '" + key + "' in " +
                        file.string());
        }
    }
    if (trace.scenario.empty()) {
        throw error("read_trace_file: malformed trace " + file.string());
    }
    return trace;
}

namespace {

/// Resolve the restore_bit_identity barrier: the [snapshot] at value,
/// else mid-window.  Returns a skip note instead of a barrier when the
/// point falls outside the (possibly day-capped) window — a capped CI
/// run must not fail a scenario whose barrier sits past the cap.
std::optional<sim_time> restore_barrier(const scenario_spec& spec,
                                        sim_time window_end,
                                        std::string& skip_note) {
    const sim_time at = spec.snapshot_at.value_or(window_end / 2);
    if (at <= 0 || at >= window_end) {
        skip_note = "skipped: snapshot barrier t=" + std::to_string(at) +
                    "s falls outside the " +
                    std::to_string(window_end) + "s window";
        return std::nullopt;
    }
    return at;
}

invariant_result restore_identity_result(sim_time at, std::uint64_t events,
                                         std::uint64_t stats,
                                         const scenario_outcome& outcome) {
    if (events != outcome.events_hash || stats != outcome.stats_hash) {
        return invariant_result{
            "restore_bit_identity", false,
            "restored run diverged: events/stats " + hex64(events) + "/" +
                hex64(stats) + " vs uninterrupted " +
                hex64(outcome.events_hash) + "/" +
                hex64(outcome.stats_hash)};
    }
    return invariant_result{
        "restore_bit_identity", true,
        "snapshot at t=" + std::to_string(at) +
            "s -> codec round-trip -> restore -> replay is bit-identical"};
}

/// Multi-region run: one engine per [region.N] on a shared pool, one
/// invariant_monitor per region, plus the fleet-wide cross-region
/// conservation check.  Combined fingerprints chain the per-region
/// hashes in region order — each region's hash is bit-identical to its
/// solo run, so the chain is too.
void run_multi_region(const scenario_spec& spec, const run_options& options,
                      scenario_outcome& outcome) {
    region_set set(region_specs_of(spec), options.threads);

    // cross_region_conservation and restore_bit_identity are fleet-wide
    // checks evaluated below over all regions at once; the per-region
    // monitors run the rest.
    invariant_config per_region = spec.invariants;
    per_region.cross_region_conservation = false;
    per_region.restore_bit_identity = false;
    std::vector<std::unique_ptr<invariant_monitor>> monitors;
    monitors.reserve(set.region_count());
    for (std::size_t r = 0; r < set.region_count(); ++r) {
        monitors.push_back(std::make_unique<invariant_monitor>(
            set.region(r), per_region, options.watch));
    }

    set.setup();
    const sim_time window_end = days(outcome.days);
    std::string skip_note;
    std::optional<sim_time> barrier;
    std::vector<snapshot::engine_state> mid;
    if (spec.invariants.restore_bit_identity) {
        barrier = restore_barrier(spec, window_end, skip_note);
        if (barrier.has_value()) {
            // one event-time barrier snapshots all N regions at once
            set.run_until(*barrier);
            mid = snapshot::capture(set);
        }
    }
    set.run_until(window_end);

    outcome.stats = set.merged_stats();
    outcome.stats_hash = fnv_offset;
    outcome.events_hash = fnv_offset;
    for (std::size_t r = 0; r < set.region_count(); ++r) {
        const sim_engine& engine = set.region(r);
        outcome.event_count += engine.events().size();
        fnv1a(outcome.events_hash, events_fingerprint(engine.events()));
        fnv1a(outcome.stats_hash, stats_fingerprint(engine.stats()));
        for (invariant_result result : monitors[r]->evaluate()) {
            result.name = set.spec(r).name + "." + result.name;
            outcome.invariants.push_back(std::move(result));
        }
    }
    if (spec.invariants.cross_region_conservation) {
        std::vector<conservation_snapshot> snapshots;
        snapshots.reserve(set.region_count());
        for (std::size_t r = 0; r < set.region_count(); ++r) {
            snapshots.push_back(collect_conservation(set.region(r)));
        }
        outcome.invariants.push_back(
            check_cross_region_conservation(snapshots));
    }
    if (spec.invariants.restore_bit_identity) {
        if (!barrier.has_value()) {
            outcome.invariants.push_back(
                invariant_result{"restore_bit_identity", true, skip_note});
        } else {
            // full byte-codec round trip per region, then replay the
            // restored bundle and chain its hashes the same way
            std::vector<snapshot::engine_state> decoded;
            decoded.reserve(mid.size());
            for (const snapshot::engine_state& state : mid) {
                decoded.push_back(
                    snapshot::deserialize(snapshot::serialize(state)));
            }
            const std::unique_ptr<region_set> replay =
                snapshot::restore_regions(decoded, options.threads);
            replay->run_until(window_end);
            std::uint64_t events = fnv_offset;
            std::uint64_t stats = fnv_offset;
            for (std::size_t r = 0; r < replay->region_count(); ++r) {
                fnv1a(events,
                      events_fingerprint(replay->region(r).events()));
                fnv1a(stats, stats_fingerprint(replay->region(r).stats()));
            }
            outcome.invariants.push_back(
                restore_identity_result(*barrier, events, stats, outcome));
        }
    }
}

}  // namespace

scenario_outcome run_scenario(const scenario_spec& spec,
                              const run_options& options) {
    expects(options.days >= 0, "run_scenario: days must be non-negative");

    scenario_outcome outcome;
    outcome.name = spec.name;
    outcome.days = options.days > 0 ? std::min(options.days, observation_days)
                                    : observation_days;

    if (!spec.regions.empty()) {
        run_multi_region(spec, options, outcome);
    } else {
        engine_config config = spec.config;
        if (options.threads.has_value()) config.threads = options.threads;

        sim_engine engine(config);
        invariant_monitor monitor(engine, spec.invariants, options.watch);
        engine.setup();

        const sim_time window_end = days(outcome.days);
        std::string skip_note;
        std::optional<sim_time> barrier;
        std::optional<snapshot::engine_state> mid;
        if (spec.invariants.restore_bit_identity) {
            barrier = restore_barrier(spec, window_end, skip_note);
            if (barrier.has_value()) {
                engine.run_until(*barrier);
                mid = snapshot::capture(engine);
            }
        }
        engine.run_until(window_end);

        outcome.stats = engine.stats();
        outcome.invariants = monitor.evaluate();
        outcome.event_count = engine.events().size();
        outcome.events_hash = events_fingerprint(engine.events());
        outcome.stats_hash = stats_fingerprint(engine.stats());

        if (spec.invariants.restore_bit_identity) {
            if (!barrier.has_value()) {
                outcome.invariants.push_back(invariant_result{
                    "restore_bit_identity", true, skip_note});
            } else {
                // the replayed engine starts from the decoded bytes, so
                // one check covers serializer + codec + restore at once
                const snapshot::engine_state decoded =
                    snapshot::deserialize(snapshot::serialize(*mid));
                const std::unique_ptr<sim_engine> replay =
                    snapshot::restore(decoded);
                replay->run_until(window_end);
                outcome.invariants.push_back(restore_identity_result(
                    *barrier, events_fingerprint(replay->events()),
                    stats_fingerprint(replay->stats()), outcome));
            }
        }
    }

    if (spec.trace.empty()) return outcome;
    if (options.record_trace) {
        write_trace_file(trace_record{outcome.name, outcome.days,
                                      outcome.event_count,
                                      outcome.events_hash,
                                      outcome.stats_hash},
                         spec.trace);
        outcome.replay = replay_status::recorded;
        outcome.replay_detail = "trace written to " + spec.trace.string();
        return outcome;
    }
    const std::optional<trace_record> trace = read_trace_file(spec.trace);
    if (!trace.has_value()) {
        outcome.replay = replay_status::skipped;
        outcome.replay_detail =
            "no trace at " + spec.trace.string() + " (run with --record)";
        return outcome;
    }
    if (trace->days != outcome.days) {
        outcome.replay = replay_status::skipped;
        outcome.replay_detail =
            "trace covers " + std::to_string(trace->days) +
            " days, this run " + std::to_string(outcome.days);
        return outcome;
    }
    if (trace->events_hash != outcome.events_hash ||
        trace->stats_hash != outcome.stats_hash ||
        trace->event_count != outcome.event_count) {
        outcome.replay = replay_status::mismatched;
        outcome.replay_detail =
            "recorded events/stats " + hex64(trace->events_hash) + "/" +
            hex64(trace->stats_hash) + " (" +
            std::to_string(trace->event_count) + " events), replay got " +
            hex64(outcome.events_hash) + "/" + hex64(outcome.stats_hash) +
            " (" + std::to_string(outcome.event_count) + ")";
        return outcome;
    }
    outcome.replay = replay_status::matched;
    outcome.replay_detail = std::to_string(outcome.event_count) +
                            " events bit-identical to the recorded trace";
    return outcome;
}

std::string outcomes_json(std::span<const scenario_outcome> outcomes) {
    std::ostringstream out;
    const bool all_passed =
        std::all_of(outcomes.begin(), outcomes.end(),
                    [](const scenario_outcome& o) { return o.passed(); });
    out << "{\n  \"passed\": " << (all_passed ? "true" : "false")
        << ",\n  \"scenarios\": [";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const scenario_outcome& o = outcomes[i];
        out << (i == 0 ? "" : ",") << "\n    {\n";
        out << "      \"name\": \"" << json_escape(o.name) << "\",\n";
        out << "      \"passed\": " << (o.passed() ? "true" : "false")
            << ",\n";
        out << "      \"error\": \"" << json_escape(o.error) << "\",\n";
        out << "      \"days\": " << o.days << ",\n";
        out << "      \"events\": " << o.event_count << ",\n";
        out << "      \"events_hash\": \"" << hex64(o.events_hash) << "\",\n";
        out << "      \"stats_hash\": \"" << hex64(o.stats_hash) << "\",\n";
        out << "      \"replay\": \"" << to_string(o.replay) << "\",\n";
        out << "      \"replay_detail\": \"" << json_escape(o.replay_detail)
            << "\",\n";
        out << "      \"invariants\": [";
        for (std::size_t j = 0; j < o.invariants.size(); ++j) {
            const invariant_result& r = o.invariants[j];
            out << (j == 0 ? "" : ",") << "\n        {\"name\": \""
                << json_escape(r.name) << "\", \"passed\": "
                << (r.passed ? "true" : "false") << ", \"skipped\": "
                << (r.skipped ? "true" : "false") << ", \"detail\": \""
                << json_escape(r.detail) << "\"}";
        }
        out << (o.invariants.empty() ? "]" : "\n      ]") << "\n    }";
    }
    out << (outcomes.empty() ? "]" : "\n  ]") << "\n}\n";
    return out.str();
}

}  // namespace sci::harness

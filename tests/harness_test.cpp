// sci::harness acceptance tests:
//   - the scenario DSL round-trips: parse . render is the identity, and
//     every shipped scenario under SCI_SCENARIO_DIR parses with >= 3
//     invariants,
//   - typos are loud: unknown sections/keys/values fail with the line,
//   - every invariant checker demonstrably FAILS on deliberately broken
//     input with a precise message (no vacuously-green physics),
//   - a faulted scenario (crash rate + one AZ outage) runs bit-identical
//     at 0 / 1 / 4 worker threads, and the replay trace machinery tells
//     matched from mismatched.
//
// Registered as a single ctest entry: the cases share three expensive
// engine runs built once.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "harness/harness.hpp"
#include "harness/invariants.hpp"
#include "harness/scenario_dsl.hpp"
#include "simcore/error.hpp"

namespace sci::harness {
namespace {

// --- scenario DSL -------------------------------------------------------

constexpr const char* example_scn = R"(# comment line
[scenario]
name = example
description = an example  # trailing comment

[engine]
scale = 0.02
seed = 7
daily_churn_fraction = 0.05

[fault]
crash_rate_per_day = 0.01
az_outages = 1
az_outage_at = 90000

[invariants]
admission_accounting = true
conservation = true
recovery_p99_seconds = 7200

[replay]
trace = traces/example.trace
)";

TEST(ScenarioDsl, ParsesEverySection) {
    const scenario_spec spec = parse_scenario(example_scn);
    EXPECT_EQ(spec.name, "example");
    EXPECT_EQ(spec.description, "an example");
    EXPECT_DOUBLE_EQ(spec.config.scenario.scale, 0.02);
    EXPECT_EQ(spec.config.scenario.seed, 7u);
    // the engine draws the population from scenario.seed; the DSL leaves
    // population.seed alone
    EXPECT_EQ(spec.config.population.seed, population_config{}.seed);
    EXPECT_DOUBLE_EQ(spec.config.population.daily_churn_fraction, 0.05);
    EXPECT_DOUBLE_EQ(spec.config.fault.host_crash_rate_per_day, 0.01);
    EXPECT_EQ(spec.config.fault.az_outages, 1);
    EXPECT_EQ(spec.config.fault.az_outage_at, 90000);
    EXPECT_TRUE(spec.invariants.admission_accounting);
    EXPECT_FALSE(spec.invariants.no_silent_drops);
    EXPECT_TRUE(spec.invariants.conservation);
    ASSERT_TRUE(spec.invariants.recovery_p99_seconds.has_value());
    EXPECT_DOUBLE_EQ(*spec.invariants.recovery_p99_seconds, 7200.0);
    EXPECT_EQ(spec.invariants.count(), 3);
    EXPECT_EQ(spec.trace, std::filesystem::path("traces/example.trace"));
}

TEST(ScenarioDsl, RenderRoundTripsByteForByte) {
    const scenario_spec spec = parse_scenario(example_scn);
    const std::string canonical = render_scenario(spec);
    const scenario_spec reparsed = parse_scenario(canonical);
    EXPECT_EQ(render_scenario(reparsed), canonical);
    EXPECT_EQ(reparsed.name, spec.name);
    EXPECT_EQ(reparsed.config.fault.az_outages, spec.config.fault.az_outages);
    EXPECT_EQ(reparsed.invariants.count(), spec.invariants.count());
}

TEST(ScenarioDsl, UnknownKeyFailsWithLineNumber) {
    try {
        parse_scenario("[scenario]\nname = x\n\n[engine]\nwarp_speed = 9\n");
        FAIL() << "expected sci::error";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("warp_speed"), std::string::npos)
            << e.what();
    }
}

TEST(ScenarioDsl, UnknownSectionAndBadValueFail) {
    EXPECT_THROW(parse_scenario("[scenario]\nname = x\n[warp]\n"), error);
    EXPECT_THROW(
        parse_scenario("[scenario]\nname = x\n[engine]\nscale = fast\n"),
        error);
    EXPECT_THROW(parse_scenario("[engine]\nscale = 0.1\n"), error);  // no name
    EXPECT_THROW(parse_scenario("[scenario]\nname = x\nstray\n"), error);
}

TEST(ScenarioDsl, ShippedScenariosParseWithRealInvariants) {
    const std::filesystem::path dir = SCI_SCENARIO_DIR;
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".scn") files.push_back(entry.path());
    }
    EXPECT_GE(files.size(), 6u);
    for (const auto& file : files) {
        const scenario_spec spec = load_scenario_file(file);
        EXPECT_FALSE(spec.name.empty()) << file;
        EXPECT_GE(spec.invariants.count(), 3) << file;
        EXPECT_FALSE(spec.trace.empty()) << file;
        // canonical render must reparse to the same canonical text
        const std::string canonical = render_scenario(spec);
        EXPECT_EQ(render_scenario(parse_scenario(canonical)), canonical)
            << file;
    }
}

/// True when every field-list member of `a` equals the one of `b`.
bool same_config(const engine_config& a, const engine_config& b) {
    bool same = true;
    for_each_field(
        [&](const field_info& f, const auto& x, const auto& y) {
            if (!(x == y)) {
                ADD_FAILURE() << f.name << " differs";
                same = false;
            }
        },
        a, b);
    return same;
}

TEST(ScenarioDsl, OneKeyOverrideKeepsTheScenariosOtherKeys) {
    // scisim --scenario retry_storm.scn --crash-rate 0.5: the flag sets
    // its own [fault] key on top of the file and nothing else
    const scenario_spec spec = load_scenario_file(
        std::filesystem::path(SCI_SCENARIO_DIR) / "retry_storm.scn");
    engine_config cfg = spec.config;
    ASSERT_TRUE(set_config_key(cfg, "fault", "crash_rate_per_day", "0.5"));
    EXPECT_EQ(cfg.fault.host_crash_rate_per_day, 0.5);
    // the file's other [fault] keys survive
    EXPECT_EQ(cfg.fault.claim_failure_probability, 0.35);
    EXPECT_EQ(cfg.fault.migration_abort_probability, 0.20);
    EXPECT_EQ(cfg.fault.ha_max_restart_attempts, 1);
    EXPECT_EQ(cfg.fault.crash_repair_time, 14400);
    engine_config expected = spec.config;
    expected.fault.host_crash_rate_per_day = 0.5;
    EXPECT_TRUE(same_config(cfg, expected));
    // a key the section does not have is reported, not invented
    EXPECT_FALSE(set_config_key(cfg, "fault", "warp_speed", "9"));
    EXPECT_TRUE(same_config(cfg, expected));
}

TEST(ScenarioDsl, SetConfigKeyRejectsABadTokenByKeyName) {
    struct bad {
        std::string_view section, key, token;
    };
    for (const bad& b : {bad{"engine", "seed", "abc"},
                         bad{"engine", "seed", "-1"},
                         bad{"engine", "scale", "fast"},
                         bad{"fault", "crash_rate_per_day", "0.1x"},
                         bad{"fault", "maintenance_windows", "1.5"}}) {
        engine_config cfg;
        try {
            set_config_key(cfg, b.section, b.key, b.token);
            ADD_FAILURE() << b.key << " accepted '" << b.token << "'";
        } catch (const error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(b.key), std::string::npos) << what;
            EXPECT_NE(what.find(b.token), std::string::npos) << what;
        }
        // a rejected token leaves the config as it was
        EXPECT_TRUE(same_config(cfg, engine_config{})) << b.key;
    }
    // the same checked parse serves plain command-line values
    EXPECT_EQ(parse_checked<unsigned>("--threads", "4"), 4u);
    EXPECT_THROW(parse_checked<unsigned>("--threads", "-4"), error);
    EXPECT_THROW(parse_checked<int>("--days", "3x"), error);
    EXPECT_THROW(parse_checked<sim_time>("--snapshot-at", "1e5"), error);
}

// --- each checker can actually fail -------------------------------------

lifecycle_event make_event(sim_time t, lifecycle_event_kind kind,
                           std::int32_t vm) {
    lifecycle_event e;
    e.t = t;
    e.kind = kind;
    e.vm = vm_id(vm);
    return e;
}

TEST(Checkers, AdmissionAccountingCatchesPhantomPlacements) {
    run_stats stats;
    stats.placements = 5;
    event_log events;
    for (int i = 0; i < 4; ++i) {
        events.record(make_event(i, lifecycle_event_kind::create, i));
    }
    const invariant_result r = check_admission_accounting(stats, events);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.detail,
              "placements (5) != create events (4) + ha_restart events (0)");
}

TEST(Checkers, AdmissionAccountingCatchesReasonlessRejections) {
    run_stats stats;
    stats.placement_failures = 1;
    event_log events;
    events.record(make_event(0, lifecycle_event_kind::schedule_fail, 0));
    const invariant_result r = check_admission_accounting(stats, events);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.detail, "1 schedule_fail events carry no reason");
}

TEST(Checkers, NoSilentDropsCatchesUnloggedDeletion) {
    vm_record rec;
    rec.id = vm_id(3);
    rec.state = vm_state::deleted;
    event_log events;
    events.record(make_event(0, lifecycle_event_kind::create, 3));
    const std::vector<vm_record> records{rec};
    const invariant_result r = check_no_silent_drops(records, events);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.detail,
              "1 unexplained VM states; first: vm 3 is deleted but has no "
              "remove event");
}

TEST(Checkers, NoSilentDropsIgnoresNotYetAdmittedArrivals) {
    // A pending record with no events at all is a future arrival beyond a
    // truncated window, not a drop.
    vm_record rec;
    rec.id = vm_id(9);
    rec.state = vm_state::pending;
    const std::vector<vm_record> records{rec};
    EXPECT_TRUE(check_no_silent_drops(records, event_log{}).passed);
    // ... but an admitted VM stuck pending without a crash event IS one.
    event_log events;
    events.record(make_event(0, lifecycle_event_kind::create, 9));
    const invariant_result r = check_no_silent_drops(records, events);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.detail,
              "1 unexplained VM states; first: vm 9 is pending but has no "
              "crash event");
}

TEST(Checkers, BoundedFlappingCatchesPingPong) {
    event_log events;
    for (int i = 0; i < 3; ++i) {
        events.record(
            make_event(hours(1) + i, lifecycle_event_kind::migrate, 7));
    }
    const invariant_result r = check_bounded_flapping(events, 2);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.detail, "vm 7 migrated 3 times on day 0 (bound 2)");
    EXPECT_TRUE(check_bounded_flapping(events, 3).passed);
}

TEST(Checkers, MonotoneImbalanceCatchesWorsening) {
    const std::vector<imbalance_sample> samples{
        {hours(1), 0.40, 0.30},
        {hours(2), 0.30, 0.38},
    };
    const invariant_result r = check_monotone_imbalance(samples, 0.05);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.detail.find("DRS pass at t=7200"), std::string::npos)
        << r.detail;
    EXPECT_TRUE(check_monotone_imbalance(samples, 0.1).passed);
}

TEST(Checkers, RecoveryTailCatchesSlowP99) {
    // nearest-rank p99 over 10 samples picks the last one: the straggler
    std::vector<double> downtimes(9, 60.0);
    downtimes.push_back(90000.0);
    const invariant_result r = check_recovery_tail(downtimes, 3600.0);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.detail.find("90000"), std::string::npos) << r.detail;
    EXPECT_TRUE(check_recovery_tail({}, 3600.0).passed);
}

TEST(Checkers, ConservationCatchesLeakedClaims) {
    conservation_snapshot snap;
    bb_usage_row row;
    row.bb = bb_id(0);
    row.claimed_vcpus = 10;
    row.resident_vcpus = 8;  // two vCPUs leaked
    row.registry_vcpus = 10;
    snap.bbs.push_back(row);
    const invariant_result r = check_conservation(snap);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.detail.find("vcpus"), std::string::npos) << r.detail;
}

TEST(Checkers, ConservationCatchesResidentsOnDownedHosts) {
    conservation_snapshot snap;
    snap.down_nodes_with_residents.push_back(node_id(4));
    const invariant_result r = check_conservation(snap);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(r.detail, "1 downed hosts still carry residents; first: node 4 at t=0");
}

// --- replay: bit-identical at 0 / 1 / 4 threads -------------------------

// One faulted scenario covering crashes, an AZ outage (it begins 25 h in,
// inside the 2-day test window) and every always-on invariant.
scenario_spec test_spec() {
    return parse_scenario(R"([scenario]
name = harness_test
description = crash rate + one AZ outage at small scale

[engine]
scale = 0.02
seed = 11

[fault]
crash_rate_per_day = 0.02
az_outages = 1
az_outage_at = 90000

[invariants]
admission_accounting = true
no_silent_drops = true
conservation = true
recovery_p99_seconds = 14400
)");
}

const std::vector<scenario_outcome>& shared_outcomes() {
    static auto* outcomes = [] {
        auto* out = new std::vector<scenario_outcome>();
        for (const unsigned threads : {0u, 1u, 4u}) {
            run_options options;
            options.days = 2;
            options.threads = threads;
            out->push_back(run_scenario(test_spec(), options));
        }
        return out;
    }();
    return *outcomes;
}

TEST(Replay, BitIdenticalAcrossThreadCounts) {
    const auto& runs = shared_outcomes();
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_GT(runs[0].event_count, 0u);
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].events_hash, runs[0].events_hash) << i;
        EXPECT_EQ(runs[i].stats_hash, runs[0].stats_hash) << i;
        EXPECT_EQ(runs[i].event_count, runs[0].event_count) << i;
    }
}

TEST(Replay, FaultedScenarioSatisfiesItsPhysics) {
    const scenario_outcome& run = shared_outcomes().front();
    EXPECT_EQ(run.invariants.size(), 4u);
    for (const invariant_result& r : run.invariants) {
        EXPECT_TRUE(r.passed) << r.name << ": " << r.detail;
    }
    // the AZ outage actually fired and HA actually recovered someone
    EXPECT_EQ(run.stats.az_outages, 1u);
    EXPECT_GT(run.stats.host_crashes, 0u);
    EXPECT_GT(run.stats.ha_restarts, 0u);
}

TEST(Replay, TraceFileTellsMatchedFromMismatched) {
    const std::filesystem::path trace =
        std::filesystem::path(testing::TempDir()) / "harness_test.trace";
    std::filesystem::remove(trace);
    scenario_spec spec = test_spec();
    spec.trace = trace;

    run_options options;
    options.days = 2;
    options.threads = 0u;
    scenario_outcome missing = run_scenario(spec, options);
    EXPECT_EQ(missing.replay, replay_status::skipped);

    options.record_trace = true;
    scenario_outcome recorded = run_scenario(spec, options);
    EXPECT_EQ(recorded.replay, replay_status::recorded);

    options.record_trace = false;
    scenario_outcome replayed = run_scenario(spec, options);
    EXPECT_EQ(replayed.replay, replay_status::matched);
    EXPECT_TRUE(replayed.passed());

    // corrupt the recorded events hash: the replay must turn red
    auto tampered = read_trace_file(trace);
    ASSERT_TRUE(tampered.has_value());
    tampered->events_hash ^= 1;
    write_trace_file(*tampered, trace);
    scenario_outcome mismatched = run_scenario(spec, options);
    EXPECT_EQ(mismatched.replay, replay_status::mismatched);
    EXPECT_FALSE(mismatched.passed());

    // a trace for a different window is skipped, not compared
    tampered->events_hash ^= 1;
    tampered->days = 1;
    write_trace_file(*tampered, trace);
    scenario_outcome skipped = run_scenario(spec, options);
    EXPECT_EQ(skipped.replay, replay_status::skipped);
    std::filesystem::remove(trace);
}

TEST(Replay, OutcomesJsonIsMachineParseable) {
    const std::string json = outcomes_json(shared_outcomes());
    EXPECT_NE(json.find("\"passed\": true"), std::string::npos) << json;
    EXPECT_NE(json.find("\"name\": \"harness_test\""), std::string::npos);
    EXPECT_NE(json.find("\"invariants\": ["), std::string::npos);
    EXPECT_NE(json.find("\"events_hash\": \""), std::string::npos);
}

}  // namespace
}  // namespace sci::harness

// The field lists of engine_config and run_stats (core/engine.hpp) drive
// the snapshot codec, the scenario DSL, merge_run_stats and
// stats_fingerprint.  One test per list proves, member by member, that
// each consumer treats the member as its field_info declares; the rest
// pin the regressions the hand-listed copies used to have.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/engine.hpp"
#include "harness/harness.hpp"
#include "harness/scenario_dsl.hpp"
#include "multiregion/region_set.hpp"
#include "simcore/error.hpp"
#include "snapshot/snapshot.hpp"
#include "stats_equal.hpp"

namespace sci {
namespace {

template <class T>
constexpr bool is_optional = false;
template <class T>
constexpr bool is_optional<std::optional<T>> = true;

/// Move a member off its value: every type the field lists hold.
template <class T>
void bump(T& v) {
    if constexpr (is_optional<T>) {
        typename T::value_type inner = v.value_or(typename T::value_type{});
        bump(inner);
        v = inner;
    } else if constexpr (std::is_same_v<T, bool>) {
        v = !v;
    } else if constexpr (std::is_enum_v<T>) {
        v = static_cast<T>(static_cast<int>(v) + 1);
    } else {
        v = static_cast<T>(v + 3);
    }
}

template <class S>
std::size_t field_count() {
    S s;
    std::size_t n = 0;
    for_each_field([&n](const field_info&, auto&) { ++n; }, s);
    return n;
}

/// Bump the index-th member of `s`; returns its field_info.
template <class S>
field_info bump_field(S& s, std::size_t index) {
    field_info out;
    std::size_t i = 0;
    for_each_field(
        [&](const field_info& f, auto& member) {
            if (i++ == index) {
                bump(member);
                out = f;
            }
        },
        s);
    return out;
}

/// Names of the members where a and b differ.
template <class S>
std::vector<std::string> differing(const S& a, const S& b) {
    std::vector<std::string> out;
    for_each_field(
        [&](const field_info& f, const auto& x, const auto& y) {
            if (!(x == y)) out.emplace_back(f.name);
        },
        a, b);
    return out;
}

std::vector<std::string> only(const field_info& f) {
    return {std::string(f.name)};
}

// --- one test per field list -----------------------------------------------

TEST(FieldListTest, EveryConfigMemberRoundTripsThroughCodecAndDsl) {
    const std::size_t n = field_count<engine_config>();
    EXPECT_EQ(n, 57u);
    std::size_t dsl_keys = 0;
    for (std::size_t i = 0; i < n; ++i) {
        snapshot::engine_state state;
        const field_info f = bump_field(state.config, i);
        SCOPED_TRACE(std::string(f.name));

        // codec: carried members come back, dropped ones read as default
        const engine_config restored =
            snapshot::deserialize(snapshot::serialize(state)).config;
        EXPECT_EQ(differing(restored, state.config),
                  f.in_snapshot ? std::vector<std::string>{} : only(f));

        // DSL: render -> parse carries exactly the members with a key
        harness::scenario_spec spec;
        spec.name = "fields";
        spec.config = state.config;
        const engine_config parsed =
            harness::parse_scenario(harness::render_scenario(spec)).config;
        EXPECT_EQ(differing(parsed, state.config),
                  f.key.empty() ? only(f) : std::vector<std::string>{});
        if (!f.key.empty()) ++dsl_keys;
    }
    EXPECT_EQ(dsl_keys, 30u);
}

TEST(FieldListTest, EveryStatsMemberRoundTripsMergesAndFingerprints) {
    const std::size_t n = field_count<run_stats>();
    EXPECT_EQ(n, 44u);
    const std::uint64_t zero_fingerprint =
        harness::stats_fingerprint(run_stats{});
    for (std::size_t i = 0; i < n; ++i) {
        snapshot::engine_state state;
        const field_info f = bump_field(state.stats, i);
        SCOPED_TRACE(std::string(f.name));

        // codec: carried members come back, host timings and retired
        // counters do not
        const run_stats restored =
            snapshot::deserialize(snapshot::serialize(state)).stats;
        EXPECT_EQ(differing(restored, state.stats),
                  f.in_snapshot ? std::vector<std::string>{} : only(f));
        EXPECT_EQ(f.in_snapshot, f.deterministic);

        // fingerprint: moves exactly when the member is deterministic
        EXPECT_EQ(harness::stats_fingerprint(state.stats) != zero_fingerprint,
                  f.deterministic);

        // merge: 2 and 5 fold to 7 (sum) or 5 (max); nothing else moves
        ASSERT_NE(f.merge, merge_rule::none);
        std::vector<run_stats> regions(2);
        std::size_t k = 0;
        for_each_field(
            [&](const field_info&, auto& a, auto& b) {
                if (k++ == i) {
                    a = 2;
                    b = 5;
                }
            },
            regions[0], regions[1]);
        const run_stats merged = merge_run_stats(regions);
        run_stats expected;
        k = 0;
        for_each_field(
            [&](const field_info&, auto& member) {
                if (k++ == i) member = f.merge == merge_rule::max ? 5 : 7;
            },
            expected);
        EXPECT_TRUE(differing(merged, expected).empty());
    }
}

TEST(FieldListTest, RetiredCountersStayOutOfFingerprintComparatorAndSnapshot) {
    // the ten speculation counters perfbench still reads: always zero,
    // and declared so that deleting them later moves no fingerprint and
    // no snapshot byte
    const std::vector<std::string> retired = {
        "speculative_placements",
        "speculation_misses",
        "window_speculations",
        "window_speculative_placements",
        "window_speculation_invalidated",
        "recovery_speculations",
        "recovery_speculative_placements",
        "recovery_speculation_invalidated",
        "rebalance_target_speculations",
        "rebalance_targets_used",
    };
    snapshot::engine_state bumped;
    std::vector<run_stats> regions(2);
    std::vector<std::string> found;
    for_each_field(
        [&](const field_info& f, auto& member, auto& a, auto& b) {
            if (std::find(retired.begin(), retired.end(), f.name) ==
                retired.end()) {
                return;
            }
            found.emplace_back(f.name);
            EXPECT_FALSE(f.deterministic) << f.name;
            EXPECT_FALSE(f.in_snapshot) << f.name;
            EXPECT_EQ(f.merge, merge_rule::sum) << f.name;
            bump(member);
            a = 2;
            b = 5;
        },
        bumped.stats, regions[0], regions[1]);
    EXPECT_EQ(found, retired);

    // fingerprint and comparator skip them
    EXPECT_EQ(harness::stats_fingerprint(bumped.stats),
              harness::stats_fingerprint(run_stats{}));
    expect_stats_equal(bumped.stats, run_stats{});
    // the v4 payload carries none of them
    EXPECT_EQ(snapshot::serialize(bumped),
              snapshot::serialize(snapshot::engine_state{}));
    // fleet merges still sum them
    const run_stats merged = merge_run_stats(regions);
    for_each_field(
        [&](const field_info& f, const auto& member) {
            if (std::find(retired.begin(), retired.end(), f.name) !=
                retired.end()) {
                EXPECT_EQ(member, 7u) << f.name;
            }
        },
        merged);
}

// --- regressions of the hand-listed copies ---------------------------------

TEST(FieldListTest, MergeKeepsBackpressureCountersAndGiveUps) {
    std::vector<run_stats> regions(2);
    regions[0].bp_enqueued = 4;
    regions[1].bp_enqueued = 6;
    regions[0].bp_shed_deadline = 1;
    regions[1].bp_shed_deadline = 2;
    regions[0].ha_give_ups = 3;
    regions[1].ha_give_ups = 2;
    regions[0].bp_peak_queue_len = 9;
    regions[1].bp_peak_queue_len = 5;
    regions[0].max_migration_downtime_ms = 12.5;
    regions[1].max_migration_downtime_ms = 40.0;
    const run_stats m = merge_run_stats(regions);
    EXPECT_EQ(m.bp_enqueued, 10u);
    EXPECT_EQ(m.bp_shed_deadline, 3u);
    EXPECT_EQ(m.ha_give_ups, 5u);
    EXPECT_EQ(m.bp_peak_queue_len, 9u);
    EXPECT_EQ(m.max_migration_downtime_ms, 40.0);
}

TEST(FieldListTest, DslRejectsValuesOutsideTheMemberType) {
    struct bad_line {
        const char* section;
        const char* key;
        const char* value;
    };
    const bad_line cases[] = {
        {"engine", "project_count", "4294967297"},
        {"engine", "seed", "-1"},
        {"fault", "maintenance_windows", "4294967298"},
        {"fault", "ha_max_restart_attempts", "-4294967295"},
        {"backpressure", "queue_capacity", "4294967296"},
        {"region.0", "seed", "-3"},
    };
    for (const bad_line& c : cases) {
        const std::string text = std::string("[scenario]\nname = x\n[") +
                                 c.section + "]\n" + c.key + " = " + c.value +
                                 "\n";
        SCOPED_TRACE(text);
        try {
            harness::parse_scenario(text);
            ADD_FAILURE() << "accepted";
        } catch (const error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("line 4"), std::string::npos) << what;
            EXPECT_NE(what.find(c.key), std::string::npos) << what;
        }
    }
}

TEST(FieldListTest, SeedsAboveTwoToTheSixtyThreeRoundTripThroughDsl) {
    constexpr std::uint64_t big = (std::uint64_t{1} << 63) + 5;
    harness::scenario_spec spec;
    spec.name = "big_seed";
    spec.config.scenario.seed = big;
    spec.regions.push_back(harness::region_override{.index = 0, .seed = big});
    const harness::scenario_spec back =
        harness::parse_scenario(harness::render_scenario(spec));
    EXPECT_EQ(back.config.scenario.seed, big);
    ASSERT_EQ(back.regions.size(), 1u);
    EXPECT_EQ(back.regions[0].seed, big);
}

}  // namespace
}  // namespace sci

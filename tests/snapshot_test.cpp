// Snapshot / restore / fork correctness (src/snapshot/).
//
// The contract under test: capture at an event-time barrier, round-trip
// the state through the versioned byte codec, restore into a fresh
// engine, replay to the end of the window — and the restored run's
// events/stats fingerprints and metric store (every series' aggregates and
// the sample counts) are bit-identical to the uninterrupted run,
// at SCI_THREADS ∈ {0, 1, 4}, for a clean config and for a faulted one
// (crashes, claim races, maintenance, migration aborts).  The mid-drain
// cases prove the hard part is exercised rather than vacuously green:
// the captured state actually holds the churn drain pending in its pinned
// heap slot / a pending HA restart group when the snapshot is taken.
//
// The shared runs are expensive, so this binary registers as a single
// ctest entry (same pattern as parallel_scrape_test / fault_test).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "harness/harness.hpp"
#include "multiregion/region_set.hpp"
#include "simcore/thread_pool.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/whatif.hpp"

namespace sci {
namespace {

using harness::events_fingerprint;
using harness::stats_fingerprint;

constexpr sim_time snap_time = days(5);
constexpr sim_time end_time = days(10);

engine_config base_config(unsigned threads, bool faulted) {
    engine_config config;
    config.scenario.scale = 0.02;  // ~36 nodes, ~960 VMs
    config.scenario.seed = 11;
    // hourly scrapes + dense churn: several arrivals per scrape interval,
    // interleaved with deletions and (when faulted) crashes
    config.sampling_interval = 3600;
    config.population.daily_churn_fraction = 0.10;
    config.threads = threads;
    if (faulted) {
        config.fault.host_crash_rate_per_day = 0.2;
        config.fault.claim_failure_probability = 0.02;
        config.fault.migration_abort_probability = 0.05;
        config.fault.maintenance_windows = 2;
    }
    return config;
}

/// A finished run's metric store: its two sample counts and a digest of
/// every series' daily and hourly aggregates, bitwise.
struct store_digest {
    std::uint64_t samples = 0, dropped = 0, aggregates = 0;
    bool operator==(const store_digest&) const = default;
};

store_digest digest_store(const metric_store& store) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over 64-bit words
    const auto mix = [&h](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (word >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    const auto mix_stats = [&mix](std::span<const running_stats> slots) {
        mix(slots.size());
        for (const running_stats& slot : slots) {
            const running_stats::exact_state e = slot.exact();
            mix(e.count);
            for (const double v : {e.sum, e.m2, e.mean, e.min, e.max}) {
                mix(std::bit_cast<std::uint64_t>(v));
            }
        }
    };
    for (std::size_t i = 0; i < store.series_count(); ++i) {
        const metric_store::series_view v =
            store.view_of(series_id(static_cast<std::int32_t>(i)));
        mix(static_cast<std::uint64_t>(v.daily_first));
        mix_stats(v.daily);
        mix(static_cast<std::uint64_t>(v.hourly_first));
        mix_stats(v.hourly);
    }
    return {store.total_samples(), store.dropped_samples(), h};
}

/// One interrupted run + its restored twin: the original engine pauses
/// at snap_time (captured + serialized there), then finishes the
/// window; the twin starts from the decoded bytes and replays the tail.
struct identity_run {
    std::uint64_t events_hash = 0, stats_hash = 0;    // uninterrupted
    std::uint64_t restored_events = 0, restored_stats = 0;
    store_digest store, restored_store;
    snapshot::engine_state mid;  // the captured barrier state
};

identity_run run_identity(const engine_config& config) {
    identity_run run;
    sim_engine engine(config);
    engine.setup();
    engine.run_until(snap_time);
    run.mid = snapshot::capture(engine);
    const std::vector<std::byte> bytes = snapshot::serialize(run.mid);
    engine.run_until(end_time);
    run.events_hash = events_fingerprint(engine.events());
    run.stats_hash = stats_fingerprint(engine.stats());
    run.store = digest_store(engine.store());

    const std::unique_ptr<sim_engine> restored =
        snapshot::restore(snapshot::deserialize(bytes));
    restored->run_until(end_time);
    run.restored_events = events_fingerprint(restored->events());
    run.restored_stats = stats_fingerprint(restored->stats());
    run.restored_store = digest_store(restored->store());
    return run;
}

/// Shared runs at 0/1/4 worker threads (expensive; built once).
std::vector<identity_run>& default_runs() {
    static auto* runs = [] {
        auto* v = new std::vector<identity_run>();
        for (const unsigned threads : {0u, 1u, 4u}) {
            v->push_back(run_identity(base_config(threads, false)));
        }
        return v;
    }();
    return *runs;
}

std::vector<identity_run>& faulted_runs() {
    static auto* runs = [] {
        auto* v = new std::vector<identity_run>();
        for (const unsigned threads : {0u, 1u, 4u}) {
            v->push_back(run_identity(base_config(threads, true)));
        }
        return v;
    }();
    return *runs;
}

TEST(SnapshotTest, RestoredRunIsBitIdenticalAcrossThreadCounts) {
    for (std::size_t i = 0; i < default_runs().size(); ++i) {
        const identity_run& run = default_runs()[i];
        EXPECT_EQ(run.events_hash, run.restored_events) << "threads run " << i;
        EXPECT_EQ(run.stats_hash, run.restored_stats) << "threads run " << i;
        // and the uninterrupted fingerprints agree across thread counts,
        // so the restored ones transitively do too
        EXPECT_EQ(run.events_hash, default_runs()[0].events_hash);
        EXPECT_EQ(run.stats_hash, default_runs()[0].stats_hash);
    }
}

TEST(SnapshotTest, FaultedRestoredRunIsBitIdenticalAcrossThreadCounts) {
    for (std::size_t i = 0; i < faulted_runs().size(); ++i) {
        const identity_run& run = faulted_runs()[i];
        EXPECT_EQ(run.events_hash, run.restored_events) << "threads run " << i;
        EXPECT_EQ(run.stats_hash, run.restored_stats) << "threads run " << i;
        EXPECT_EQ(run.events_hash, faulted_runs()[0].events_hash);
        EXPECT_EQ(run.stats_hash, faulted_runs()[0].stats_hash);
    }
    // the faulted physics actually ran
    EXPECT_NE(faulted_runs()[0].events_hash, default_runs()[0].events_hash);
}

TEST(SnapshotTest, RestoredStoreMatchesTheUninterruptedRun) {
    // the store's series, aggregates and sample counts survive the round
    // trip: after replaying the tail, the restored store is the
    // uninterrupted run's, at every thread count, clean and faulted
    for (const std::vector<identity_run>* runs :
         {&default_runs(), &faulted_runs()}) {
        for (std::size_t i = 0; i < runs->size(); ++i) {
            const identity_run& run = (*runs)[i];
            EXPECT_EQ(run.store, run.restored_store) << "threads run " << i;
            EXPECT_EQ(run.store, (*runs)[0].store) << "threads run " << i;
        }
    }
    EXPECT_GT(default_runs()[0].mid.samples_appended, 0u);
    EXPECT_GT(default_runs()[0].store.samples,
              default_runs()[0].mid.samples_appended);
}

TEST(SnapshotTest, CapturedStateCarriesFaultMachinery) {
    const snapshot::engine_state& mid = faulted_runs()[0].mid;
    EXPECT_TRUE(mid.has_mig_abort_rng);
    EXPECT_TRUE(mid.has_claim_fault_rng);
    EXPECT_FALSE(mid.mig_abort_rng_state.empty());
}

/// Advance a serial engine barrier by barrier until the captured state
/// satisfies `open`, then prove restore-from-that-state is lossless.
void snapshot_mid(const engine_config& config,
                  bool (*open)(const snapshot::engine_state&),
                  const char* what) {
    sim_engine engine(config);
    engine.setup();
    std::optional<snapshot::engine_state> mid;
    for (sim_time t = 1800; t < end_time; t += 1800) {
        engine.run_until(t);
        snapshot::engine_state state = snapshot::capture(engine);
        if (open(state)) {
            mid = std::move(state);
            break;
        }
    }
    ASSERT_TRUE(mid.has_value())
        << "no barrier with " << what << " found before day 10";
    engine.run_until(end_time);
    const std::vector<std::byte> bytes = snapshot::serialize(*mid);
    const snapshot::engine_state decoded = snapshot::deserialize(bytes);
    const std::unique_ptr<sim_engine> restored = snapshot::restore(decoded);
    restored->run_until(end_time);
    EXPECT_EQ(events_fingerprint(engine.events()),
              events_fingerprint(restored->events()))
        << what;
    EXPECT_EQ(stats_fingerprint(engine.stats()),
              stats_fingerprint(restored->stats()))
        << what;
}

TEST(SnapshotTest, MidChurnBatchSnapshotRestoresExactly) {
    // the regression this pins: a snapshot taken mid-stream, with the
    // churn drain pending in its pinned heap slot, must resume the drain
    // in the same slot — so it keeps its tie order against every other
    // event — and at the same arrival on restore
    snapshot_mid(
        base_config(0, false),
        [](const snapshot::engine_state& s) {
            if (s.arrival_cursor == 0) return false;
            for (const auto& entry : s.queue) {
                if (entry.payload.act == engine_event::action::drain_arrivals) {
                    return entry.seq == s.arrival_drain_seq;
                }
            }
            return false;
        },
        "the churn drain pending in its pinned slot");
}

TEST(SnapshotTest, MidHaGroupSnapshotRestoresExactly) {
    // same for HA: a pending restart group (crash happened, restarts not
    // yet drained) must survive the round trip
    snapshot_mid(
        base_config(0, true),
        [](const snapshot::engine_state& s) {
            return s.has_ha && !s.ha_groups.empty();
        },
        "a pending HA restart group");
}

TEST(SnapshotTest, TwoRegionSetSnapshotRestoresExactly) {
    const engine_config config = base_config(0, false);
    region_set set(make_region_specs(config, 2), 4u);
    set.run_until(snap_time);
    std::vector<snapshot::engine_state> states = snapshot::capture(set);
    ASSERT_EQ(states.size(), 2u);
    EXPECT_NE(states[0].region, states[1].region);
    // byte round trip per region, as the CLI and harness do
    std::vector<snapshot::engine_state> decoded;
    for (const snapshot::engine_state& state : states) {
        decoded.push_back(snapshot::deserialize(snapshot::serialize(state)));
    }
    set.run_until(end_time);

    const std::unique_ptr<region_set> restored =
        snapshot::restore_regions(decoded, 4u);
    restored->run_until(end_time);
    ASSERT_EQ(restored->region_count(), set.region_count());
    for (std::size_t r = 0; r < set.region_count(); ++r) {
        EXPECT_EQ(events_fingerprint(set.region(r).events()),
                  events_fingerprint(restored->region(r).events()))
            << "region " << r;
        EXPECT_EQ(stats_fingerprint(set.region(r).stats()),
                  stats_fingerprint(restored->region(r).stats()))
            << "region " << r;
    }
}

TEST(SnapshotTest, ForkFromSharedSnapshotMatchesRestore) {
    // N forks share one immutable snapshot: each fork replays the tail
    // independently and lands on the same fingerprints
    const snapshot::shared_snapshot shared =
        snapshot::share(snapshot::engine_state(default_runs()[0].mid));
    std::unique_ptr<sim_engine> fork_a = snapshot::fork(shared);
    std::unique_ptr<sim_engine> fork_b = snapshot::fork(shared);
    fork_a->run_until(end_time);
    fork_b->run_until(end_time);
    EXPECT_EQ(events_fingerprint(fork_a->events()),
              default_runs()[0].events_hash);
    EXPECT_EQ(events_fingerprint(fork_b->events()),
              default_runs()[0].events_hash);
    EXPECT_EQ(stats_fingerprint(fork_a->stats()),
              default_runs()[0].stats_hash);
}

TEST(SnapshotTest, ForkWithDrsDisabledMatchesAFreshDrsOffRun) {
    // abl_drs_onoff forks one snapshot taken after the first scrape
    // (t = 0) and switches DRS off with set_drs_enabled.  Only
    // plan_rebalance reads the flag and the first pass fires at
    // drs_interval, so the fork must run exactly like a fresh engine
    // configured with DRS off from the start.
    engine_config config = base_config(0, false);
    sim_engine prefix(config);
    prefix.setup();
    prefix.run_until(0);
    const std::unique_ptr<sim_engine> fork =
        snapshot::fork(snapshot::share(snapshot::capture(prefix)));
    fork->set_drs_enabled(false);
    fork->run_until(end_time);

    config.drs.enabled = false;
    sim_engine fresh(config);
    fresh.setup();
    fresh.run_until(end_time);
    EXPECT_EQ(events_fingerprint(fork->events()),
              events_fingerprint(fresh.events()));
    EXPECT_EQ(stats_fingerprint(fork->stats()),
              stats_fingerprint(fresh.stats()));
    // the switch took effect: no DRS moves, and a different run from the
    // DRS-on one
    EXPECT_EQ(fresh.stats().drs_migrations, 0u);
    EXPECT_NE(events_fingerprint(fresh.events()),
              default_runs()[0].events_hash);
}

TEST(SnapshotTest, SerializeIsByteStable) {
    // save . load . save is the identity on bytes (canonical encoding)
    const std::vector<std::byte> once =
        snapshot::serialize(default_runs()[0].mid);
    const std::vector<std::byte> twice =
        snapshot::serialize(snapshot::deserialize(once));
    EXPECT_EQ(once, twice);
}

TEST(SnapshotTest, SaveFileLoadFileRoundTrips) {
    const std::filesystem::path file = "snapshot_test_roundtrip.snap";
    snapshot::save_file(default_runs()[0].mid, file);
    const snapshot::engine_state loaded = snapshot::load_file(file);
    EXPECT_EQ(snapshot::serialize(default_runs()[0].mid),
              snapshot::serialize(loaded));
    std::filesystem::remove(file);
}

/// Expect deserialize(bytes) to throw a snapshot_error whose message
/// contains `needle`.
void expect_codec_error(std::vector<std::byte> bytes,
                        const std::string& needle) {
    try {
        snapshot::deserialize(bytes);
        FAIL() << "expected snapshot_error containing '" << needle << "'";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "got: " << e.what();
    }
}

TEST(SnapshotTest, CorruptedSnapshotFailsWithPreciseError) {
    const std::vector<std::byte> good =
        snapshot::serialize(default_runs()[0].mid);

    // truncated header
    expect_codec_error(
        std::vector<std::byte>(good.begin(), good.begin() + 8), "header");
    // truncated payload
    expect_codec_error(
        std::vector<std::byte>(good.begin(), good.begin() + 64), "payload");
    // bad magic
    {
        std::vector<std::byte> bytes = good;
        bytes[0] = std::byte{0x00};
        expect_codec_error(std::move(bytes), "magic");
    }
    // flipped payload byte -> checksum mismatch
    {
        std::vector<std::byte> bytes = good;
        bytes[bytes.size() / 2] ^= std::byte{0xff};
        expect_codec_error(std::move(bytes), "checksum");
    }
}

TEST(SnapshotTest, FutureVersionSnapshotFailsWithPreciseError) {
    std::vector<std::byte> bytes = snapshot::serialize(default_runs()[0].mid);
    // the format version is the u32 right after the u64 magic
    bytes[8] = std::byte{0xff};
    expect_codec_error(std::move(bytes), "unsupported format version");
}

TEST(SnapshotTest, OlderVersionSnapshotFailsWithPreciseError) {
    // this build reads format v5 only: a v4, v3 or v1 header is refused
    // by version number before any payload byte is interpreted
    for (const std::uint8_t old : {4, 3, 1}) {
        std::vector<std::byte> bytes =
            snapshot::serialize(default_runs()[0].mid);
        bytes[8] = std::byte{old};
        expect_codec_error(std::move(bytes), "unsupported format version " +
                                                 std::to_string(old));
    }
}

TEST(SnapshotTest, OutOfRangeEnumFailsWithPreciseError) {
    // the writer does not check enum values, so an out-of-range action in
    // a captured state serializes (checksum and all); the reader must
    // reject it by name instead of dispatching an unknown event
    snapshot::engine_state state = default_runs()[0].mid;
    ASSERT_FALSE(state.queue.empty());
    state.queue.front().payload.act = static_cast<engine_event::action>(200);
    expect_codec_error(snapshot::serialize(state), "engine_event::action");
}

TEST(SnapshotTest, CapturesOfOneStateAreByteIdentical) {
    // the 0/1/4-thread runs reach the same state; with the thread override
    // (the one config difference) cleared their bytes must match, which
    // needs host timings kept out of the format
    std::vector<std::vector<std::byte>> bytes;
    for (const identity_run& run : default_runs()) {
        snapshot::engine_state state = run.mid;
        state.config.threads.reset();
        bytes.push_back(snapshot::serialize(state));
    }
    EXPECT_EQ(bytes[0], bytes[1]);
    EXPECT_EQ(bytes[0], bytes[2]);
}

TEST(SnapshotTest, ConcurrentWhatIfQueriesMatchSerialExecution) {
    // a read-only planner over one hot snapshot: 4 concurrent batches of
    // 500 placement queries each must equal their serial execution
    const std::unique_ptr<sim_engine> engine =
        snapshot::restore(default_runs()[0].mid);
    const snapshot::whatif_planner planner(*engine);
    ASSERT_GT(planner.host_count(), 0u);

    std::vector<snapshot::whatif_query> queries;
    const auto records = engine->vms().all();
    ASSERT_GE(records.size(), 16u);
    for (std::size_t i = 0; i < 500; ++i) {
        snapshot::whatif_query q;
        q.flavor = records[i % records.size()].flavor;
        q.policy = i % 2 == 0 ? placement_policy::spread
                              : placement_policy::pack;
        queries.push_back(q);
    }
    const snapshot::whatif_result serial = planner.plan(queries);
    EXPECT_GT(serial.placed, 0u);
    EXPECT_EQ(serial.landings.size(), queries.size());

    constexpr std::size_t concurrent_queries = 4;
    std::vector<snapshot::whatif_result> results(concurrent_queries);
    thread_pool pool(4);
    pool.run_tasks(concurrent_queries, [&](std::size_t i) {
        results[i] = planner.plan(queries);
    });
    for (std::size_t i = 0; i < concurrent_queries; ++i) {
        EXPECT_EQ(results[i].landings, serial.landings) << "query batch " << i;
        EXPECT_EQ(results[i].placed, serial.placed);
        EXPECT_EQ(results[i].failed, serial.failed);
        // bitwise: the peaks are reductions in a fixed order
        EXPECT_EQ(results[i].peak_cpu_allocation_ratio,
                  serial.peak_cpu_allocation_ratio);
        EXPECT_EQ(results[i].peak_ram_allocation_ratio,
                  serial.peak_ram_allocation_ratio);
    }
}

}  // namespace
}  // namespace sci

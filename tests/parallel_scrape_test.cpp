// Thread-count identity: one scenario played serially (threads = 0), with
// one worker and with four workers must produce bit-identical placements,
// stats, telemetry aggregates, reports and exported datasets.  Only the
// scrape's demand and append stages fan out, and both shard by a fixed
// count and reduce in shard order, so this holds exactly — not just
// approximately.
//
// The suite runs over six regimes: the default run, host crashes, dense
// churn with and without faults (crashes, maintenance, claim races), and
// mass crashes with cross-BB moves and migration aborts, with and without
// the contention feed.  ConfigsRunTheirRegimes proves each regime really
// ran its machinery, so no identity check is vacuously green.
//
// Each run is reduced to a digest the moment it finishes, so the binary
// holds digests, not engines.  The runs are expensive, so this binary
// registers as a single ctest entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/report.hpp"
#include "data/dataset.hpp"
#include "stats_equal.hpp"

namespace sci {
namespace {

engine_config base_config() {
    engine_config config;
    config.scenario.scale = 0.02;  // ~36 nodes, ~960 VMs
    config.scenario.seed = 11;
    config.sampling_interval = 900;
    return config;
}

/// Hourly scrapes and ~5x the paper's churn rate.
engine_config dense_churn() {
    engine_config config = base_config();
    config.sampling_interval = 3600;
    config.population.daily_churn_fraction = 0.10;
    return config;
}

/// ~18 host crashes/day on ~36 nodes with quick repair and slow failure
/// detection, plus claim races, mid-copy aborts and a tight cross-BB
/// spread: recovery runs under genuine NoValidHost pressure (retry
/// groups, give-ups) and rebalance passes plan several moves.
engine_config mass_crash() {
    engine_config config = dense_churn();
    config.fault.host_crash_rate_per_day = 0.5;
    config.fault.crash_repair_time = hours(8);
    config.fault.ha_restart_delay = 900;
    config.fault.claim_failure_probability = 0.02;
    config.fault.migration_abort_probability = 0.05;
    config.fault.maintenance_windows = 2;
    config.cross_bb_interval = 7200;
    config.cross_bb.target_ram_spread = 0.05;
    return config;
}

struct regime {
    std::string name;
    engine_config config;
    /// Counters the regime must move, so its identity checks bite.
    std::vector<std::uint64_t run_stats::*> nonzero;
};

void PrintTo(const regime& r, std::ostream* os) { *os << r.name; }

std::vector<regime> regimes() {
    std::vector<regime> out;
    out.push_back({"default", base_config(),
                   {&run_stats::placements, &run_stats::drs_migrations}});

    engine_config crashes = base_config();
    crashes.fault.host_crash_rate_per_day = 0.05;
    out.push_back({"crashes", crashes,
                   {&run_stats::host_crashes, &run_stats::ha_restarts}});

    out.push_back({"dense_churn", dense_churn(),
                   {&run_stats::deletions, &run_stats::evacuations}});

    engine_config churn_faults = dense_churn();
    churn_faults.fault.host_crash_rate_per_day = 0.05;
    churn_faults.fault.claim_failure_probability = 0.02;
    churn_faults.fault.maintenance_windows = 2;
    out.push_back({"dense_churn_faults", churn_faults,
                   {&run_stats::host_crashes, &run_stats::ha_restarts,
                    &run_stats::maintenance_evacuations}});

    out.push_back({"mass_crash", mass_crash(),
                   {&run_stats::host_crashes, &run_stats::ha_restart_failures,
                    &run_stats::cross_bb_moves, &run_stats::migration_aborts}});

    engine_config contention = mass_crash();
    contention.contention_aware = true;
    out.push_back({"mass_crash_contention", contention,
                   {&run_stats::host_crashes, &run_stats::ha_restarts,
                    &run_stats::cross_bb_moves}});
    return out;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t hash_string(const std::string& s) {
    return fnv1a(1469598103934665603ull, s.data(), s.size());
}

/// Export dataset + events CSV and hash every produced file, in sorted
/// filename order, content and name both.
std::uint64_t hash_dataset_export(const sim_engine& engine,
                                  const std::filesystem::path& dir) {
    std::filesystem::remove_all(dir);
    export_dataset(engine.store(), dir);
    export_events_csv(engine.events(), dir / "events.csv");
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    std::uint64_t h = 1469598103934665603ull;
    for (const std::filesystem::path& file : files) {
        const std::string name = file.filename().string();
        h = fnv1a(h, name.data(), name.size());
        std::ifstream in(file, std::ios::binary);
        std::ostringstream body;
        body << in.rdbuf();
        const std::string s = body.str();
        h = fnv1a(h, s.data(), s.size());
    }
    std::filesystem::remove_all(dir);
    return h;
}

struct placement_row {
    vm_state state;
    bb_id bb;
    node_id node;
    std::int32_t migrations;
    bool operator==(const placement_row&) const = default;
};

/// Window aggregate of one series, bitwise.
struct aggregate_row {
    std::string labels;
    std::uint64_t count;
    double mean, max, min;
    bool operator==(const aggregate_row&) const = default;
};

/// Everything the identity checks compare, taken from a finished run.
struct run_digest {
    std::vector<placement_row> placements;
    run_stats stats;
    std::uint64_t report_hash = 0;
    std::uint64_t dataset_hash = 0;
    std::uint64_t samples = 0, dropped = 0, series = 0;
    /// Every stride-th series of a metric, per metric.
    std::map<std::string, std::vector<aggregate_row>> aggregates;
};

run_digest digest_run(const engine_config& config, unsigned threads,
                      const std::string& name) {
    engine_config threaded = config;
    threaded.threads = threads;
    sim_engine engine(threaded);
    engine.run();

    run_digest d;
    for (const vm_record& rec : engine.vms().all()) {
        d.placements.push_back(
            {rec.state, rec.placed_bb, rec.placed_node, rec.migration_count});
    }
    d.stats = engine.stats();
    d.report_hash = hash_string(markdown_report(engine));
    d.dataset_hash = hash_dataset_export(
        engine, "ptest_dataset_" + name + "_" + std::to_string(threads));
    const metric_store& store = engine.store();
    d.samples = store.total_samples();
    d.dropped = store.dropped_samples();
    d.series = store.series_count();
    using namespace metric_names;
    const std::pair<std::string_view, std::size_t> sampled[] = {
        {host_cpu_core_utilization, 5}, {host_cpu_contention, 5},
        {host_cpu_ready, 5},            {host_memory_usage, 5},
        {vm_cpu_usage_ratio, 37},       {vm_memory_consumed_ratio, 37},
        {os_instances_total, 1},
    };
    for (const auto& [metric, stride] : sampled) {
        std::vector<aggregate_row>& rows = d.aggregates[std::string(metric)];
        const std::vector<series_id> ids = store.select(metric);
        for (std::size_t i = 0; i < ids.size(); i += stride) {
            const running_stats w = store.window_aggregate(ids[i]);
            rows.push_back({store.labels_of(ids[i]).to_string(), w.count(),
                            w.mean(), w.max(), w.min()});
        }
    }
    return d;
}

/// Digests at 0/1/4 threads per regime (expensive; built on first use).
const std::vector<run_digest>& digests(const regime& r) {
    static auto* cache = new std::map<std::string, std::vector<run_digest>>();
    auto it = cache->find(r.name);
    if (it == cache->end()) {
        std::vector<run_digest> runs;
        for (const unsigned threads : {0u, 1u, 4u}) {
            runs.push_back(digest_run(r.config, threads, r.name));
        }
        it = cache->emplace(r.name, std::move(runs)).first;
    }
    return it->second;
}

class ThreadIdentityTest : public testing::TestWithParam<regime> {
protected:
    /// The serial reference and the two pooled runs.
    const std::vector<run_digest>& runs() const { return digests(GetParam()); }
};

TEST_P(ThreadIdentityTest, VmPlacementsMatchSerialReference) {
    const auto& runs = this->runs();
    for (std::size_t i = 1; i < runs.size(); ++i) {
        const auto& a = runs[0].placements;
        const auto& b = runs[i].placements;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t vm = 0; vm < a.size(); ++vm) {
            ASSERT_EQ(a[vm], b[vm]) << "vm " << vm << ", run " << i;
        }
    }
}

TEST_P(ThreadIdentityTest, StatsAreBitIdenticalAcrossThreadCounts) {
    const auto& runs = this->runs();
    for (std::size_t i = 1; i < runs.size(); ++i) {
        expect_stats_equal(runs[0].stats, runs[i].stats);
    }
}

TEST_P(ThreadIdentityTest, StoreCountersAreIdenticalAcrossThreadCounts) {
    const auto& runs = this->runs();
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[0].samples, runs[i].samples);
        EXPECT_EQ(runs[0].dropped, runs[i].dropped);
        EXPECT_EQ(runs[0].series, runs[i].series);
    }
}

TEST_P(ThreadIdentityTest, SeriesAggregatesAreBitIdentical) {
    const auto& runs = this->runs();
    for (const auto& [metric, rows] : runs[0].aggregates) {
        ASSERT_FALSE(rows.empty()) << metric;
        for (std::size_t i = 1; i < runs.size(); ++i) {
            const std::vector<aggregate_row>& other =
                runs[i].aggregates.at(metric);
            ASSERT_EQ(rows.size(), other.size()) << metric;
            for (std::size_t k = 0; k < rows.size(); ++k) {
                EXPECT_EQ(rows[k], other[k])
                    << metric << " series " << rows[k].labels << ", run " << i;
            }
        }
    }
}

TEST_P(ThreadIdentityTest, ReportHashesAreBitIdentical) {
    const auto& runs = this->runs();
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[0].report_hash, runs[i].report_hash) << "run " << i;
    }
}

TEST_P(ThreadIdentityTest, DatasetExportsAreBitIdentical) {
    const auto& runs = this->runs();
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[0].dataset_hash, runs[i].dataset_hash) << "run " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Regimes, ThreadIdentityTest,
                         testing::ValuesIn(regimes()),
                         [](const testing::TestParamInfo<regime>& info) {
                             return info.param.name;
                         });

TEST(ThreadIdentityRegimes, ConfigsRunTheirRegimes) {
    // each regime moves the counters it exists for, and no two regimes
    // play the same run: only the thread count may leave a run unchanged
    std::vector<std::uint64_t> seen;
    for (const regime& r : regimes()) {
        const run_digest& serial = digests(r)[0];
        for (const auto member : r.nonzero) {
            EXPECT_GT(serial.stats.*member, 0u) << r.name;
        }
        EXPECT_EQ(std::count(seen.begin(), seen.end(), serial.report_hash), 0)
            << r.name;
        seen.push_back(serial.report_hash);
    }
}

}  // namespace
}  // namespace sci

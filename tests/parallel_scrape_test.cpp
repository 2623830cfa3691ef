// Determinism guard for the parallel scrape pipeline: the same scenario
// played serially (threads = 0), with one worker, and with four workers
// must produce bit-identical engine stats and telemetry aggregates.  The
// pipeline shards demand by a fixed shard count and reduces in shard
// order, so this holds exactly — not just approximately.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "stats_equal.hpp"

namespace sci {
namespace {

std::unique_ptr<sim_engine> run_with_threads(unsigned threads) {
    engine_config config;
    config.scenario.scale = 0.02;  // ~36 nodes, ~960 VMs
    config.scenario.seed = 11;
    config.sampling_interval = 900;
    config.threads = threads;
    auto engine = std::make_unique<sim_engine>(config);
    engine->run();
    return engine;
}

/// The three engines under comparison (expensive; built once).
const std::vector<std::unique_ptr<sim_engine>>& engines() {
    static auto* runs = [] {
        auto* v = new std::vector<std::unique_ptr<sim_engine>>();
        for (const unsigned threads : {0u, 1u, 4u}) {
            v->push_back(run_with_threads(threads));
        }
        return v;
    }();
    return *runs;
}

TEST(ParallelScrapeTest, StatsAreBitIdenticalAcrossThreadCounts) {
    const auto& runs = engines();
    expect_stats_equal(runs[0]->stats(), runs[1]->stats());
    expect_stats_equal(runs[0]->stats(), runs[2]->stats());
}

TEST(ParallelScrapeTest, StoreCountersAreIdenticalAcrossThreadCounts) {
    const auto& runs = engines();
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[0]->store().total_samples(),
                  runs[i]->store().total_samples());
        EXPECT_EQ(runs[0]->store().dropped_samples(),
                  runs[i]->store().dropped_samples());
        EXPECT_EQ(runs[0]->store().series_count(),
                  runs[i]->store().series_count());
    }
}

/// Compare window aggregates of every k-th series of a metric, bitwise.
void expect_series_aggregates_equal(const metric_store& a,
                                    const metric_store& b,
                                    std::string_view metric,
                                    std::size_t stride) {
    const std::vector<series_id> sa = a.select(metric);
    const std::vector<series_id> sb = b.select(metric);
    ASSERT_EQ(sa.size(), sb.size()) << metric;
    ASSERT_FALSE(sa.empty()) << metric;
    for (std::size_t i = 0; i < sa.size(); i += stride) {
        // same open order ⇒ same ids ⇒ same labels
        ASSERT_EQ(a.labels_of(sa[i]), b.labels_of(sb[i])) << metric;
        const running_stats wa = a.window_aggregate(sa[i]);
        const running_stats wb = b.window_aggregate(sb[i]);
        EXPECT_EQ(wa.count(), wb.count()) << metric << " series " << i;
        EXPECT_EQ(wa.mean(), wb.mean()) << metric << " series " << i;
        EXPECT_EQ(wa.max(), wb.max()) << metric << " series " << i;
        EXPECT_EQ(wa.min(), wb.min()) << metric << " series " << i;
    }
}

TEST(ParallelScrapeTest, NodeSeriesAggregatesAreBitIdentical) {
    const auto& runs = engines();
    using namespace metric_names;
    for (std::size_t i = 1; i < runs.size(); ++i) {
        expect_series_aggregates_equal(runs[0]->store(), runs[i]->store(),
                                       host_cpu_core_utilization, 5);
        expect_series_aggregates_equal(runs[0]->store(), runs[i]->store(),
                                       host_cpu_contention, 5);
        expect_series_aggregates_equal(runs[0]->store(), runs[i]->store(),
                                       host_cpu_ready, 5);
        expect_series_aggregates_equal(runs[0]->store(), runs[i]->store(),
                                       host_memory_usage, 5);
    }
}

TEST(ParallelScrapeTest, VmSeriesAggregatesAreBitIdentical) {
    const auto& runs = engines();
    using namespace metric_names;
    for (std::size_t i = 1; i < runs.size(); ++i) {
        expect_series_aggregates_equal(runs[0]->store(), runs[i]->store(),
                                       vm_cpu_usage_ratio, 37);
        expect_series_aggregates_equal(runs[0]->store(), runs[i]->store(),
                                       vm_memory_consumed_ratio, 37);
        expect_series_aggregates_equal(runs[0]->store(), runs[i]->store(),
                                       os_instances_total, 1);
    }
}

TEST(ParallelScrapeTest, VmPlacementsAreIdenticalAcrossThreadCounts) {
    const auto& runs = engines();
    const auto a = runs[0]->vms().all();
    const auto b = runs[2]->vms().all();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].state, b[i].state);
        EXPECT_EQ(a[i].placed_bb, b[i].placed_bb);
        EXPECT_EQ(a[i].placed_node, b[i].placed_node);
        EXPECT_EQ(a[i].migration_count, b[i].migration_count);
    }
}

}  // namespace
}  // namespace sci

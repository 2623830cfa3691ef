// Determinism guard for batched HA recovery and cross-BB target
// speculation: a mass-crash run re-places each detection epoch's victims
// as one speculated batch and target-speculates every rebalance pass, so
// fixed-seed runs at SCI_THREADS ∈ {0, 1, 4} must produce bit-identical
// placements, stats, reports, and exported datasets — including a
// contention-aware run where scrape epochs gate batch validity.  The
// scenario is tuned (high crash rate, short repair, dense churn, tight
// rebalance spread) so recovery batches span several victim groups and
// rebalance passes plan multiple moves: the straddle/invalidation tests
// prove batches stayed open across second crashes and that the
// shrink-version / usage-version invalidation actually fired, i.e. the
// interesting paths are exercised rather than vacuously green.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/report.hpp"
#include "data/dataset.hpp"
#include "fault/ha.hpp"
#include "stats_equal.hpp"

namespace sci {
namespace {

std::unique_ptr<sim_engine> run_engine(unsigned threads, bool contention) {
    engine_config config;
    config.scenario.scale = 0.02;  // ~36 nodes, ~960 VMs
    config.scenario.seed = 11;
    // hourly scrapes: recovery batches may cover every victim group queued
    // within the scrape interval, so retries and nearby crash epochs
    // coalesce into multi-group batches
    config.sampling_interval = 3600;
    config.population.daily_churn_fraction = 0.10;
    config.threads = threads;
    // mass-crash regime: ~18 host crashes/day on ~36 nodes with quick
    // repair, plus claim races and mid-copy aborts, keeps recovery under
    // genuine NoValidHost pressure (retry groups, abandoned victims)
    config.fault.host_crash_rate_per_day = 0.5;
    config.fault.crash_repair_time = hours(8);
    // slow failure detection coalesces nearby crash epochs into one
    // multi-group batch whose span regularly straddles the next crash
    config.fault.ha_restart_delay = 900;
    config.fault.claim_failure_probability = 0.02;
    config.fault.migration_abort_probability = 0.05;
    config.fault.maintenance_windows = 2;
    // tight spread forces multi-move rebalance passes, so later moves see
    // the usage versions their earlier siblings bumped
    config.cross_bb_interval = 7200;
    config.cross_bb.target_ram_spread = 0.05;
    config.contention_aware = contention;
    auto engine = std::make_unique<sim_engine>(config);
    engine->run();
    return engine;
}

/// Three mass-crash engines at 0/1/4 threads (expensive; built once).
std::vector<std::unique_ptr<sim_engine>>& faulted_runs() {
    static auto* runs = [] {
        auto* v = new std::vector<std::unique_ptr<sim_engine>>();
        for (const unsigned threads : {0u, 1u, 4u}) {
            v->push_back(run_engine(threads, false));
        }
        return v;
    }();
    return *runs;
}

/// Same, contention-aware: scrape epochs gate recovery-batch validity.
std::vector<std::unique_ptr<sim_engine>>& contention_runs() {
    static auto* runs = [] {
        auto* v = new std::vector<std::unique_ptr<sim_engine>>();
        for (const unsigned threads : {0u, 1u, 4u}) {
            v->push_back(run_engine(threads, true));
        }
        return v;
    }();
    return *runs;
}

/// The serial-reference assertion: thread-pool runs compared VM-by-VM
/// against the SCI_THREADS=0 run.
void expect_placements_equal(const sim_engine& serial, const sim_engine& pool) {
    const auto a = serial.vms().all();
    const auto b = pool.vms().all();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].state, b[i].state) << "vm " << i;
        ASSERT_EQ(a[i].placed_bb, b[i].placed_bb) << "vm " << i;
        ASSERT_EQ(a[i].placed_node, b[i].placed_node) << "vm " << i;
        ASSERT_EQ(a[i].migration_count, b[i].migration_count) << "vm " << i;
    }
}

TEST(HaBatchTest, VmPlacementsMatchSerialReference) {
    for (std::size_t i = 1; i < faulted_runs().size(); ++i) {
        expect_placements_equal(*faulted_runs()[0], *faulted_runs()[i]);
    }
}

TEST(HaBatchTest, ContentionVmPlacementsMatchSerialReference) {
    for (std::size_t i = 1; i < contention_runs().size(); ++i) {
        expect_placements_equal(*contention_runs()[0], *contention_runs()[i]);
    }
}

TEST(HaBatchTest, StatsAreBitIdenticalAcrossThreadCounts) {
    for (std::size_t i = 1; i < faulted_runs().size(); ++i) {
        expect_stats_equal(faulted_runs()[0]->stats(), faulted_runs()[i]->stats());
        expect_stats_equal(contention_runs()[0]->stats(),
                           contention_runs()[i]->stats());
    }
}

TEST(HaBatchTest, RecoveryBatchesCommitRestartsSpeculatively) {
    const run_stats& stats = faulted_runs()[0]->stats();
    EXPECT_GT(stats.host_crashes, 0u);
    EXPECT_GT(stats.crash_victims, 0u);
    EXPECT_GT(stats.recovery_batches, 0u);
    EXPECT_GT(stats.recovery_speculations, 0u);
    EXPECT_GT(stats.recovery_speculative_placements, 0u);
    // every speculated victim either commits speculatively, misses,
    // is dropped by an invalidation, or was deleted while down
    EXPECT_EQ(stats.recovery_speculations,
              stats.recovery_speculative_placements +
                  stats.recovery_speculation_misses +
                  stats.recovery_speculation_invalidated +
                  stats.recovery_speculation_cancelled);
    // the span record matches the counters
    const auto& spans = faulted_runs()[0]->recovery_batches();
    ASSERT_EQ(spans.size(), stats.recovery_batches);
    std::uint64_t speculated = 0;
    for (const sim_engine::churn_batch_span& s : spans) {
        EXPECT_LE(s.first, s.last);
        speculated += s.size;
    }
    EXPECT_EQ(speculated, stats.recovery_speculations);
}

TEST(HaBatchTest, ShrinksInvalidateOpenRecoveryBatches) {
    // deletions / further crashes land while recovery batches are open,
    // breaking the monotone-usage precondition: the tail must
    // re-speculate, not commit stale results
    EXPECT_GT(faulted_runs()[0]->stats().recovery_speculation_invalidated, 0u);
    EXPECT_GT(contention_runs()[0]->stats().recovery_speculation_invalidated,
              0u);
}

/// Does any recovery batch (spanning several victim groups: first < last)
/// stay open across an event of `kind`?  The batch is speculated at the
/// drain that opens it, so an event strictly inside (first, last]
/// intervened while the batch was open.
bool any_recovery_batch_straddles(const sim_engine& engine,
                                  lifecycle_event_kind kind) {
    for (const sim_engine::churn_batch_span& s : engine.recovery_batches()) {
        if (s.size < 2 || s.first == s.last) continue;
        for (const lifecycle_event& e : engine.events().between(s.first + 1,
                                                                s.last + 1)) {
            if (e.kind == kind) return true;
        }
    }
    return false;
}

TEST(HaBatchTest, RecoveryBatchStraddlesSecondCrash) {
    // the mass-crash scenario: a batch speculated for one detection epoch
    // stays open while another host crashes (which both enqueues a new
    // victim group and invalidates the open batch's tail)
    EXPECT_TRUE(any_recovery_batch_straddles(*faulted_runs()[0],
                                             lifecycle_event_kind::crash));
}

TEST(HaBatchTest, RebalanceTargetsSpeculatedAndConsumed) {
    const run_stats& stats = faulted_runs()[0]->stats();
    EXPECT_GT(stats.cross_bb_moves, 0u);
    EXPECT_GT(stats.rebalance_target_speculations, 0u);
    EXPECT_GT(stats.rebalance_targets_used, 0u);
    // every speculated target is either consumed by its move or dropped
    // when an earlier commit bumped the destination's usage version
    EXPECT_EQ(stats.rebalance_target_speculations,
              stats.rebalance_targets_used + stats.rebalance_target_invalidated);
    // multi-move passes share destination clusters, so mid-batch commits
    // really do invalidate later targets
    EXPECT_GT(stats.rebalance_target_invalidated, 0u);
}

TEST(HaBatchTest, HaAccountingIsConsistent) {
    const sim_engine& engine = *faulted_runs()[0];
    const run_stats& stats = engine.stats();
    const ha_controller& ha = *engine.ha();
    EXPECT_EQ(stats.crash_victims, ha.crashed_vms());
    EXPECT_EQ(stats.ha_restarts, ha.restarted_vms());
    // the attempt-budget regression guard: attempts are charged once per
    // genuine NoValidHost outcome — a speculation miss falls back to the
    // serial retry rounds of the SAME attempt and never reaches the HA
    // controller, so the two failure counters agree exactly
    EXPECT_EQ(stats.ha_restart_failures, ha.failed_attempts());
    // every crashed VM is restarted, abandoned, deleted while down, or
    // still pending at window end
    EXPECT_EQ(ha.crashed_vms(), ha.restarted_vms() + ha.abandoned_vms() +
                                    ha.cancelled_vms() + ha.pending_count());
    EXPECT_EQ(ha.downtime_samples().size(), ha.restarted_vms());
}

TEST(HaBatchTest, AttemptBudgetIsPerRecoveryAndMissFree) {
    // unit-level regression for the attempt double-count: only
    // on_restart_failure charges the budget, and a fresh crash after a
    // successful restart starts from zero again
    ha_controller ha(/*retry_backoff=*/600, /*max_restart_attempts=*/3);
    const vm_id vm(7);
    ha.on_crash(vm, 1000);
    EXPECT_EQ(ha.attempts_of(vm), 0);
    // two failed attempts grant retries and charge exactly one each
    ASSERT_TRUE(ha.on_restart_failure(vm, 1120).has_value());
    EXPECT_EQ(ha.attempts_of(vm), 1);
    ASSERT_TRUE(ha.on_restart_failure(vm, 1720).has_value());
    EXPECT_EQ(ha.attempts_of(vm), 2);
    // success clears the pending state without touching the budget
    ha.on_restart_success(vm, 2320);
    EXPECT_FALSE(ha.pending(vm));
    EXPECT_EQ(ha.attempts_of(vm), 0);
    EXPECT_EQ(ha.failed_attempts(), 2u);
    // a fresh crash must NOT inherit the previous recovery's attempts:
    // the full budget is available again
    ha.on_crash(vm, 5000);
    EXPECT_EQ(ha.attempts_of(vm), 0);
    ASSERT_TRUE(ha.on_restart_failure(vm, 5120).has_value());
    ASSERT_TRUE(ha.on_restart_failure(vm, 5720).has_value());
    // third failure exhausts the budget: the victim is abandoned
    EXPECT_FALSE(ha.on_restart_failure(vm, 6320).has_value());
    EXPECT_FALSE(ha.pending(vm));
    EXPECT_EQ(ha.abandoned_vms(), 1u);
    EXPECT_EQ(ha.failed_attempts(), 5u);
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

TEST(HaBatchTest, ReportHashesAreBitIdentical) {
    const std::uint64_t ref = hash_string(markdown_report(*faulted_runs()[0]));
    const std::uint64_t contention_ref =
        hash_string(markdown_report(*contention_runs()[0]));
    EXPECT_NE(ref, contention_ref);  // the runs differ; only threads must not
    for (std::size_t i = 1; i < faulted_runs().size(); ++i) {
        EXPECT_EQ(ref, hash_string(markdown_report(*faulted_runs()[i])));
        EXPECT_EQ(contention_ref,
                  hash_string(markdown_report(*contention_runs()[i])));
    }
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

TEST(HaBatchTest, DatasetExportsAreBitIdentical) {
    const std::filesystem::path base = "habtest_dataset";
    const std::uint64_t ref =
        hash_dataset_export(*faulted_runs()[0], base / "f0");
    const std::uint64_t contention_ref =
        hash_dataset_export(*contention_runs()[0], base / "c0");
    for (std::size_t i = 1; i < faulted_runs().size(); ++i) {
        EXPECT_EQ(ref, hash_dataset_export(*faulted_runs()[i],
                                           base / ("f" + std::to_string(i))));
        EXPECT_EQ(contention_ref,
                  hash_dataset_export(*contention_runs()[i],
                                      base / ("c" + std::to_string(i))));
    }
    std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace sci

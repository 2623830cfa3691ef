// Determinism guard for the speculative parallel initial placement and
// the zero-copy scheduler fast path: fixed-seed runs at SCI_THREADS ∈
// {0, 1, 4} must produce bit-identical placements, stats, reports, and
// exported datasets — including a faulted run (crash rate > 0) so HA
// re-placement goes through the reworked conductor path.  The commit
// pass is exact (commit_speculation revalidates providers claimed since
// the batch snapshot), so this holds bitwise, not approximately.
//
// Conductor-level cases additionally pin the speculation semantics
// against a pristine (non-speculative) twin: commits match what the
// plain retry loop would pick even as earlier commits dirty the
// snapshot, and a speculation miss falls back without double-counting
// retries.

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
#include "sched/conductor.hpp"
#include "stats_equal.hpp"

namespace sci {
namespace {

// ---------------------------------------------------------------------------
// engine-level determinism across thread counts
// ---------------------------------------------------------------------------

std::unique_ptr<sim_engine> run_engine(unsigned threads, double crash_rate) {
    engine_config config;
    config.scenario.scale = 0.02;  // ~36 nodes, ~960 VMs
    config.scenario.seed = 11;
    config.sampling_interval = 900;
    config.threads = threads;
    config.fault.host_crash_rate_per_day = crash_rate;
    auto engine = std::make_unique<sim_engine>(config);
    engine->run();
    return engine;
}

/// Three default-config engines at 0/1/4 threads (expensive; built once).
std::vector<std::unique_ptr<sim_engine>>& default_runs() {
    static auto* runs = [] {
        auto* v = new std::vector<std::unique_ptr<sim_engine>>();
        for (const unsigned threads : {0u, 1u, 4u}) {
            v->push_back(run_engine(threads, 0.0));
        }
        return v;
    }();
    return *runs;
}

/// Same, with host crashes injected so HA re-placement runs in-window.
std::vector<std::unique_ptr<sim_engine>>& faulted_runs() {
    static auto* runs = [] {
        auto* v = new std::vector<std::unique_ptr<sim_engine>>();
        for (const unsigned threads : {0u, 1u, 4u}) {
            v->push_back(run_engine(threads, 0.05));
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

TEST(ParallelPlacementTest, VmPlacementsMatchSerialReference) {
    for (std::size_t i = 1; i < default_runs().size(); ++i) {
        expect_placements_equal(*default_runs()[0], *default_runs()[i]);
    }
}

TEST(ParallelPlacementTest, FaultedVmPlacementsMatchSerialReference) {
    for (std::size_t i = 1; i < faulted_runs().size(); ++i) {
        expect_placements_equal(*faulted_runs()[0], *faulted_runs()[i]);
    }
}

TEST(ParallelPlacementTest, StatsAreBitIdenticalAcrossThreadCounts) {
    for (std::size_t i = 1; i < default_runs().size(); ++i) {
        expect_stats_equal(default_runs()[0]->stats(), default_runs()[i]->stats());
        expect_stats_equal(faulted_runs()[0]->stats(), faulted_runs()[i]->stats());
    }
}

TEST(ParallelPlacementTest, SpeculationCommitsTheInitialPopulation) {
    const run_stats& stats = default_runs()[0]->stats();
    EXPECT_GT(stats.speculative_placements, 0u);
    EXPECT_LE(stats.speculative_placements, stats.placements);
    // the faulted run places the same initial population speculatively
    EXPECT_EQ(faulted_runs()[0]->stats().speculative_placements,
              stats.speculative_placements);
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

TEST(ParallelPlacementTest, ReportHashesAreBitIdentical) {
    const std::uint64_t ref = hash_string(markdown_report(*default_runs()[0]));
    const std::uint64_t faulted_ref =
        hash_string(markdown_report(*faulted_runs()[0]));
    EXPECT_NE(ref, faulted_ref);  // the runs differ; only threads must not
    for (std::size_t i = 1; i < default_runs().size(); ++i) {
        EXPECT_EQ(ref, hash_string(markdown_report(*default_runs()[i])));
        EXPECT_EQ(faulted_ref, hash_string(markdown_report(*faulted_runs()[i])));
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

TEST(ParallelPlacementTest, DatasetExportsAreBitIdentical) {
    const std::filesystem::path base = "pptest_dataset";
    const std::uint64_t ref =
        hash_dataset_export(*default_runs()[0], base / "t0");
    const std::uint64_t faulted_ref =
        hash_dataset_export(*faulted_runs()[0], base / "f0");
    for (std::size_t i = 1; i < default_runs().size(); ++i) {
        EXPECT_EQ(ref, hash_dataset_export(*default_runs()[i],
                                           base / ("t" + std::to_string(i))));
        EXPECT_EQ(faulted_ref,
                  hash_dataset_export(*faulted_runs()[i],
                                      base / ("f" + std::to_string(i))));
    }
    std::filesystem::remove_all(base);
}

// ---------------------------------------------------------------------------
// conductor-level speculation semantics
// ---------------------------------------------------------------------------

struct speculation_fixture {
    fleet f;
    flavor_catalog catalog;
    placement_service placement;  ///< speculative conductor's allocations
    placement_service twin;       ///< pristine reference conductor's
    flavor_id small;

    speculation_fixture() {
        const region_id r = f.add_region("r");
        const az_id az = f.add_az(r, "az");
        const dc_id dc = f.add_dc(az, "dc");
        f.add_bb(dc, "gen-0", bb_purpose::general, profiles::general_purpose(), 2);
        f.add_bb(dc, "gen-1", bb_purpose::general, profiles::general_purpose(), 2);
        f.add_bb(dc, "gen-2", bb_purpose::general, profiles::general_purpose(), 2);
        small = catalog.add("g_c8_m64", 8, gib_to_mib(64), 200.0,
                            workload_class::general_purpose);
        for (placement_service* p : {&placement, &twin}) {
            for (const building_block& bb : f.bbs()) {
                const allocation_ratios ratios = default_ratios_for(bb.purpose);
                p->register_provider(
                    bb.id,
                    provider_inventory{f.bb_total_cores(bb.id),
                                       f.bb_total_memory(bb.id),
                                       bb.profile.storage_gib *
                                           static_cast<double>(bb.nodes.size()),
                                       ratios.cpu, ratios.ram});
            }
        }
    }

    schedule_request request(int vm) {
        schedule_request r;
        r.vm = vm_id(vm);
        r.flavor = small;
        r.project = project_id(0);
        r.policy = placement_policy::spread;
        return r;
    }
};

TEST(SpeculativeConductorTest, CommitMatchesPristineScheduleAsBatchDirties) {
    speculation_fixture fx;
    conductor nova(fx.f, fx.catalog, fx.placement, make_default_scheduler());
    conductor reference(fx.f, fx.catalog, fx.twin, make_default_scheduler());

    // one batch: speculate every request against the opening snapshot +
    // claim counters, then commit serially — earlier commits dirty the
    // providers later speculations must revalidate against
    constexpr int batch = 24;
    const std::vector<host_state> snapshot = nova.build_host_states();
    std::vector<std::uint64_t> base_counts;
    nova.snapshot_claim_counts(base_counts);
    std::vector<host_speculation> specs(batch);
    for (int i = 0; i < batch; ++i) {
        const schedule_request rq = fx.request(i);
        const request_context ctx{rq, fx.catalog.get(rq.flavor)};
        nova.scheduler().speculate(ctx, snapshot, specs[i]);
        EXPECT_TRUE(specs[i].valid);
        EXPECT_EQ(specs[i].survivors.size(), 3u);  // all general BBs fit
    }
    for (int i = 0; i < batch; ++i) {
        const placement_outcome committed =
            nova.schedule_and_claim(fx.request(i), &specs[i], base_counts);
        const placement_outcome pristine =
            reference.schedule_and_claim(fx.request(i));
        ASSERT_TRUE(committed.success);
        ASSERT_TRUE(pristine.success);
        EXPECT_EQ(committed.bb, pristine.bb) << "vm " << i;
        EXPECT_EQ(committed.attempts, pristine.attempts) << "vm " << i;
    }
    EXPECT_EQ(nova.speculative_placement_count(), static_cast<std::uint64_t>(batch));
    EXPECT_EQ(nova.speculation_miss_count(), 0u);
    EXPECT_EQ(nova.retry_count(), reference.retry_count());
}

TEST(SpeculativeConductorTest, MissFallsBackWithoutDoubleCountingRetries) {
    speculation_fixture fx;
    conductor nova(fx.f, fx.catalog, fx.placement, make_default_scheduler());
    conductor reference(fx.f, fx.catalog, fx.twin, make_default_scheduler());
    // Transient claim races exhaust every alternate of the first pass:
    // the commit path burns through all speculated candidates (a miss)
    // and the request must be re-placed by the pristine retry loop.
    const auto fault = [](vm_id, bb_id, int attempt) { return attempt <= 4; };
    nova.set_claim_fault(fault);
    reference.set_claim_fault(fault);

    const std::vector<host_state> snapshot = nova.build_host_states();
    std::vector<std::uint64_t> base_counts;
    nova.snapshot_claim_counts(base_counts);
    host_speculation spec;
    const schedule_request rq = fx.request(0);
    {
        const request_context ctx{rq, fx.catalog.get(rq.flavor)};
        nova.scheduler().speculate(ctx, snapshot, spec);
    }
    const placement_outcome committed =
        nova.schedule_and_claim(rq, &spec, base_counts);
    const placement_outcome pristine = reference.schedule_and_claim(rq);

    ASSERT_TRUE(committed.success);
    ASSERT_TRUE(pristine.success);
    EXPECT_EQ(nova.speculation_miss_count(), 1u);
    EXPECT_EQ(nova.speculative_placement_count(), 0u);
    EXPECT_EQ(committed.bb, pristine.bb);
    // the miss reset the attempt count, so the retries stat matches the
    // pristine conductor's exactly — no double-billing of the first pass
    EXPECT_EQ(committed.attempts, pristine.attempts);
    EXPECT_EQ(nova.retry_count(), reference.retry_count());
}

}  // namespace
}  // namespace sci

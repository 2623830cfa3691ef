// sci::fault acceptance tests:
//   - the all-zero fault_config is fully inert (no schedule, no events,
//     byte-identical runs to an engine that never heard of faults),
//   - the compiled fault schedule is a pure function of (config, fleet,
//     seed),
//   - a faulted run is bit-identical at 0 / 1 / 4 worker threads (all
//     fault RNG draws happen in the serial event loop),
//   - HA recovery re-places crash victims through the real conductor and
//     accounts downtime, also under mass crashes with give-ups.
//
// Registered as a single ctest entry: the cases share six expensive
// engine runs built once.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "fault/fault.hpp"
#include "stats_equal.hpp"

namespace sci {
namespace {

fault_config test_faults() {
    fault_config fc;
    fc.host_crash_rate_per_day = 0.004;
    fc.claim_failure_probability = 0.05;
    fc.migration_abort_probability = 0.05;
    fc.degraded_node_fraction = 0.10;
    fc.maintenance_windows = 2;
    return fc;
}

engine_config base_config() {
    engine_config config;
    config.scenario.scale = 0.02;  // ~36 nodes, ~960 VMs
    config.scenario.seed = 11;
    config.sampling_interval = 900;
    return config;
}

std::unique_ptr<sim_engine> run_engine(const engine_config& config) {
    auto engine = std::make_unique<sim_engine>(config);
    engine->run();
    return engine;
}

struct shared_runs {
    /// Faulted runs at 0 / 1 / 4 worker threads.
    std::vector<std::unique_ptr<sim_engine>> faulted;
    /// Plain default-config run (the pre-fault baseline).
    std::unique_ptr<sim_engine> plain;
    /// All rates zero but HA policy knobs changed: still !enabled(), must
    /// reproduce the plain run byte-for-byte.
    std::unique_ptr<sim_engine> inert;
};

const shared_runs& runs() {
    static auto* shared = [] {
        auto* r = new shared_runs();
        for (const unsigned threads : {0u, 1u, 4u}) {
            engine_config config = base_config();
            config.threads = threads;
            config.fault = test_faults();
            r->faulted.push_back(run_engine(config));
        }
        r->plain = run_engine(base_config());
        engine_config inert = base_config();
        inert.fault.ha_restart_delay = 999;
        inert.fault.ha_max_restart_attempts = 2;
        inert.fault.degraded_cpu_factor = 0.5;
        r->inert = run_engine(inert);
        return r;
    }();
    return *shared;
}

/// ~18 host crashes/day on ~36 nodes with quick repair, slow failure
/// detection, claim races and mid-copy aborts: HA recovery under genuine
/// NoValidHost pressure (retry groups, give-ups).  Built on first use.
const sim_engine& mass_crash_run() {
    static const sim_engine* engine = [] {
        engine_config config = base_config();
        config.sampling_interval = 3600;
        config.population.daily_churn_fraction = 0.10;
        config.fault.host_crash_rate_per_day = 0.5;
        config.fault.crash_repair_time = hours(8);
        config.fault.ha_restart_delay = 900;
        config.fault.claim_failure_probability = 0.02;
        config.fault.migration_abort_probability = 0.05;
        config.fault.maintenance_windows = 2;
        config.cross_bb_interval = 7200;
        config.cross_bb.target_ram_spread = 0.05;
        return run_engine(config).release();
    }();
    return *engine;
}

// --- inert defaults ---------------------------------------------------------

TEST(FaultTest, DefaultConfigIsDisabled) {
    EXPECT_FALSE(fault_config{}.enabled());
    EXPECT_TRUE(test_faults().enabled());
    fault_config policy_only;
    policy_only.ha_restart_delay = 999;  // policy knobs alone don't enable
    EXPECT_FALSE(policy_only.enabled());
}

TEST(FaultTest, DisabledConfigCompilesEmptySchedule) {
    const auto& plain = *runs().plain;
    EXPECT_TRUE(compile_fault_schedule(fault_config{}, plain.infrastructure(),
                                       plain.config().scenario.seed)
                    .empty());
}

TEST(FaultTest, PlainRunHasNoFaultFootprint) {
    const auto& plain = *runs().plain;
    EXPECT_EQ(plain.ha(), nullptr);
    EXPECT_EQ(plain.transient_claim_failures(), 0u);
    EXPECT_EQ(plain.stats().host_crashes, 0u);
    EXPECT_EQ(plain.stats().crash_victims, 0u);
    EXPECT_EQ(plain.stats().migration_aborts, 0u);
    EXPECT_EQ(plain.events().count(lifecycle_event_kind::crash), 0u);
    EXPECT_EQ(plain.events().count(lifecycle_event_kind::ha_restart), 0u);
}

TEST(FaultTest, ZeroRatesReproduceThePlainRunExactly) {
    const auto& plain = *runs().plain;
    const auto& inert = *runs().inert;
    expect_stats_equal(plain.stats(), inert.stats());
    EXPECT_EQ(plain.store().total_samples(), inert.store().total_samples());
    EXPECT_EQ(plain.store().series_count(), inert.store().series_count());
    EXPECT_EQ(plain.events().size(), inert.events().size());
    const auto a = plain.vms().all();
    const auto b = inert.vms().all();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].state, b[i].state);
        EXPECT_EQ(a[i].placed_node, b[i].placed_node);
        EXPECT_EQ(a[i].migration_count, b[i].migration_count);
    }
}

// --- schedule compilation ---------------------------------------------------

TEST(FaultTest, ScheduleIsPureInConfigFleetAndSeed) {
    const auto& plain = *runs().plain;
    const fault_config fc = test_faults();
    const auto a = compile_fault_schedule(fc, plain.infrastructure(), 11);
    const auto b = compile_fault_schedule(fc, plain.infrastructure(), 11);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].t, b[i].t);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].node, b[i].node);
        EXPECT_EQ(a[i].cpu_factor, b[i].cpu_factor);
    }
    // a different seed draws a different schedule
    const auto c = compile_fault_schedule(fc, plain.infrastructure(), 12);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a[i].t != c[i].t || a[i].node != c[i].node;
    }
    EXPECT_TRUE(differs);
}

TEST(FaultTest, ScheduleIsSortedAndInsideTheWindow) {
    const auto& plain = *runs().plain;
    const auto schedule =
        compile_fault_schedule(test_faults(), plain.infrastructure(), 11);
    ASSERT_FALSE(schedule.empty());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        EXPECT_GE(schedule[i].t, 0);
        EXPECT_LT(schedule[i].t, observation_window);
        if (i > 0) EXPECT_LE(schedule[i - 1].t, schedule[i].t);
    }
}

// --- thread-count determinism ----------------------------------------------

TEST(FaultTest, FaultedStatsAreBitIdenticalAcrossThreadCounts) {
    const auto& faulted = runs().faulted;
    ASSERT_GT(faulted[0]->stats().host_crashes, 0u);
    expect_stats_equal(faulted[0]->stats(), faulted[1]->stats());
    expect_stats_equal(faulted[0]->stats(), faulted[2]->stats());
    EXPECT_EQ(faulted[0]->transient_claim_failures(),
              faulted[1]->transient_claim_failures());
    EXPECT_EQ(faulted[0]->transient_claim_failures(),
              faulted[2]->transient_claim_failures());
}

TEST(FaultTest, FaultedTelemetryIsBitIdenticalAcrossThreadCounts) {
    const auto& faulted = runs().faulted;
    for (std::size_t i = 1; i < faulted.size(); ++i) {
        EXPECT_EQ(faulted[0]->store().total_samples(),
                  faulted[i]->store().total_samples());
        EXPECT_EQ(faulted[0]->store().series_count(),
                  faulted[i]->store().series_count());
        EXPECT_EQ(faulted[0]->events().size(), faulted[i]->events().size());
    }
    using namespace metric_names;
    for (std::size_t i = 1; i < faulted.size(); ++i) {
        for (const auto metric : {host_cpu_contention, host_cpu_ready}) {
            const std::vector<series_id> sa = faulted[0]->store().select(metric);
            const std::vector<series_id> sb = faulted[i]->store().select(metric);
            ASSERT_EQ(sa.size(), sb.size());
            for (std::size_t k = 0; k < sa.size(); k += 5) {
                const running_stats wa =
                    faulted[0]->store().window_aggregate(sa[k]);
                const running_stats wb =
                    faulted[i]->store().window_aggregate(sb[k]);
                EXPECT_EQ(wa.count(), wb.count());
                EXPECT_EQ(wa.mean(), wb.mean());  // bitwise
                EXPECT_EQ(wa.max(), wb.max());
            }
        }
    }
}

TEST(FaultTest, FaultedDowntimeSamplesAreBitIdenticalAcrossThreadCounts) {
    const auto& faulted = runs().faulted;
    for (std::size_t i = 1; i < faulted.size(); ++i) {
        ASSERT_NE(faulted[0]->ha(), nullptr);
        ASSERT_NE(faulted[i]->ha(), nullptr);
        EXPECT_EQ(faulted[0]->ha()->downtime_samples(),
                  faulted[i]->ha()->downtime_samples());
    }
}

// --- HA recovery behavior ----------------------------------------------------

TEST(FaultTest, CrashVictimsAreAccountedFor) {
    const auto& engine = *runs().faulted[0];
    const ha_controller& ha = *engine.ha();
    const run_stats& stats = engine.stats();
    ASSERT_GT(stats.crash_victims, 0u);
    EXPECT_EQ(ha.crashed_vms(), stats.crash_victims);
    // every victim ends restarted, abandoned, deleted-while-down, or with
    // a restart still pending past the window's end
    EXPECT_EQ(ha.crashed_vms(), ha.restarted_vms() + ha.abandoned_vms() +
                                    ha.cancelled_vms() + ha.pending_count());
    EXPECT_EQ(ha.restarted_vms(), stats.ha_restarts);
    EXPECT_EQ(ha.downtime_samples().size(), stats.ha_restarts);
}

TEST(FaultTest, RestartedVictimsAreActiveOnRealNodes) {
    const auto& engine = *runs().faulted[0];
    std::uint64_t restart_events = 0;
    for (const lifecycle_event& e : engine.events().all()) {
        if (e.kind != lifecycle_event_kind::ha_restart) continue;
        ++restart_events;
        EXPECT_TRUE(e.bb.valid());
        EXPECT_TRUE(e.to.valid());
    }
    EXPECT_EQ(restart_events, engine.stats().ha_restarts);
    EXPECT_EQ(engine.events().count(lifecycle_event_kind::crash),
              engine.stats().crash_victims);
}

TEST(FaultTest, DowntimeIsAtLeastTheDetectionDelay) {
    const auto& engine = *runs().faulted[0];
    const double delay =
        static_cast<double>(engine.config().fault.ha_restart_delay);
    ASSERT_FALSE(engine.ha()->downtime_samples().empty());
    for (const double d : engine.ha()->downtime_samples()) {
        EXPECT_GE(d, delay);
    }
    EXPECT_GE(engine.ha()->mttr(), delay);
}

TEST(FaultTest, HaAccountingIsConsistent) {
    const sim_engine& engine = mass_crash_run();
    const run_stats& stats = engine.stats();
    const ha_controller& ha = *engine.ha();
    ASSERT_GT(stats.ha_restart_failures, 0u);  // the run is under pressure
    EXPECT_EQ(stats.crash_victims, ha.crashed_vms());
    EXPECT_EQ(stats.ha_restarts, ha.restarted_vms());
    // the attempt-budget regression guard: attempts are charged once per
    // genuine NoValidHost outcome — the claim retries inside one restart
    // never reach the HA controller, so the two failure counters agree
    // exactly
    EXPECT_EQ(stats.ha_restart_failures, ha.failed_attempts());
    // every crashed VM is restarted, abandoned, deleted while down, or
    // still pending at window end
    EXPECT_EQ(ha.crashed_vms(), ha.restarted_vms() + ha.abandoned_vms() +
                                    ha.cancelled_vms() + ha.pending_count());
    EXPECT_EQ(ha.downtime_samples().size(), ha.restarted_vms());
}

TEST(FaultTest, AttemptBudgetIsPerRecoveryAndMissFree) {
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

TEST(FaultTest, ActiveListMatchesRegistryCount) {
    for (const auto* engine :
         {runs().faulted[0].get(), runs().plain.get()}) {
        std::size_t active = 0;
        for (const vm_record& rec : engine->vms().all()) {
            if (rec.state == vm_state::active) ++active;
        }
        EXPECT_EQ(engine->active_vm_count(), active);
    }
}

}  // namespace
}  // namespace sci

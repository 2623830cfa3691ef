// Perf: checkpoint & what-if forking (sci::snapshot).
//
// Measures the four snapshot primitives (capture, serialize, restore,
// fork) and the workflow they enable: a two-arm policy ablation that
// forks one shared prefix instead of simulating it twice, plus
// concurrent read-only what-if placement queries against one hot
// snapshot.
//
// SCI_BENCH_DAYS caps the simulated window for CI smoke runs; capped
// runs are never recorded into BENCH_engine.json — a short window would
// corrupt the perf trajectory future PRs diff against.

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "simcore/thread_pool.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/whatif.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point begin) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

}  // namespace

int main() {
    using namespace sci;
    benchutil::print_header(
        "Perf — snapshot capture/restore/fork & what-if queries",
        "a checkpoint makes N-arm ablations pay the shared prefix once "
        "and serves concurrent read-only placement what-ifs");

    engine_config config = benchutil::default_config();
    config.scenario.scale = 0.25;  // the ablation acceptance point
    const int cap_days = sci::benchutil::env_bench_days();
    const int window_days = cap_days > 0 ? cap_days : 30;
    const sim_time window_end = days(window_days);
    // fork point at 95% of the window: the what-if is "from here, what
    // if the policy changed" — the prefix is the shared, forkable part
    const sim_time fork_at = window_end / 20 * 19;

    // Untimed warmup: the first large run of the process pays allocator
    // arena growth and page faults that neither measured path should own.
    {
        sim_engine warmup(config);
        warmup.setup();
        warmup.run_until(fork_at);
    }

    // --- shared prefix (timed from construction: the fork path owns its
    // one setup, exactly as each run-twice arm owns one) -------------------
    auto begin = std::chrono::steady_clock::now();
    sim_engine base(config);
    base.setup();
    base.run_until(fork_at);
    const double prefix_ms = ms_since(begin);

    // --- primitive costs ---------------------------------------------------
    begin = std::chrono::steady_clock::now();
    snapshot::engine_state state = snapshot::capture(base);
    const double capture_ms = ms_since(begin);

    begin = std::chrono::steady_clock::now();
    const std::vector<std::byte> bytes = snapshot::serialize(state);
    const double serialize_ms = ms_since(begin);

    begin = std::chrono::steady_clock::now();
    std::unique_ptr<sim_engine> restored =
        snapshot::restore(snapshot::deserialize(bytes));
    const double restore_ms = ms_since(begin);
    restored.reset();

    const snapshot::shared_snapshot shared = snapshot::share(std::move(state));
    begin = std::chrono::steady_clock::now();
    std::unique_ptr<sim_engine> probe = snapshot::fork(shared);
    const double fork_ms = ms_since(begin);
    probe.reset();

    std::printf("prefix (%d%% of %d days): %.1f ms\n", 95, window_days,
                prefix_ms);
    std::printf("capture: %.1f ms   serialize: %.1f ms (%.1f MiB)   "
                "restore: %.1f ms   fork: %.1f ms\n",
                capture_ms, serialize_ms,
                static_cast<double>(bytes.size()) / (1024.0 * 1024.0),
                restore_ms, fork_ms);

    // --- two-arm ablation: fork-once vs run-twice --------------------------
    // Arms: DRS stays on vs DRS off for the remaining 5% of the window.
    begin = std::chrono::steady_clock::now();
    std::uint64_t fork_migrations[2] = {0, 0};
    for (int arm = 0; arm < 2; ++arm) {
        std::unique_ptr<sim_engine> fork_arm = snapshot::fork(shared);
        fork_arm->set_drs_enabled(arm == 0);
        fork_arm->run_until(window_end);
        fork_migrations[arm] = fork_arm->stats().drs_migrations;
    }
    const double fork_path_ms = ms_since(begin) + prefix_ms + capture_ms;

    begin = std::chrono::steady_clock::now();
    std::uint64_t twice_migrations[2] = {0, 0};
    for (int arm = 0; arm < 2; ++arm) {
        sim_engine engine(config);
        engine.setup();
        engine.run_until(fork_at);
        engine.set_drs_enabled(arm == 0);
        engine.run_until(window_end);
        twice_migrations[arm] = engine.stats().drs_migrations;
    }
    const double run_twice_ms = ms_since(begin);

    const bool arms_match = fork_migrations[0] == twice_migrations[0] &&
                            fork_migrations[1] == twice_migrations[1];
    std::printf("2-arm DRS ablation: fork-once %.1f ms vs run-twice %.1f ms "
                "(%.0f%%, arms %s)\n",
                fork_path_ms, run_twice_ms, 100.0 * fork_path_ms / run_twice_ms,
                arms_match ? "identical" : "DIVERGED");

    // --- concurrent what-if queries ----------------------------------------
    std::unique_ptr<sim_engine> hot = snapshot::fork(shared);
    const snapshot::whatif_planner planner(*hot);
    std::vector<snapshot::whatif_query> queries;
    const auto records = hot->vms().all();
    constexpr std::size_t query_count = 2000;
    for (std::size_t i = 0; i < query_count; ++i) {
        snapshot::whatif_query q;
        q.flavor = records[i % records.size()].flavor;
        q.policy =
            i % 2 == 0 ? placement_policy::spread : placement_policy::pack;
        queries.push_back(q);
    }
    constexpr std::size_t batches = 4;
    std::vector<snapshot::whatif_result> results(batches);
    thread_pool pool(batches);
    begin = std::chrono::steady_clock::now();
    pool.run_tasks(batches,
                   [&](std::size_t i) { results[i] = planner.plan(queries); });
    const double whatif_ms = ms_since(begin);
    const double whatif_qps =
        static_cast<double>(query_count * batches) / (whatif_ms / 1000.0);
    std::printf("%zu concurrent what-if batches x %zu queries: %.1f ms "
                "(%.0f queries/s, %zu placed per batch)\n",
                batches, query_count, whatif_ms, whatif_qps,
                results[0].placed);

    if (cap_days == 0) {
        const double mib = static_cast<double>(bytes.size()) /
                           (1024.0 * 1024.0);
        benchutil::record_bench("snapshot_capture/scale=0.25", capture_ms, 0.0);
        benchutil::record_bench("snapshot_serialize/scale=0.25", serialize_ms,
                                mib);
        benchutil::record_bench("snapshot_restore/scale=0.25", restore_ms, 0.0);
        benchutil::record_bench("snapshot_fork/scale=0.25", fork_ms, 0.0);
        benchutil::record_bench("snapshot_fork_ablation_2arm/scale=0.25",
                                fork_path_ms,
                                run_twice_ms / fork_path_ms);  // speedup
        benchutil::record_bench("snapshot_run_twice_2arm/scale=0.25",
                                run_twice_ms, 0.0);
        benchutil::record_bench("snapshot_whatif_concurrent4/scale=0.25",
                                whatif_ms, whatif_qps);
    }
    return arms_match ? 0 : 1;
}

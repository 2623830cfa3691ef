// Ablation: DRS on vs. off — Section 3.1: DRS "triggers automatic
// migrations of VMs from over-utilized to less utilized hosts".  With DRS
// disabled, intra-BB imbalance and node-level contention should rise.
//
// Both arms fork one shared snapshot taken right after the initial
// placement settles (sci::snapshot): the population build and first
// scrape are paid once instead of per arm.  A fork switched off with
// set_drs_enabled runs exactly like a fresh run with drs.enabled = false
// (snapshot_test pins this).

#include <chrono>
#include <iostream>
#include <memory>

#include "analysis/figures.hpp"
#include "analysis/render.hpp"
#include "common.hpp"
#include "snapshot/snapshot.hpp"

namespace {

struct outcome {
    sci::imbalance_summary imbalance;
    double worst_contention = 0.0;
    std::uint64_t migrations = 0;
};

sci::engine_config arm_config() {
    sci::engine_config config = sci::benchutil::default_config();
    config.scenario.scale = std::min(config.scenario.scale, 0.05);
    return config;
}

outcome measure(sci::sim_engine& engine) {
    outcome out;
    out.imbalance =
        sci::intra_bb_imbalance(engine.store(), engine.infrastructure());
    for (const auto& day : sci::fig9_contention_by_day(engine.store())) {
        out.worst_contention = std::max(out.worst_contention, day.max_pct);
    }
    out.migrations = engine.stats().drs_migrations;
    return out;
}

outcome run_fork(const sci::snapshot::shared_snapshot& base,
                 bool drs_enabled) {
    std::unique_ptr<sci::sim_engine> engine = sci::snapshot::fork(base);
    engine->set_drs_enabled(drs_enabled);
    engine->run();
    return measure(*engine);
}

double ms_since(std::chrono::steady_clock::time_point begin) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

}  // namespace

int main() {
    using namespace sci;
    benchutil::print_header(
        "Ablation — DRS rebalancing on vs. off",
        "DRS keeps vSphere clusters balanced; without it, fragmentation and "
        "imbalanced resource distribution arise within clusters (Section 3.1)");

    // one shared prefix (setup + first scrape), two forks
    const auto begin = std::chrono::steady_clock::now();
    snapshot::shared_snapshot base;
    {
        sim_engine prefix(arm_config());
        prefix.setup();
        prefix.run_until(0);  // initial scrape: the arms diverge after it
        base = snapshot::share(snapshot::capture(prefix));
    }
    const outcome on = run_fork(base, true);
    const outcome off = run_fork(base, false);
    const double fork_ms = ms_since(begin);

    table_printer table({"DRS", "migrations", "mean intra-BB stddev %",
                         "max intra-BB spread %", "max node util %",
                         "worst contention %"});
    const auto row = [&](const char* label, const outcome& o) {
        table.add_row({label, std::to_string(o.migrations),
                       format_double(o.imbalance.mean_intra_bb_stddev_pct),
                       format_double(o.imbalance.max_intra_bb_spread_pct),
                       format_double(o.imbalance.max_node_util_pct),
                       format_double(o.worst_contention)});
    };
    row("on", on);
    row("off", off);
    std::cout << table.to_string();
    std::cout << "\nfork-from-snapshot arms: " << format_double(fork_ms)
              << " ms\n";
    std::cout << "expected: DRS-off shows higher intra-BB imbalance\n";
    benchutil::record_bench("abl_drs_onoff/fork_arms=2", fork_ms, 0.0);
    return 0;
}

// scisim — command-line driver for the SAP Cloud Infrastructure
// reproduction.
//
//   scisim simulate [--scale S] [--seed N] [--out DIR]   run + export dataset
//   scisim report   [--scale S] [--seed N]               run + key findings
//       both accept --regions N: run N regions (seeds derived per region)
//       concurrently on one shared pool and aggregate across the fleet
//   scisim analyze  --out DIR                            analyze an exported
//                                                        dataset (no sim)
//   scisim advisor  [--scale S] [--seed N]               overcommit advice
//   scisim fleet                                         Table 5 overview
//
// Scale 1.0 reproduces the paper's full region (1,800 nodes / 48,000 VMs);
// the default 0.05 runs in seconds on a laptop.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/advisor.hpp"
#include "analysis/figures.hpp"
#include "analysis/render.hpp"
#include "core/engine.hpp"
#include "core/report.hpp"
#include "data/dataset.hpp"
#include "harness/invariants.hpp"
#include "harness/scenario_dsl.hpp"
#include "multiregion/region_set.hpp"
#include "simcore/thread_pool.hpp"
#include "snapshot/snapshot.hpp"

namespace {

/// A flag that is an alias of one scenario-DSL key: it sets that key and
/// nothing else, on top of the --scenario file's config (or the defaults
/// below), typed and range-checked like the file's own line.
struct key_alias {
    std::string_view flag, section, key;
};
constexpr std::array<key_alias, 8> key_aliases = {{
    {"--scale", "engine", "scale"},
    {"--seed", "engine", "seed"},
    {"--crash-rate", "fault", "crash_rate_per_day"},
    {"--claim-fail", "fault", "claim_failure_probability"},
    {"--mig-abort", "fault", "migration_abort_probability"},
    {"--degraded", "fault", "degraded_node_fraction"},
    {"--degraded-cpu-factor", "fault", "degraded_cpu_factor"},
    {"--maintenance", "fault", "maintenance_windows"},
}};

/// One aliased flag as given on the command line.
struct key_override {
    const key_alias* alias;
    std::string value;
};

/// Apply the overrides in command-line order; a bad value ends the run
/// with exit code 2, naming the flag.
void apply_overrides(sci::engine_config& config,
                     const std::vector<key_override>& overrides) {
    for (const key_override& o : overrides) {
        try {
            sci::harness::set_config_key(config, o.alias->section,
                                         o.alias->key, o.value);
        } catch (const std::exception& e) {
            std::cerr << o.alias->flag << ": " << e.what() << "\n";
            std::exit(2);
        }
    }
}

/// A checked command-line value (see harness::parse_checked); a bad one
/// ends the run with exit code 2, naming the flag.
template <class T>
T flag_value(std::string_view flag, const char* token) {
    try {
        return sci::harness::parse_checked<T>(flag, token);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        std::exit(2);
    }
}

/// The config of an ad-hoc run (no --scenario): the engine defaults at
/// the CLI's laptop scale.
sci::engine_config default_cli_config() {
    sci::engine_config config;
    config.scenario.scale = 0.05;
    config.scenario.seed = 42;
    return config;
}

struct cli_options {
    std::filesystem::path out_dir = "sci_dataset";
    std::filesystem::path markdown_file;  ///< report: write markdown here
    /// --scale, --seed and the fault flags, in command-line order.
    std::vector<key_override> overrides;
    /// --backpressure: overload mode for ad-hoc runs.  A --scenario
    /// file's [backpressure] section always wins over this flag — a
    /// scenario IS its overload physics, unlike the aliased key flags,
    /// which override one key each.
    std::optional<sci::backpressure_mode> backpressure;
    std::filesystem::path scenario_file;  ///< --scenario: run a .scn file
    int regions = 1;                      ///< --regions: multi-region run
    bool check_invariants = false;
    /// --snapshot-at: checkpoint the run at this event time (seconds).
    std::optional<sci::sim_time> snapshot_at;
    /// --snapshot-out: where the checkpoint goes (multi-region runs
    /// write one file per region: PATH.<region>).
    std::filesystem::path snapshot_out = "scisim.snap";
    /// --restore: resume from checkpoint file(s) instead of a fresh
    /// setup (pass once per region, in region order).
    std::vector<std::filesystem::path> restore_files;
};

cli_options parse_options(int argc, char** argv, int first) {
    cli_options options;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        const auto alias = std::find_if(
            key_aliases.begin(), key_aliases.end(),
            [&](const key_alias& a) { return a.flag == arg; });
        if (alias != key_aliases.end()) {
            options.overrides.push_back({&*alias, next()});
        } else if (arg == "--out") {
            options.out_dir = next();
        } else if (arg == "--markdown") {
            options.markdown_file = next();
        } else if (arg == "--scenario") {
            options.scenario_file = next();
        } else if (arg == "--regions") {
            options.regions = flag_value<int>(arg, next());
        } else if (arg == "--check-invariants") {
            options.check_invariants = true;
        } else if (arg == "--snapshot-at") {
            options.snapshot_at = flag_value<sci::sim_time>(arg, next());
        } else if (arg == "--snapshot-out") {
            options.snapshot_out = next();
        } else if (arg == "--restore") {
            options.restore_files.emplace_back(next());
        } else if (arg == "--backpressure") {
            const char* token = next();
            options.backpressure = sci::backpressure_mode_from(token);
            if (!options.backpressure.has_value()) {
                std::cerr << "--backpressure expects degrade, queue or "
                             "shed (got '"
                          << token << "')\n";
                std::exit(2);
            }
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            std::exit(2);
        }
    }
    // check every aliased value now, before any run starts
    sci::engine_config probe = default_cli_config();
    apply_overrides(probe, options.overrides);
    if (!(probe.scenario.scale > 0.0)) {
        std::cerr << "--scale must be positive\n";
        std::exit(2);
    }
    if (options.regions < 1) {
        std::cerr << "--regions must be at least 1\n";
        std::exit(2);
    }
    if (options.snapshot_at.has_value() &&
        (*options.snapshot_at <= 0 ||
         *options.snapshot_at >= sci::days(sci::observation_days))) {
        std::cerr << "--snapshot-at must fall inside the "
                  << sci::observation_days << "-day window\n";
        std::exit(2);
    }
    // every engine reads SCI_THREADS, so check it before any run starts
    try {
        sci::thread_pool::env_threads();
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        std::exit(2);
    }
    return options;
}

/// Base config + invariants resolved from the scenario file / CLI flags
/// (shared by the single-engine and multi-region paths), plus the
/// region specs when the run is multi-region.
struct resolved_run {
    sci::engine_config config;
    sci::harness::invariant_config inv;
    /// Non-empty = multi-region ([region.N] sections or --regions N > 1).
    std::vector<sci::region_spec> region_specs;
};

resolved_run resolve_run(const cli_options& options) {
    resolved_run run;
    if (!options.scenario_file.empty()) {
        sci::harness::scenario_spec spec =
            sci::harness::load_scenario_file(options.scenario_file);
        run.config = spec.config;
        run.inv = spec.invariants;
        std::cout << "scenario " << spec.name
                  << (spec.description.empty() ? "" : ": " + spec.description)
                  << "\n";
        // Each aliased flag overrides its own key of the scenario file.
        apply_overrides(run.config, options.overrides);
        if (!spec.regions.empty()) {
            spec.config = run.config;  // overrides become the regions' base
            run.region_specs = sci::harness::region_specs_of(spec);
        }
    } else {
        run.config = default_cli_config();
        apply_overrides(run.config, options.overrides);
        if (options.backpressure.has_value()) {
            run.config.backpressure.mode = *options.backpressure;
            if (run.config.backpressure.active()) {
                run.config.backpressure.queue_capacity = 256;
                run.config.backpressure.queue_deadline = 3600;
            }
        }
    }
    if (run.region_specs.empty() && options.regions > 1) {
        run.region_specs = sci::make_region_specs(
            run.config, static_cast<std::size_t>(options.regions));
    }
    if (options.check_invariants && run.inv.count() == 0) {
        // No scenario (or one without an [invariants] section): check the
        // always-applicable physics.
        run.inv.admission_accounting = true;
        run.inv.no_silent_drops = true;
        run.inv.conservation = true;
        if (!run.region_specs.empty()) run.inv.cross_region_conservation = true;
    }
    return run;
}

/// A finished run.  The engine lives behind a pointer because the
/// invariant_monitor holds a reference into it for the whole window.
struct engine_run {
    std::unique_ptr<sci::sim_engine> engine;
    std::vector<sci::harness::invariant_result> invariants;
    bool invariants_ok = true;
};

engine_run run_engine(const cli_options& options,
                      const resolved_run& resolved) {
    const sci::engine_config& config = resolved.config;
    engine_run run;
    if (!options.restore_files.empty()) {
        // resume from a checkpoint: the snapshot's embedded config wins
        // over --scale/--seed (the state was built from it)
        const std::filesystem::path& file = options.restore_files.front();
        std::cout << "restoring checkpoint " << file.string()
                  << ", resuming the 30-day window ...\n";
        run.engine = sci::snapshot::restore(sci::snapshot::load_file(file));
    } else {
        std::cout << "simulating 30 days at scale " << config.scenario.scale
                  << " (seed " << config.scenario.seed << ") ...\n";
        run.engine = std::make_unique<sci::sim_engine>(config);
    }
    std::optional<sci::harness::invariant_monitor> monitor;
    if (options.check_invariants) monitor.emplace(*run.engine, resolved.inv);
    if (options.snapshot_at.has_value()) {
        if (options.restore_files.empty()) run.engine->setup();
        run.engine->run_until(*options.snapshot_at);
        sci::snapshot::save_file(sci::snapshot::capture(*run.engine),
                                 options.snapshot_out);
        std::cout << "  checkpoint written to "
                  << options.snapshot_out.string() << " at t="
                  << *options.snapshot_at << "s\n";
    }
    run.engine->run();
    const sci::run_stats& stats = run.engine->stats();
    std::cout << "  " << run.engine->infrastructure().node_count()
              << " nodes, " << stats.placements << " placements, "
              << stats.deletions << " deletions, " << stats.drs_migrations
              << " DRS migrations, " << stats.scrapes << " scrapes\n";
    if (config.fault.enabled()) {
        std::cout << "  faults: " << stats.host_crashes << " host crashes, "
                  << stats.crash_victims << " victims, " << stats.ha_restarts
                  << " HA restarts, " << stats.migration_aborts
                  << " migration aborts\n";
    }
    if (monitor.has_value()) {
        run.invariants = monitor->evaluate();
        std::cout << "  invariants:\n";
        for (const auto& r : run.invariants) {
            std::cout << "    ["
                      << (r.skipped ? "skip" : (r.passed ? "pass" : "FAIL"))
                      << "] " << r.name
                      << (r.detail.empty() ? "" : ": " + r.detail) << "\n";
            run.invariants_ok = run.invariants_ok && r.passed;
        }
    }
    return run;
}

/// A finished multi-region run: the region_set plus invariant outcomes.
struct region_run {
    std::unique_ptr<sci::region_set> set;
    bool invariants_ok = true;
};

region_run run_region_set(const cli_options& options,
                          const resolved_run& resolved) {
    region_run run;
    if (!options.restore_files.empty()) {
        std::vector<sci::snapshot::engine_state> states;
        states.reserve(options.restore_files.size());
        for (const std::filesystem::path& file : options.restore_files) {
            states.push_back(sci::snapshot::load_file(file));
        }
        std::cout << "restoring " << states.size()
                  << "-region checkpoint, resuming the 30-day window ...\n";
        run.set = sci::snapshot::restore_regions(states);
    } else {
        run.set = std::make_unique<sci::region_set>(resolved.region_specs);
    }
    sci::region_set& set = *run.set;
    if (options.restore_files.empty()) {
        std::cout << "simulating 30 days across " << set.region_count()
                  << " regions (base seed "
                  << resolved.config.scenario.seed << ") ...\n";
    }
    std::vector<std::unique_ptr<sci::harness::invariant_monitor>> monitors;
    if (options.check_invariants) {
        sci::harness::invariant_config per_region = resolved.inv;
        per_region.cross_region_conservation = false;
        for (std::size_t r = 0; r < set.region_count(); ++r) {
            monitors.push_back(
                std::make_unique<sci::harness::invariant_monitor>(
                    set.region(r), per_region));
        }
    }
    if (options.snapshot_at.has_value()) {
        // one event-time barrier checkpoints all regions consistently;
        // one file per region, suffixed with the region's name
        set.run_until(*options.snapshot_at);
        for (sci::snapshot::engine_state& state : sci::snapshot::capture(set)) {
            std::filesystem::path file = options.snapshot_out;
            file += "." + state.region;
            sci::snapshot::save_file(state, file);
            std::cout << "  checkpoint written to " << file.string()
                      << " at t=" << *options.snapshot_at << "s\n";
        }
    }
    set.run();
    std::size_t nodes = 0;
    for (std::size_t r = 0; r < set.region_count(); ++r) {
        const sci::run_stats& rs = set.region(r).stats();
        std::cout << "  " << set.spec(r).name << ": "
                  << set.region(r).infrastructure().node_count() << " nodes, "
                  << rs.placements << " placements, " << rs.drs_migrations
                  << " DRS migrations, " << rs.host_crashes
                  << " host crashes\n";
        nodes += set.region(r).infrastructure().node_count();
    }
    const sci::run_stats merged = set.merged_stats();
    std::cout << "  fleet: " << nodes << " nodes, " << merged.placements
              << " placements, " << merged.deletions << " deletions, "
              << merged.drs_migrations << " DRS migrations, "
              << merged.scrapes << " scrapes\n";
    if (options.check_invariants) {
        std::cout << "  invariants:\n";
        const auto show = [&](const sci::harness::invariant_result& r) {
            std::cout << "    ["
                      << (r.skipped ? "skip" : (r.passed ? "pass" : "FAIL"))
                      << "] " << r.name
                      << (r.detail.empty() ? "" : ": " + r.detail) << "\n";
            run.invariants_ok = run.invariants_ok && r.passed;
        };
        for (std::size_t r = 0; r < set.region_count(); ++r) {
            for (sci::harness::invariant_result result :
                 monitors[r]->evaluate()) {
                result.name = set.spec(r).name + "." + result.name;
                show(result);
            }
        }
        if (resolved.inv.cross_region_conservation) {
            std::vector<sci::harness::conservation_snapshot> snaps;
            for (std::size_t r = 0; r < set.region_count(); ++r) {
                snaps.push_back(
                    sci::harness::collect_conservation(set.region(r)));
            }
            show(sci::harness::check_cross_region_conservation(snaps));
        }
    }
    return run;
}

int cmd_simulate(const cli_options& options) {
    const resolved_run resolved = resolve_run(options);
    if (!resolved.region_specs.empty()) {
        const region_run run = run_region_set(options, resolved);
        sci::region_set& set = *run.set;
        std::cout << "exporting per-region datasets + fleet aggregation to "
                  << options.out_dir << " ...\n";
        const sci::region_export_report report =
            set.export_datasets(options.out_dir);
        std::size_t events = 0;
        for (std::size_t r = 0; r < set.region_count(); ++r) {
            events += sci::export_events_csv(
                set.region(r).events(),
                options.out_dir / set.spec(r).name / "events.csv");
        }
        std::cout << "  " << report.combined.metrics_exported
                  << " metrics, " << report.combined.series_exported
                  << " series, " << report.combined.daily_rows
                  << " daily rows, " << events << " scheduling events across "
                  << set.region_count() << " regions\n";
        return run.invariants_ok ? 0 : 1;
    }
    const engine_run run = run_engine(options, resolved);
    const sci::sim_engine& engine = *run.engine;
    std::cout << "exporting dataset to " << options.out_dir << " ...\n";
    const auto report = sci::export_dataset(engine.store(), options.out_dir);
    const std::size_t events = sci::export_events_csv(
        engine.events(), options.out_dir / "events.csv");
    std::cout << "  " << report.metrics_exported << " metrics, "
              << report.series_exported << " series, " << report.daily_rows
              << " daily rows, " << events << " scheduling events\n";
    return run.invariants_ok ? 0 : 1;
}

int cmd_report(const cli_options& options) {
    const resolved_run resolved = resolve_run(options);
    if (!resolved.region_specs.empty()) {
        // Multi-region report: per-region and fleet-wide scheduling
        // summaries (the per-node figures stay a single-region view).
        const region_run run = run_region_set(options, resolved);
        sci::region_set& set = *run.set;
        std::uint64_t creates = 0, removes = 0, migrations = 0, evacs = 0;
        for (std::size_t r = 0; r < set.region_count(); ++r) {
            const sci::event_log& events = set.region(r).events();
            creates += events.count(sci::lifecycle_event_kind::create);
            removes += events.count(sci::lifecycle_event_kind::remove);
            migrations += events.count(sci::lifecycle_event_kind::migrate);
            evacs += events.count(sci::lifecycle_event_kind::evacuate);
        }
        std::cout << "-- fleet events -- creates " << creates << ", deletes "
                  << removes << ", migrations " << migrations
                  << ", evacuations " << evacs << "\n";
        return run.invariants_ok ? 0 : 1;
    }
    const engine_run run = run_engine(options, resolved);
    sci::sim_engine& engine = *run.engine;
    if (!options.markdown_file.empty()) {
        std::ofstream out(options.markdown_file);
        if (!out.good()) {
            std::cerr << "cannot write " << options.markdown_file << "\n";
            return 1;
        }
        sci::write_markdown_report(out, engine);
        std::cout << "wrote markdown report to " << options.markdown_file
                  << "\n";
        return run.invariants_ok ? 0 : 1;
    }
    const sci::fleet& fleet = engine.infrastructure();
    const sci::dc_id dc = fleet.dcs().front().id;

    std::cout << "\n-- Figure 5: % free CPU per node ("
              << fleet.get(dc).name << ") --\n"
              << render_heatmap_ascii(
                     sci::fig5_free_cpu_per_node(engine.store(), fleet, dc));

    double worst_mean = 0.0, worst_max = 0.0;
    for (const auto& day : sci::fig9_contention_by_day(engine.store())) {
        worst_mean = std::max(worst_mean, day.mean_pct);
        worst_max = std::max(worst_max, day.max_pct);
    }
    std::cout << "\n-- contention -- worst daily mean "
              << sci::format_double(worst_mean) << "%, worst node max "
              << sci::format_double(worst_max) << "% (paper: <5% / >40%)\n";

    const auto cpu = sci::fig14a_cpu_utilization(engine.store());
    const auto mem = sci::fig14b_memory_utilization(engine.store());
    std::cout << "-- VM CPU util -- " << sci::format_double(cpu.classes.under_pct)
              << "% under / " << sci::format_double(cpu.classes.optimal_pct)
              << "% optimal / " << sci::format_double(cpu.classes.over_pct)
              << "% over\n";
    std::cout << "-- VM mem util -- " << sci::format_double(mem.classes.under_pct)
              << "% under / " << sci::format_double(mem.classes.optimal_pct)
              << "% optimal / " << sci::format_double(mem.classes.over_pct)
              << "% over\n";

    std::cout << "-- events -- creates "
              << engine.events().count(sci::lifecycle_event_kind::create)
              << ", deletes "
              << engine.events().count(sci::lifecycle_event_kind::remove)
              << ", migrations "
              << engine.events().count(sci::lifecycle_event_kind::migrate)
              << ", evacuations "
              << engine.events().count(sci::lifecycle_event_kind::evacuate)
              << "\n";
    return run.invariants_ok ? 0 : 1;
}

int cmd_analyze(const cli_options& options) {
    std::cout << "importing dataset from " << options.out_dir << " ...\n";
    const sci::metric_store store = sci::import_dataset(options.out_dir);
    std::cout << "  " << store.series_count() << " series, "
              << store.total_samples() << " samples (daily aggregates)\n\n";

    double worst_mean = 0.0, worst_max = 0.0;
    for (const auto& day : sci::fig9_contention_by_day(store)) {
        worst_mean = std::max(worst_mean, day.mean_pct);
        worst_max = std::max(worst_max, day.max_pct);
    }
    std::cout << "-- contention -- worst daily mean "
              << sci::format_double(worst_mean) << "%, worst node max "
              << sci::format_double(worst_max) << "%\n";
    const auto cpu = sci::fig14a_cpu_utilization(store);
    const auto mem = sci::fig14b_memory_utilization(store);
    std::cout << "-- VM CPU util -- " << sci::format_double(cpu.classes.under_pct)
              << "% under / " << sci::format_double(cpu.classes.optimal_pct)
              << "% optimal / " << sci::format_double(cpu.classes.over_pct)
              << "% over (" << cpu.classes.vm_count << " VMs)\n";
    std::cout << "-- VM mem util -- " << sci::format_double(mem.classes.under_pct)
              << "% under / " << sci::format_double(mem.classes.optimal_pct)
              << "% optimal / " << sci::format_double(mem.classes.over_pct)
              << "% over\n";
    // events, if exported
    const auto events_file = options.out_dir / "events.csv";
    if (std::filesystem::exists(events_file)) {
        const auto events = sci::import_events_csv(events_file);
        std::cout << "-- events -- " << events.size()
                  << " scheduling events in events.csv\n";
    }
    return 0;
}

int cmd_advisor(const cli_options& options) {
    const resolved_run resolved = resolve_run(options);
    if (!resolved.region_specs.empty()) {
        std::cerr << "advisor is a per-region analysis; run it without "
                     "--regions\n";
        return 2;
    }
    const engine_run run = run_engine(options, resolved);
    const sci::sim_engine& engine = *run.engine;
    const auto recs = sci::recommend_cpu_overcommit(
        engine.store(), engine.infrastructure(), engine.placement(), {});
    sci::table_printer table({"building block", "purpose", "current ratio",
                              "p95 util %", "max contention %", "recommended"});
    for (const auto& r : recs) {
        table.add_row({r.bb_name, std::string(to_string(r.purpose)),
                       sci::format_double(r.current_ratio),
                       sci::format_double(r.observed_p95_util_pct),
                       sci::format_double(r.observed_max_contention_pct),
                       sci::format_double(r.recommended_ratio)});
    }
    std::cout << "\n" << table.to_string();
    return run.invariants_ok ? 0 : 1;
}

int cmd_fleet() {
    const sci::scenario global = sci::make_global_scenario();
    sci::table_printer table({"region", "dc", "hypervisors", "VMs (paper)"});
    std::size_t index = 0;
    for (const sci::dc_spec& spec : sci::table5_datacenters()) {
        const sci::datacenter& dc = global.infrastructure.dcs()[index++];
        table.add_row({std::to_string(spec.region_id), spec.dc_name,
                       std::to_string(
                           global.infrastructure.nodes_of_dc(dc.id).size()),
                       std::to_string(spec.vms)});
    }
    std::cout << table.to_string();
    return 0;
}

void usage() {
    std::cout << "usage: scisim <simulate|report|analyze|advisor|fleet> "
                 "[--scale S] [--seed N] [--out DIR] [--markdown FILE]\n"
                 "scenario harness (sci::harness):\n"
                 "  --scenario FILE           run a *.scn scenario file "
                 "(engine + fault\n"
                 "                            config from the file; --scale, "
                 "--seed and each\n"
                 "                            fault flag override only their "
                 "own key)\n"
                 "  --regions N               simulate/report: run N regions "
                 "concurrently on\n"
                 "                            one shared pool (per-region "
                 "derived seeds) and\n"
                 "                            aggregate stats + datasets "
                 "fleet-wide\n"
                 "  --check-invariants        evaluate the scenario's "
                 "invariants after the\n"
                 "                            run (without a scenario: "
                 "admission accounting,\n"
                 "                            no silent drops, conservation); "
                 "exit 1 on any\n"
                 "                            violation\n"
                 "checkpointing (sci::snapshot):\n"
                 "  --snapshot-at T           checkpoint the run at event "
                 "time T seconds\n"
                 "                            (multi-region: one file per "
                 "region)\n"
                 "  --snapshot-out PATH       checkpoint file (default "
                 "scisim.snap)\n"
                 "  --restore PATH            resume from a checkpoint "
                 "instead of a fresh\n"
                 "                            setup (repeat once per region, "
                 "in region order)\n"
                 "fault injection (sci::fault; all default off):\n"
                 "  --crash-rate R            host crashes per node per day\n"
                 "  --claim-fail P            transient placement-claim failure "
                 "probability\n"
                 "  --mig-abort P             live-migration abort probability\n"
                 "  --degraded F              fraction of nodes degraded "
                 "in-window\n"
                 "  --degraded-cpu-factor C   effective CPU factor while "
                 "degraded (default 0.6)\n"
                 "  --maintenance N           unplanned maintenance windows\n"
                 "backpressure (sci::sched):\n"
                 "  --backpressure MODE       overload handling: degrade "
                 "(default, immediate\n"
                 "                            NoValidHost), queue (bounded "
                 "deadline queue,\n"
                 "                            capacity 256 / deadline 3600s), "
                 "or shed (queue +\n"
                 "                            priority eviction); a --scenario "
                 "file's\n"
                 "                            [backpressure] section wins "
                 "over this flag\n";
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string command = argv[1];
    try {
        if (command == "simulate") return cmd_simulate(parse_options(argc, argv, 2));
        if (command == "report") return cmd_report(parse_options(argc, argv, 2));
        if (command == "analyze") return cmd_analyze(parse_options(argc, argv, 2));
        if (command == "advisor") return cmd_advisor(parse_options(argc, argv, 2));
        if (command == "fleet") return cmd_fleet();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    usage();
    return 2;
}

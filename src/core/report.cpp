#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "analysis/figures.hpp"
#include "analysis/render.hpp"
#include "simcore/stats.hpp"

namespace sci {

namespace {

void heatmap_section(std::ostream& os, const report_options& options,
                     const char* id, const char* paper_claim,
                     const heatmap& hm) {
    os << "### " << id << "\n\n*Paper:* " << paper_claim << "\n\n";
    os << "- columns: " << hm.columns.size() << ", days: " << hm.days << "\n";
    if (!hm.columns.empty()) {
        os << "- most-free column mean: " << format_double(hm.column_mean(0))
           << "% free; least-free: "
           << format_double(hm.column_mean(hm.columns.size() - 1))
           << "% free\n";
        os << "- cell range: " << format_double(hm.min_value()) << "% to "
           << format_double(hm.max_value()) << "% free; missing cells: "
           << format_double(hm.missing_fraction() * 100.0) << "%\n";
    }
    if (options.include_heatmaps) {
        os << "\n```\n" << render_heatmap_ascii(hm) << "```\n";
    }
    os << "\n";
}

}  // namespace

void write_markdown_report(std::ostream& os, sim_engine& engine,
                           const report_options& options) {
    const fleet& f = engine.infrastructure();
    const metric_store& store = engine.store();
    const dc_id dc = f.dcs().front().id;

    os << "# " << options.title << "\n\n";
    os << "Fleet: " << f.node_count() << " nodes in " << f.bb_count()
       << " building blocks across " << f.dc_count() << " DCs; "
       << engine.vms().size() << " VM records; seed "
       << engine.config().scenario.seed << ", scale "
       << engine.config().scenario.scale << ".\n\n";

    const run_stats& stats = engine.stats();
    os << "Run: " << stats.placements << " placements ("
       << stats.placement_failures << " NoValidHost), " << stats.deletions
       << " deletions, " << stats.drs_migrations << " DRS migrations, "
       << stats.evacuations << " evacuations, " << stats.cross_bb_moves
       << " cross-BB moves, " << stats.scrapes << " scrapes.\n\n";

    // --- heatmaps --------------------------------------------------------
    heatmap_section(os, options, "Figure 5 — % free CPU per node (one DC)",
                    "nodes range from <20% to >90% free on the same day; "
                    "imbalance persists across the window",
                    fig5_free_cpu_per_node(store, f, dc));
    heatmap_section(os, options, "Figure 6 — % free CPU per building block",
                    "heavily and lightly utilized BBs clearly separated",
                    fig6_free_cpu_per_bb(store, f, dc));
    const bb_id hot_bb = most_imbalanced_bb(store, f, dc);
    heatmap_section(os, options, "Figure 7 — % free CPU per node, one BB",
                    "intra-BB imbalance with max node utilization up to 99%",
                    fig7_free_cpu_intra_bb(store, f, hot_bb));
    heatmap_section(os, options, "Figure 10 — % free memory per node",
                    "bimodal: many nodes almost full, many mostly free",
                    fig10_free_memory_per_node(store, f, dc));
    heatmap_section(os, options, "Figure 11 — % free network TX per node",
                    "well below the 200 Gbps NIC capacity",
                    fig11_free_net_tx(store, f, dc));
    heatmap_section(os, options, "Figure 12 — % free network RX per node",
                    "well below the 200 Gbps NIC capacity",
                    fig12_free_net_rx(store, f, dc));
    heatmap_section(os, options, "Figure 13 — % free storage per node",
                    "18% of hosts >90% free, 7% using more than 30%",
                    fig13_free_storage(store, f, dc));

    // --- ready time / contention -----------------------------------------
    os << "### Figure 8 — CPU ready time, top-10 nodes\n\n"
       << "*Paper:* spikes through the month (up to ~30 min), several nodes "
          "beyond the 30 s baseline, weekday effect.\n\n";
    os << "| node | total ready (min) | peak hourly mean (s) |\n"
       << "|---|---|---|\n";
    for (const ready_time_series& s : fig8_top_ready_nodes(store, 10)) {
        os << "| " << s.node << " | "
           << format_double(s.total_ready_ms / 60000.0) << " | "
           << format_double(s.peak_ready_ms / 1000.0) << " |\n";
    }
    os << "\n";

    os << "### Figure 9 — CPU contention over all nodes\n\n"
       << "*Paper:* daily mean and p95 < 5%; max per node 10-30% with "
          "several nodes exceeding 40%; persistent.\n\n";
    double worst_mean = 0.0, worst_p95 = 0.0, worst_max = 0.0;
    for (const contention_day& d : fig9_contention_by_day(store)) {
        worst_mean = std::max(worst_mean, d.mean_pct);
        worst_p95 = std::max(worst_p95, d.p95_pct);
        worst_max = std::max(worst_max, d.max_pct);
    }
    os << "Measured: worst daily mean " << format_double(worst_mean)
       << "%, worst p95 " << format_double(worst_p95) << "%, worst node max "
       << format_double(worst_max) << "%.\n\n";

    // --- workload composition ---------------------------------------------
    const vm_utilization_cdf cpu = fig14a_cpu_utilization(store);
    const vm_utilization_cdf mem = fig14b_memory_utilization(store);
    os << "### Figure 14 — VM utilization CDFs\n\n"
       << "*Paper:* CPU >80% of VMs under 70%; memory ~38% under / ~10% "
          "optimal / ~52% over.\n\n";
    os << "| resource | under (<70%) | optimal (70-85%) | over (>85%) |\n"
       << "|---|---|---|---|\n";
    os << "| CPU | " << format_double(cpu.classes.under_pct) << "% | "
       << format_double(cpu.classes.optimal_pct) << "% | "
       << format_double(cpu.classes.over_pct) << "% |\n";
    os << "| memory | " << format_double(mem.classes.under_pct) << "% | "
       << format_double(mem.classes.optimal_pct) << "% | "
       << format_double(mem.classes.over_pct) << "% |\n\n";

    os << "### Tables 1-2 — VM size classes (average over window)\n\n";
    os << "| class | bounds | measured avg VMs |\n|---|---|---|\n";
    for (const size_class_row& row :
         table1_vcpu_classes(engine.vms(), engine.catalog())) {
        os << "| " << row.category << " | " << row.bounds << " | "
           << format_count(row.average_vms) << " |\n";
    }
    for (const size_class_row& row :
         table2_ram_classes(engine.vms(), engine.catalog())) {
        os << "| " << row.category << " | " << row.bounds << " | "
           << format_count(row.average_vms) << " |\n";
    }
    os << "\n";

    os << "### Figure 15 — VM lifetime per flavor (>= 30 instances)\n\n"
       << "*Paper:* minutes to multiple years; no consistent size-lifetime "
          "correlation.\n\n";
    os << "| flavor | n | median | mean | min | max |\n|---|---|---|---|---|---|\n";
    for (const lifetime_row& row :
         fig15_lifetime_per_flavor(engine.vms(), engine.catalog(), 30)) {
        const auto d = [](double days_value) {
            return format_duration(
                static_cast<sim_duration>(days_value * 86400.0));
        };
        os << "| " << row.flavor_name << " | " << row.instances << " | "
           << d(row.median_days) << " | " << d(row.mean_days) << " | "
           << d(row.min_days) << " | " << d(row.max_days) << " |\n";
    }
    os << "\n";

    // --- events ------------------------------------------------------------
    const event_log& log = engine.events();
    os << "### Scheduling events (Section 4 dataset contents)\n\n"
       << "creates " << log.count(lifecycle_event_kind::create) << ", deletes "
       << log.count(lifecycle_event_kind::remove) << ", migrations "
       << log.count(lifecycle_event_kind::migrate) << ", evacuations "
       << log.count(lifecycle_event_kind::evacuate) << ", NoValidHost "
       << log.count(lifecycle_event_kind::schedule_fail) << "; estimated "
       << format_double(stats.migration_seconds, 0)
       << " s total migration time, worst downtime "
       << format_double(stats.max_migration_downtime_ms, 1) << " ms.\n\n"
       << "Scheduler: " << stats.scheduler_retries << " claim retries.\n";

    // --- availability (only when fault injection is configured) ------------
    if (engine.config().fault.enabled()) {
        const ha_controller& ha = *engine.ha();
        os << "\n### Availability (sci::fault injection)\n\n"
           << "Injected " << stats.host_crashes << " host crashes killing "
           << stats.crash_victims << " VMs; HA restarted " << stats.ha_restarts
           << " (" << stats.ha_restart_failures << " failed attempts, "
           << ha.abandoned_vms() << " abandoned, " << ha.cancelled_vms()
           << " deleted while down); " << stats.maintenance_evacuations
           << " maintenance evacuations.\n\n";
        const std::span<const double> downtime = ha.downtime_samples();
        if (!downtime.empty()) {
            std::vector<double> sorted(downtime.begin(), downtime.end());
            std::sort(sorted.begin(), sorted.end());
            os << "| metric | value |\n|---|---|\n"
               << "| restarted VMs | " << sorted.size() << " |\n"
               << "| MTTR | " << format_double(ha.mttr(), 1) << " s |\n"
               << "| downtime p50 | " << format_double(exact_quantile(sorted, 0.50), 1)
               << " s |\n"
               << "| downtime p95 | " << format_double(exact_quantile(sorted, 0.95), 1)
               << " s |\n"
               << "| downtime max | " << format_double(sorted.back(), 1)
               << " s |\n\n";
        }
        os << "Scheduler pressure: " << stats.placement_failures
           << " NoValidHost, " << engine.transient_claim_failures()
           << " transient claim failures absorbed by retries; "
           << stats.migration_aborts << " migrations aborted mid-copy wasting "
           << format_double(stats.wasted_migration_seconds, 0)
           << " s of pre-copy work.\n";
    }
}

std::string markdown_report(sim_engine& engine, const report_options& options) {
    std::ostringstream os;
    write_markdown_report(os, engine, options);
    return os.str();
}

}  // namespace sci

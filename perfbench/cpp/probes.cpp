#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "analysis/figures.hpp"
#include "data/dataset.hpp"
#include "snapshot/whatif.hpp"
#include "telemetry/metric.hpp"

namespace perfbench {

using namespace sci;

namespace {

/// Each probe repeats its call until at least this much wall time has
/// been spent, so its per-call figure averages over many calls.
constexpr double probe_min_seconds = 0.25;

/// Run `round` repeatedly for probe_min_seconds inside one span; return
/// the seconds spent and the number of rounds.
template <class Fn>
std::pair<double, std::uint64_t> repeat_timed(tracer& tr, std::string_view name,
                                              Fn&& round) {
    std::uint64_t rounds = 0;
    const double seconds = tr.time(name, [&] {
        const auto begin = bench_clock::now();
        do {
            round();
            ++rounds;
        } while (seconds_between(begin, bench_clock::now()) <
                 probe_min_seconds);
    });
    return {seconds, rounds};
}

/// Fixed probe instants: eight, three hours apart, ending at the window
/// end (every window is at least one day long).
std::vector<sim_time> probe_instants(sim_time window_end) {
    std::vector<sim_time> out;
    for (int k = 0; k < 8; ++k) out.push_back(window_end - k * hours(3));
    return out;
}

std::vector<vm_id> active_vms_of(const sim_engine& engine) {
    std::vector<vm_id> out;
    for (const vm_record& rec : engine.vms().all()) {
        if (rec.state == vm_state::active) out.push_back(rec.id);
    }
    return out;
}

double sum_cells(const heatmap& hm) {
    double sum = 0.0;
    for (const std::vector<double>& row : hm.cells) {
        for (const double v : row) {
            if (!heatmap::missing(v)) sum += v;
        }
    }
    return sum;
}

}  // namespace

layer_probe probe_layers(sim_engine& engine, sim_time window_end,
                         tracer& tr) {
    layer_probe out;
    const std::vector<vm_id> active = active_vms_of(engine);
    out.active_vms = active.size();
    const std::vector<sim_time> instants = probe_instants(window_end);

    // workload: the demand oracle over every active VM
    if (!active.empty()) {
        const auto [seconds, rounds] =
            repeat_timed(tr, "workload.demand", [&] {
                for (const sim_time t : instants) {
                    for (const vm_id vm : active) {
                        out.checksum += engine.vm_cpu_demand_cores(vm, t);
                    }
                }
            });
        out.demand_ns_per_vm =
            seconds * 1e9 /
            static_cast<double>(rounds * instants.size() * active.size());
    }

    // telemetry: scrape-shaped batches over the run's series labels,
    // appended into a fresh store
    const metric_store& source = engine.store();
    metric_store fresh(metric_registry::standard_catalog(), source.config());
    std::vector<metric_store::sample_event> batch;
    batch.reserve(source.series_count());
    for (std::size_t i = 0; i < source.series_count(); ++i) {
        const series_id id(static_cast<std::int32_t>(i));
        const series_id copy =
            fresh.open_series(source.metric_of(id).name, source.labels_of(id));
        batch.push_back({copy, static_cast<double>(i % 97) * 0.5});
    }
    if (!batch.empty()) {
        // about four million samples, and at least one scrape
        constexpr std::size_t target_samples = 4'000'000;
        const std::size_t max_scrapes =
            static_cast<std::size_t>(window_end / 300);
        const std::size_t scrapes = std::clamp<std::size_t>(
            target_samples / batch.size(), 1, max_scrapes);
        const double append_s = tr.time("telemetry.append_batch", [&] {
            for (std::size_t k = 0; k < scrapes; ++k) {
                fresh.append_batch(static_cast<sim_time>(k) * 300, batch,
                                   metric_store::apply_shards_inline);
            }
        });
        out.append_ns_per_sample =
            append_s * 1e9 / static_cast<double>(scrapes * batch.size());
        out.checksum += static_cast<double>(fresh.total_samples());
    }

    // drs: plan a balancing pass over copies of every cluster, against a
    // demand table taken at the window end
    std::vector<double> demand(engine.vms().size(), 0.0);
    for (const vm_id vm : active) {
        demand[static_cast<std::size_t>(vm.value())] =
            engine.vm_cpu_demand_cores(vm, window_end);
    }
    const std::vector<drs_cluster> clusters = engine.clusters();
    const vm_cpu_demand_fn demand_of = [&](vm_id vm) {
        return demand[static_cast<std::size_t>(vm.value())];
    };
    const vm_flavor_fn flavor_of = [&](vm_id vm) -> const flavor& {
        return engine.catalog().get(engine.vms().get(vm).flavor);
    };
    if (!clusters.empty()) {
        const auto [seconds, passes] =
            repeat_timed(tr, "drs.plan_rebalance", [&] {
                for (const drs_cluster& cluster : clusters) {
                    out.checksum += static_cast<double>(
                        cluster.plan_rebalance(demand_of, flavor_of).size());
                }
            });
        out.drs_plan_ms_per_pass = seconds * 1e3 / static_cast<double>(passes);
    }

    // sched: what-if placement of the flavors of the first active VMs
    const snapshot::whatif_planner planner(engine);
    std::vector<snapshot::whatif_query> queries;
    const std::size_t query_count = std::min<std::size_t>(active.size(), 500);
    for (std::size_t i = 0; i < query_count; ++i) {
        queries.push_back({engine.vms().get(active[i]).flavor});
    }
    if (!queries.empty()) {
        const auto [seconds, batches] =
            repeat_timed(tr, "sched.whatif_plan", [&] {
                out.checksum +=
                    static_cast<double>(planner.plan(queries).placed);
            });
        out.whatif_us_per_query =
            seconds * 1e6 / static_cast<double>(batches * queries.size());
    }
    return out;
}

artifact_costs build_paper_artifacts(const sim_engine& engine,
                                     const std::filesystem::path& dir,
                                     tracer& tr) {
    artifact_costs out;
    const metric_store& store = engine.store();
    const fleet& f = engine.infrastructure();
    out.figures_s = tr.time("analysis.figures", [&] {
        const dc_id dc = f.dcs().front().id;
        double sum = 0.0;
        sum += sum_cells(fig5_free_cpu_per_node(store, f, dc));
        sum += sum_cells(fig6_free_cpu_per_bb(store, f, dc));
        sum += sum_cells(
            fig7_free_cpu_intra_bb(store, f, most_imbalanced_bb(store, f, dc)));
        for (const ready_time_series& s : fig8_top_ready_nodes(store)) {
            sum += s.total_ready_ms;
        }
        for (const contention_day& d : fig9_contention_by_day(store)) {
            sum += d.mean_pct + d.p95_pct + d.max_pct;
        }
        sum += sum_cells(fig10_free_memory_per_node(store, f, dc));
        sum += sum_cells(fig11_free_net_tx(store, f, dc));
        sum += sum_cells(fig12_free_net_rx(store, f, dc));
        sum += sum_cells(fig13_free_storage(store, f, dc));
        sum += fig14a_cpu_utilization(store).classes.under_pct;
        sum += fig14b_memory_utilization(store).classes.under_pct;
        for (const size_class_row& row :
             table1_vcpu_classes(engine.vms(), engine.catalog())) {
            sum += row.average_vms;
        }
        for (const size_class_row& row :
             table2_ram_classes(engine.vms(), engine.catalog())) {
            sum += row.average_vms;
        }
        for (const lifetime_row& row :
             fig15_lifetime_per_flavor(engine.vms(), engine.catalog())) {
            sum += row.mean_days;
        }
        sum += intra_bb_imbalance(store, f).mean_intra_bb_stddev_pct;
        out.checksum = sum;
    });

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    out.export_s = tr.time("data.export_dataset",
                           [&] { export_dataset(store, dir); });
    std::uintmax_t bytes = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file()) bytes += entry.file_size();
    }
    out.export_mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
    std::filesystem::remove_all(dir, ec);
    return out;
}

}  // namespace perfbench

#include <algorithm>
#include <sstream>

#include "snapshot/engine_access.hpp"
#include "snapshot/snapshot.hpp"

namespace sci::snapshot {
namespace {

std::vector<running_stats::exact_state> to_exact(
    std::span<const running_stats> stats) {
    std::vector<running_stats::exact_state> out;
    out.reserve(stats.size());
    for (const running_stats& s : stats) out.push_back(s.exact());
    return out;
}

std::vector<running_stats> from_exact(
    const std::vector<running_stats::exact_state>& states) {
    std::vector<running_stats> out;
    out.reserve(states.size());
    for (const auto& s : states) out.push_back(running_stats::from_exact(s));
    return out;
}

std::string rng_text(rng_stream& rng) {
    std::ostringstream os;
    os << rng.engine();
    return os.str();
}

void restore_rng(rng_stream& rng, const std::string& text) {
    std::istringstream is(text);
    is >> rng.engine();
    expects(!is.fail(), "snapshot: malformed RNG stream state");
}

}  // namespace

engine_state engine_access::capture(sim_engine& e) {
    expects(e.setup_done_, "snapshot::capture: engine not set up");
    engine_state s;
    s.config = e.config_;

    // event loop (sorted_entries is the canonical (at, seq) order)
    s.queue = e.queue_.sorted_entries();
    s.now = e.queue_.now();
    s.next_seq = e.queue_.next_seq();
    s.executed = e.queue_.executed_count();

    // VMs — names/projects are pure-from-config, so only lifecycle fields
    s.vms.reserve(e.vms_.size());
    for (const vm_record& rec : e.vms_.all()) {
        s.vms.push_back({rec.flavor, rec.state, rec.created_at,
                         rec.deleted_at, rec.placed_bb, rec.placed_node,
                         rec.migration_count});
    }

    // placement
    const std::vector<bb_id>& provs = e.placement_.providers();
    s.provider_usages.reserve(provs.size());
    for (const bb_id bb : provs) {
        s.provider_usages.push_back(e.placement_.usage(bb));
    }
    s.allocations = e.placement_.allocation_table();
    s.placement_version = e.placement_.version();

    // conductor
    s.sched_transient_claim_failures =
        e.conductor_->transient_claim_failure_count();

    // nodes (cluster-major, nodes() order — the restore walk)
    for (const drs_cluster& c : e.clusters_) {
        for (const node_runtime& nr : c.nodes()) {
            s.nodes.push_back({nr.accepting(),
                               {nr.residents().begin(), nr.residents().end()},
                               nr.reserved_vcpus(), nr.reserved_ram_mib(),
                               nr.reserved_disk_gib()});
        }
    }

    // telemetry (ascending series id — restore re-creates ids in order)
    const std::size_t series_count = e.store_.series_count();
    s.series.reserve(series_count);
    for (std::size_t i = 0; i < series_count; ++i) {
        const series_id id(static_cast<std::int32_t>(i));
        const metric_store::series_view v = e.store_.view_of(id);
        series_state row;
        row.metric = std::string(e.store_.metric_of(id).name);
        row.labels = e.store_.labels_of(id).pairs();
        row.daily_first = v.daily_first;
        row.daily = to_exact(v.daily);
        row.hourly_first = v.hourly_first;
        row.hourly = to_exact(v.hourly);
        row.raw.assign(v.raw.begin(), v.raw.end());
        s.series.push_back(std::move(row));
    }
    s.samples_appended = e.store_.total_samples();
    s.samples_dropped = e.store_.dropped_samples();
    s.raw_sealed_through = e.store_.raw_sealed_through();

    // log & stats
    s.events.assign(e.events_.all().begin(), e.events_.all().end());
    s.stats = e.stats_;

    // churn arrivals (arrivals_ itself is pure-from-config)
    s.arrival_cursor = e.arrival_cursor_;
    s.arrival_drain_seq = e.arrival_drain_seq_;

    // backpressure (bp_drain_wanted_/bp_draining_ are transient and never
    // set at an event-time barrier, so only the durable pieces travel)
    if (e.bp_) {
        s.has_bp = true;
        s.bp_queue = e.bp_->queue_table();
        s.bp_regime = static_cast<std::uint8_t>(e.bp_->regime());
        s.bp_transitions.assign(e.bp_->transitions().begin(),
                                e.bp_->transitions().end());
    }
    s.bp_drain_seq = e.bp_drain_seq_;
    s.bp_drain_armed = e.bp_drain_armed_;

    // HA recovery
    if (e.ha_) {
        s.has_ha = true;
        s.ha_pending = e.ha_->pending_table();
        s.ha_downtime = e.ha_->downtime_samples();
        s.ha_crashed = e.ha_->crashed_vms();
        s.ha_restarted = e.ha_->restarted_vms();
        s.ha_abandoned = e.ha_->abandoned_vms();
        s.ha_cancelled = e.ha_->cancelled_vms();
        s.ha_failed_attempts = e.ha_->failed_attempts();
    }
    for (const sim_engine::ha_group& g : e.ha_groups_) {
        s.ha_groups.push_back({g.due, g.victims});
    }

    // fault layer
    s.node_down = e.node_down_;
    s.node_az_down = e.node_az_down_;
    s.node_cpu_factor = e.node_cpu_factor_;
    if (e.mig_abort_rng_) {
        s.has_mig_abort_rng = true;
        s.mig_abort_rng_state = rng_text(*e.mig_abort_rng_);
    }
    if (e.claim_fault_rng_) {
        s.has_claim_fault_rng = true;
        s.claim_fault_rng_state = rng_text(*e.claim_fault_rng_);
    }

    s.bb_contention_ewma = e.bb_contention_ewma_;
    return s;
}

void engine_access::restore_into(sim_engine& e, const engine_state& s) {
    expects(!e.setup_done_,
            "snapshot::restore: engine already set up — restore needs a "
            "freshly constructed engine");
    e.setup_done_ = true;

    // (1) Telemetry FIRST: the store is empty before setup_providers, so
    // restoring rows in ascending id order reproduces the original id
    // assignment; the open_series calls below then get-or-create onto the
    // restored ids.
    for (const series_state& row : s.series) {
        label_set labels;
        for (const auto& [k, v] : row.labels) labels.set(k, v);
        e.store_.restore_series(row.metric, std::move(labels),
                                row.daily_first, from_exact(row.daily),
                                row.hourly_first, from_exact(row.hourly),
                                row.raw);
    }
    e.store_.restore_sample_counts(s.samples_appended, s.samples_dropped);
    e.store_.restore_raw_sealed_through(s.raw_sealed_through);

    // (2) Pure-from-config rebuild: providers/clusters/conductor/series
    // registrations, then the node-churn fleet mutations (the plan is a
    // pure function of seed + fleet; events live in the restored queue and
    // accepting flags in the restored node rows, so ONLY availability
    // spans are re-applied here).
    e.setup_providers();
    fleet& f = e.scenario_.infrastructure;
    for (const sim_engine::node_churn_action& a : e.plan_node_churn()) {
        compute_node& n = f.get_mutable(a.node);
        if (a.commission) {
            n.available_from = a.at;
        } else {
            n.available_until = a.at;
        }
    }
    e.build_population();
    e.setup_scrape_pipeline();

    // (3) VM overlay onto the rebuilt registry.
    expects(s.vms.size() == e.vms_.size(),
            "snapshot::restore: VM count mismatch (config drift?)");
    for (std::size_t i = 0; i < s.vms.size(); ++i) {
        const vm_state_row& row = s.vms[i];
        vm_record& rec = e.vms_.get_mutable(vm_id(static_cast<std::int32_t>(i)));
        rec.flavor = row.flavor;
        rec.state = row.state;
        rec.created_at = row.created_at;
        rec.deleted_at = row.deleted_at;
        rec.placed_bb = row.placed_bb;
        rec.placed_node = row.placed_node;
        rec.migration_count = row.migration_count;
    }

    // (4) Arrivals: rebuilt exactly as schedule_window_events builds them
    // (same source, same stable sort); the cursor and the pinned drain
    // slot come from the snapshot (the drain event itself, if still
    // pending, is in the restored queue).
    e.arrivals_.clear();
    e.arrivals_.reserve(e.population_plan_.arrivals.size());
    for (const vm_plan& plan : e.population_plan_.arrivals) {
        e.arrivals_.push_back({plan.vm, plan.created_at, plan.deleted_at});
    }
    std::stable_sort(e.arrivals_.begin(), e.arrivals_.end(),
                     [](const sim_engine::churn_arrival& a,
                        const sim_engine::churn_arrival& b) {
                         return a.created_at < b.created_at;
                     });
    e.arrival_cursor_ = static_cast<std::size_t>(s.arrival_cursor);
    e.arrival_drain_seq_ = s.arrival_drain_seq;

    // (5) Event loop.
    e.queue_.restore(s.queue, s.now, s.next_seq, s.executed);

    // (6) Placement claims + version counter.
    const std::vector<bb_id>& provs = e.placement_.providers();
    expects(s.provider_usages.size() == provs.size(),
            "snapshot::restore: provider count mismatch");
    for (std::size_t i = 0; i < provs.size(); ++i) {
        e.placement_.restore_usage(provs[i], s.provider_usages[i]);
    }
    e.placement_.restore_allocations(s.allocations);
    e.placement_.restore_version(s.placement_version);

    // (7) Conductor counter.
    e.conductor_->restore_counters(s.sched_transient_claim_failures);

    // (8) Nodes (same cluster-major walk as capture).
    std::size_t node_row = 0;
    for (drs_cluster& cluster : e.clusters_) {
        std::vector<node_id> ids;
        ids.reserve(cluster.nodes().size());
        for (const node_runtime& nr : cluster.nodes()) ids.push_back(nr.id());
        for (const node_id id : ids) {
            expects(node_row < s.nodes.size(),
                    "snapshot::restore: node row count mismatch");
            const node_state_row& row = s.nodes[node_row++];
            cluster.node(id).restore(row.accepting, row.residents,
                                     row.reserved_vcpus, row.reserved_ram_mib,
                                     row.reserved_disk_gib);
        }
    }
    expects(node_row == s.nodes.size(),
            "snapshot::restore: node row count mismatch");

    // (9) Lifecycle log + counters.
    for (const lifecycle_event& ev : s.events) e.events_.record(ev);
    e.stats_ = s.stats;

    // (10) Backpressure controller + queued requests.  Rebuilt by hand
    // (restore never runs setup_backpressure), including the placement
    // release listener — same pattern as the claim-fault hook in (12).
    // The pinned drain event itself, if armed, is in the restored queue.
    if (s.has_bp) {
        expects(e.config_.backpressure.active(),
                "snapshot::restore: snapshot has backpressure state but "
                "config is degrade-mode");
        e.bp_ = std::make_unique<backpressure_controller>(
            e.config_.backpressure);
        e.bp_->restore_state(s.bp_queue,
                             static_cast<sci::bp_regime>(s.bp_regime),
                             s.bp_transitions);
        e.placement_.set_release_listener([&e] {
            if (!e.bp_draining_) e.bp_drain_wanted_ = true;
        });
    }
    e.bp_drain_seq_ = s.bp_drain_seq;
    e.bp_drain_armed_ = s.bp_drain_armed;

    // (11) HA controller + queued victim groups.
    const fault_config& fc = e.config_.fault;
    if (s.has_ha) {
        expects(fc.enabled(),
                "snapshot::restore: snapshot has HA state but config has "
                "no fault model");
        e.ha_ = std::make_unique<ha_controller>(fc.ha_retry_backoff,
                                                fc.ha_max_restart_attempts);
        e.ha_->restore_state(s.ha_pending, s.ha_downtime, s.ha_crashed,
                             s.ha_restarted, s.ha_abandoned, s.ha_cancelled,
                             s.ha_failed_attempts);
    }
    e.ha_groups_.clear();
    for (const ha_group_state& g : s.ha_groups) {
        e.ha_groups_.push_back({g.due, g.victims});
    }

    // (12) Fault arrays + serial RNG stream positions (re-seed the same
    // named streams, then fast-forward to the captured engine position).
    expects(s.node_down.size() == e.node_down_.size(),
            "snapshot::restore: fleet size mismatch");
    e.node_down_ = s.node_down;
    e.node_az_down_ = s.node_az_down;
    e.node_cpu_factor_ = s.node_cpu_factor;
    if (s.has_mig_abort_rng) {
        e.mig_abort_rng_.emplace(e.config_.scenario.seed,
                                 "fault-migration-aborts");
        restore_rng(*e.mig_abort_rng_, s.mig_abort_rng_state);
    }
    if (s.has_claim_fault_rng) {
        e.claim_fault_rng_.emplace(e.config_.scenario.seed,
                                   "fault-claim-races");
        restore_rng(*e.claim_fault_rng_, s.claim_fault_rng_state);
        e.conductor_->set_claim_fault([&e](vm_id, bb_id, int) {
            return e.claim_fault_rng_->chance(
                e.config_.fault.claim_failure_probability);
        });
    }

    // (13) Contention feed memory.
    expects(s.bb_contention_ewma.size() == e.bb_contention_ewma_.size(),
            "snapshot::restore: BB count mismatch");
    e.bb_contention_ewma_ = s.bb_contention_ewma;

    // (14) SoA hot-path columns: re-admit every active VM.  Slot numbers
    // may differ from the original engine's (its free-list history is
    // gone) but are observationally irrelevant — every walk goes through
    // active_slots_, which is sorted by vm id.  open_vm_series resolves to
    // the restored series ids via get-or-create.
    for (std::size_t i = 0; i < s.vms.size(); ++i) {
        if (s.vms[i].state != vm_state::active) continue;
        const vm_id vm(static_cast<std::int32_t>(i));
        e.active_insert(vm);
        e.open_vm_series(e.vms_.get(vm));
    }
}

std::unique_ptr<sim_engine> restore(const engine_state& state,
                                    thread_pool* shared_pool) {
    auto engine = std::make_unique<sim_engine>(state.config);
    if (shared_pool != nullptr) engine->set_shared_pool(shared_pool);
    engine_access::restore_into(*engine, state);
    return engine;
}

engine_state capture(sim_engine& engine) {
    return engine_access::capture(engine);
}

}  // namespace sci::snapshot

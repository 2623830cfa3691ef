#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "simcore/error.hpp"
#include "workload/calibration.hpp"

namespace sci {

namespace cal = calibration;

sim_engine::sim_engine(engine_config config)
    : sim_engine(config, make_regional_scenario(config.scenario)) {}

sim_engine::sim_engine(engine_config config, scenario sc)
    : config_(config),
      scenario_(std::move(sc)),
      behaviors_(config.scenario.seed),
      lifetimes_(config.scenario.seed),
      store_(metric_registry::standard_catalog(), config.store) {
    expects(config_.sampling_interval > 0, "sim_engine: sampling interval > 0");
    expects(config_.drs_interval > 0, "sim_engine: drs interval > 0");
}

void sim_engine::setup() {
    expects(!setup_done_, "sim_engine::setup: already set up");
    setup_done_ = true;

    setup_providers();
    setup_node_churn();
    build_population();
    setup_scrape_pipeline();
    place_initial_population();
    schedule_window_events();
    schedule_resizes();
    setup_faults();
    setup_backpressure();
}

void sim_engine::run() {
    if (!setup_done_) setup();
    run_until(observation_window);
    if (raw_stream_sink_) {
        // the window is over: flush the still-open trailing days
        store_.seal_raw_through(store_.config().days - 1, raw_stream_sink_);
    }
}

void sim_engine::enable_raw_streaming(metric_store::raw_sink sink) {
    raw_stream_sink_ = std::move(sink);
}

void sim_engine::run_until(sim_time until) {
    expects(setup_done_, "sim_engine::run_until: call setup() first");
    queue_.run_until(until, [this](const engine_event& event, sim_time t) {
        dispatch(event, t);
    });
}

void sim_engine::dispatch(const engine_event& event, sim_time t) {
    using action = engine_event::action;
    switch (event.act) {
        case action::commission_node:
            refresh_accepting(node_id(event.id), t);
            if (bp_ != nullptr) bp_drain_wanted_ = true;
            break;
        case action::decommission_node:
            decommission_node(node_id(event.id), t);
            break;
        case action::delete_vm:
            delete_vm(vm_id(event.id), t);
            break;
        case action::drain_arrivals:
            drain_arrivals(t);
            break;
        case action::scrape:
            scrape(t);
            break;
        case action::drs_pass:
            drs_pass(t);
            break;
        case action::cross_bb_pass:
            cross_bb_pass(t);
            break;
        case action::resize_vm:
            resize_vm(vm_id(event.id), t);
            break;
        case action::fault:
            apply_fault(event.fault, t);
            break;
        case action::drain_ha_restarts:
            drain_ha_restarts(t);
            break;
        case action::drain_backpressure:
            drain_backpressure(t);
            break;
    }
    // Any capacity released during this event (deletion, crash repair,
    // migration, commission) re-arms the pinned drain for the same
    // instant — it fires before later-scheduled work at t, mirroring the
    // churn drain's tie order.
    if (bp_ != nullptr) maybe_arm_bp_drain(t);
}

void sim_engine::set_drs_enabled(bool enabled) {
    config_.drs.enabled = enabled;
    for (drs_cluster& cluster : clusters_) cluster.set_enabled(enabled);
}

void sim_engine::set_gp_cpu_allocation_ratio(double ratio) {
    expects(ratio > 0.0,
            "sim_engine::set_gp_cpu_allocation_ratio: ratio must be positive");
    config_.gp_cpu_allocation_ratio_override = ratio;
    for (const building_block& bb : scenario_.infrastructure.bbs()) {
        if (bb.purpose != bb_purpose::general) continue;
        provider_inventory inv = placement_.inventory(bb.id);
        inv.cpu_allocation_ratio = ratio;
        placement_.update_inventory(bb.id, inv);
        cluster_of(bb.id).set_allocation_ratios(ratio,
                                                inv.ram_allocation_ratio);
    }
    conductor_->invalidate_host_view();
}

// ---------------------------------------------------------------------------
// setup
// ---------------------------------------------------------------------------

void sim_engine::setup_providers() {
    const fleet& f = scenario_.infrastructure;

    // one placement provider + one DRS cluster per building block
    clusters_.reserve(f.bb_count());
    for (const building_block& bb : f.bbs()) {
        allocation_ratios ratios = default_ratios_for(bb.purpose);
        if (bb.purpose == bb_purpose::general &&
            config_.gp_cpu_allocation_ratio_override.has_value()) {
            ratios.cpu = *config_.gp_cpu_allocation_ratio_override;
        }
        provider_inventory inv;
        inv.total_pcpus = f.bb_total_cores(bb.id);
        inv.total_ram_mib = f.bb_total_memory(bb.id);
        inv.total_disk_gib =
            bb.profile.storage_gib * static_cast<double>(bb.nodes.size());
        inv.cpu_allocation_ratio = ratios.cpu;
        inv.ram_allocation_ratio = ratios.ram;
        placement_.register_provider(bb.id, inv);

        drs_config cluster_cfg = config_.drs;
        cluster_cfg.cpu_allocation_ratio = ratios.cpu;
        cluster_cfg.ram_allocation_ratio = ratios.ram;
        // memory-bound clusters bin-pack within the cluster (Section 3.2)
        cluster_cfg.pack_memory = bb.purpose == bb_purpose::hana ||
                                  bb.purpose == bb_purpose::dedicated_xl;
        clusters_.emplace_back(bb, cluster_cfg);
    }
    bb_contention_ewma_.assign(f.bb_count(), 0.0);

    // scheduler pipeline, optionally contention-aware (Section 7 guidance)
    auto filters = make_default_filters();
    auto spread = make_spread_weighers();
    auto pack = make_pack_weighers();
    if (config_.contention_aware) {
        filters.push_back(std::make_unique<contention_filter>(
            config_.contention_filter_threshold_pct));
        spread.push_back({std::make_unique<contention_weigher>(), 1.0});
        pack.push_back({std::make_unique<contention_weigher>(), 1.0});
    }
    conductor_ = std::make_unique<conductor>(
        f, scenario_.catalog, placement_,
        filter_scheduler(std::move(filters), std::move(spread), std::move(pack)));
    if (config_.contention_aware) {
        conductor_->set_contention_feed(
            [this](bb_id bb) { return bb_contention(bb); });
    }

    // open every node / BB series up front (labels are stable)
    node_series_.resize(f.node_count());
    for (const compute_node& node : f.nodes()) {
        const building_block& bb = f.get(node.bb);
        const datacenter& dc = f.get(bb.dc);
        const label_set labels{{"node", node.name}, {"bb", bb.name}, {"dc", dc.name}};
        node_series& s = node_series_[static_cast<std::size_t>(node.id.value())];
        using namespace metric_names;
        s.cpu_util = store_.open_series(host_cpu_core_utilization, labels);
        s.contention = store_.open_series(host_cpu_contention, labels);
        s.ready = store_.open_series(host_cpu_ready, labels);
        s.mem = store_.open_series(host_memory_usage, labels);
        s.tx = store_.open_series(host_network_tx, labels);
        s.rx = store_.open_series(host_network_rx, labels);
        s.disk = store_.open_series(host_diskspace_usage, labels);
    }
    bb_series_.resize(f.bb_count());
    for (const building_block& bb : f.bbs()) {
        const datacenter& dc = f.get(bb.dc);
        const label_set labels{{"bb", bb.name}, {"dc", dc.name}};
        bb_series& s = bb_series_[static_cast<std::size_t>(bb.id.value())];
        using namespace metric_names;
        s.vcpus = store_.open_series(os_nodes_vcpus, labels);
        s.vcpus_used = store_.open_series(os_nodes_vcpus_used, labels);
        s.mem = store_.open_series(os_nodes_memory_mb, labels);
        s.mem_used = store_.open_series(os_nodes_memory_mb_used, labels);
    }
    instances_series_ = store_.open_series(
        metric_names::os_instances_total,
        label_set{{"region", f.get(scenario_.region).name}});
}

std::vector<sim_engine::node_churn_action> sim_engine::plan_node_churn() const {
    const fleet& f = scenario_.infrastructure;
    rng_stream rng(config_.scenario.seed, "node-churn");
    // deterministic count (round(fraction * nodes)): the white heatmap
    // cells must appear at any fleet size, not just in expectation
    const auto churn_count = static_cast<std::size_t>(
        std::lround(config_.node_churn_fraction *
                    static_cast<double>(f.node_count())));
    std::vector<node_id> churned;
    std::vector<std::size_t> indices(f.node_count());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    for (std::size_t pick = 0; pick < churn_count && !indices.empty(); ++pick) {
        const auto slot = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(indices.size()) - 1));
        churned.push_back(
            node_id(static_cast<std::int32_t>(indices[slot])));
        indices.erase(indices.begin() + static_cast<std::ptrdiff_t>(slot));
    }
    std::vector<node_churn_action> plan;
    plan.reserve(churned.size());
    for (const node_id churned_id : churned) {
        if (rng.chance(0.5)) {
            // commissioned mid-window: unavailable before available_from
            const auto from = static_cast<sim_time>(
                rng.uniform(0.1, 0.8) * static_cast<double>(observation_window));
            plan.push_back({churned_id, true, from});
        } else {
            // decommissioned mid-window: evacuated at available_until
            const auto until = static_cast<sim_time>(
                rng.uniform(0.2, 0.95) * static_cast<double>(observation_window));
            plan.push_back({churned_id, false, until});
        }
    }
    return plan;
}

void sim_engine::setup_node_churn() {
    fleet& f = scenario_.infrastructure;
    for (const node_churn_action& a : plan_node_churn()) {
        compute_node& mutable_node = f.get_mutable(a.node);
        if (a.commission) {
            mutable_node.available_from = a.at;
            refresh_accepting(a.node, queue_.now());
            queue_.schedule_at(
                a.at, engine_event{engine_event::action::commission_node,
                                   a.node.value()});
        } else {
            mutable_node.available_until = a.at;
            queue_.schedule_at(
                a.at, engine_event{engine_event::action::decommission_node,
                                   a.node.value()});
        }
    }
}

void sim_engine::build_population() {
    population_config pop_cfg = config_.population;
    pop_cfg.initial_population = scenario_.target_vm_population;
    pop_cfg.seed = config_.scenario.seed;
    population_plan_ = sci::build_population(pop_cfg, scenario_.catalog,
                                             scenario_.mix, lifetimes_, vms_);
}

unsigned sim_engine::worker_threads() const {
    return thread_pool::resolve_workers(config_.threads);
}

void sim_engine::run_sharded(std::size_t count, const thread_pool::range_fn& fn) {
    if (shared_pool_ != nullptr) {
        shared_pool_->parallel_for(0, count, fn);
    } else if (pool_ != nullptr) {
        pool_->parallel_for(0, count, fn);
    } else if (count > 0) {
        fn(0, 0, count);
    }
}

void sim_engine::set_shared_pool(thread_pool* pool) {
    expects(!setup_done_, "sim_engine::set_shared_pool: call before setup()");
    shared_pool_ = pool;
}

void sim_engine::setup_scrape_pipeline() {
    const fleet& f = scenario_.infrastructure;
    // one worker would run every stage inline anyway (see parallel_for)
    const unsigned workers = worker_threads();
    if (shared_pool_ == nullptr && workers > 1) {
        pool_ = std::make_unique<thread_pool>(workers);
    }

    // The slot map is the only per-VM-ever array (4 B each); the slot
    // columns grow to the peak concurrently-active population and recycle
    // through the free-list.  Behaviors are sampled eagerly when a slot is
    // filled — sample() is pure in (vm, flavor, project), so eager and
    // lazy sampling produce identical bytes.
    const std::size_t population = vms_.size();
    vm_slot_.assign(population, no_slot);
    const std::size_t expected_active = population_plan_.initial.size();
    slot_vm_.reserve(expected_active);
    slot_node_.reserve(expected_active);
    slot_flavor_.reserve(expected_active);
    slot_created_.reserve(expected_active);
    slot_cpu_series_.reserve(expected_active);
    slot_mem_series_.reserve(expected_active);
    slot_behavior_.reserve(expected_active);
    active_slots_.reserve(expected_active);

    shard_demand_.assign(scrape_shard_count,
                         std::vector<node_demand>(f.node_count()));
    // fault-layer per-node state; inert defaults (no host down, full
    // capacity) so the zero-fault path computes exactly what it always did
    node_down_.assign(f.node_count(), 0);
    node_az_down_.assign(f.node_count(), 0);
    node_cpu_factor_.assign(f.node_count(), 1.0);
    scrape_nodes_.clear();
    scrape_nodes_.reserve(f.node_count());
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        for (const node_runtime& nr : clusters_[c].nodes()) {
            scrape_nodes_.push_back(
                scrape_node{&nr, &f.get(nr.id()),
                            static_cast<std::uint32_t>(nr.id().value()),
                            static_cast<std::uint32_t>(c)});
        }
    }
}

void sim_engine::place_initial_population() {
    const auto wall_begin = std::chrono::steady_clock::now();
    // place in creation order: the fleet's history replayed
    std::vector<const vm_plan*> order;
    order.reserve(population_plan_.initial.size());
    for (const vm_plan& p : population_plan_.initial) order.push_back(&p);
    std::stable_sort(order.begin(), order.end(),
                     [](const vm_plan* a, const vm_plan* b) {
                         return a->created_at < b->created_at;
                     });

    for (const vm_plan* plan : order) {
        if (place_vm(plan->vm, plan->created_at) &&
            plan->deleted_at.has_value()) {
            queue_.schedule_at(*plan->deleted_at,
                               engine_event{engine_event::action::delete_vm,
                                            plan->vm.value()});
        }
    }
    stats_.initial_placement_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_begin)
            .count();
}

void sim_engine::schedule_window_events() {
    // Churn arrivals: a pre-sorted cursor drained by one self-rescheduling
    // event instead of one heap entry per arrival.  The drain sits in a
    // pinned sequence slot reserved HERE — where the per-arrival closures
    // used to be scheduled — so at a tied timestamp it still fires after
    // everything scheduled earlier in setup (node churn, initial-VM
    // deletions) and before everything scheduled later (the events below,
    // resizes, faults, and anything scheduled at runtime), exactly like
    // the per-arrival events it replaces.
    arrivals_.reserve(population_plan_.arrivals.size());
    for (const vm_plan& plan : population_plan_.arrivals) {
        arrivals_.push_back({plan.vm, plan.created_at, plan.deleted_at});
    }
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [](const churn_arrival& a, const churn_arrival& b) {
                         return a.created_at < b.created_at;
                     });
    arrival_drain_seq_ = queue_.reserve_seq();
    // The backpressure drain slot is reserved unconditionally right after
    // the churn drain's: with backpressure off nothing is ever scheduled
    // into it, and reserving it only shifts every later sequence number by
    // one uniformly — relative tie order (and so the default output) is
    // unchanged.
    bp_drain_seq_ = queue_.reserve_seq();
    if (!arrivals_.empty()) {
        queue_.schedule_at_pinned(
            arrivals_.front().created_at, arrival_drain_seq_,
            engine_event{engine_event::action::drain_arrivals});
    }
    // scrapes (self-rescheduling)
    queue_.schedule_at(0, engine_event{engine_event::action::scrape});
    // DRS passes, offset so they interleave between scrapes
    queue_.schedule_at(config_.drs_interval,
                       engine_event{engine_event::action::drs_pass});
    // cross-BB rebalancer (optional; the paper's "external rebalancers")
    if (config_.cross_bb_interval > 0) {
        queue_.schedule_at(config_.cross_bb_interval,
                          engine_event{engine_event::action::cross_bb_pass});
    }
}

void sim_engine::drain_arrivals(sim_time t) {
    const auto wall_begin = std::chrono::steady_clock::now();
    while (arrival_cursor_ < arrivals_.size() &&
           arrivals_[arrival_cursor_].created_at == t) {
        const vm_id vm = arrivals_[arrival_cursor_].vm;
        const std::optional<sim_time> deleted_at =
            arrivals_[arrival_cursor_].deleted_at;
        ++arrival_cursor_;
        // Under backpressure a failed arrival is not a terminal
        // schedule_fail: it is admitted to the bounded deadline queue (or
        // shed with a reason when that is full).  The planned deletion is
        // only scheduled once the VM actually places.
        const bool quiet = bp_ != nullptr;
        if (place_vm(vm, t, lifecycle_event_kind::create, quiet)) {
            if (deleted_at.has_value()) {
                queue_.schedule_at(
                    *deleted_at,
                    engine_event{engine_event::action::delete_vm, vm.value()});
            }
        } else if (quiet) {
            bp_admit(vm, t, bp_request_kind::create,
                     deleted_at.value_or(bp_queued_request::no_deletion));
        }
    }
    if (arrival_cursor_ < arrivals_.size()) {
        // re-arm in the same pinned slot: the tie order above holds at
        // every future timestamp too
        queue_.schedule_at_pinned(
            arrivals_[arrival_cursor_].created_at, arrival_drain_seq_,
            engine_event{engine_event::action::drain_arrivals});
    }
    stats_.churn_placement_wall_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_begin)
            .count();
}

// ---------------------------------------------------------------------------
// placement & lifecycle
// ---------------------------------------------------------------------------

placement_policy sim_engine::policy_for(vm_id vm, const flavor& f) const {
    if (config_.lifetime_aware) {
        // pack short-lived VMs together to contain churn-driven
        // fragmentation (Section 7 "workload lifetime" guidance)
        if (lifetimes_.sample(vm, f) < days(7)) return placement_policy::pack;
    }
    return f.wclass == workload_class::general_purpose ? placement_policy::spread
                                                       : placement_policy::pack;
}

schedule_request sim_engine::request_for(vm_id vm) const {
    const vm_record& rec = vms_.get(vm);
    schedule_request request;
    request.vm = vm;
    request.flavor = rec.flavor;
    request.project = rec.project;
    request.policy = policy_for(vm, scenario_.catalog.get(rec.flavor));
    return request;
}

bool sim_engine::place_vm(vm_id vm, sim_time when, lifecycle_event_kind kind,
                          bool quiet_fail) {
    if (config_.holistic) return place_vm_holistic(vm, when, kind, quiet_fail);

    vm_record& rec = vms_.get_mutable(vm);
    const flavor& f = scenario_.catalog.get(rec.flavor);
    const placement_outcome outcome =
        conductor_->schedule_and_claim(request_for(vm));
    stats_.scheduler_retries +=
        outcome.attempts > 0 ? static_cast<std::uint64_t>(outcome.attempts - 1) : 0;
    if (!outcome.success) {
        if (quiet_fail) return false;
        rec.state = vm_state::error;
        ++stats_.placement_failures;
        events_.record(
            lifecycle_event{.t = when,
                            .kind = lifecycle_event_kind::schedule_fail,
                            .vm = vm,
                            .reason = schedule_fail_reason::no_valid_host});
        return false;
    }

    drs_cluster& cluster = cluster_of(outcome.bb);
    std::optional<node_id> node = cluster.initial_placement(f);
    if (!node.has_value()) {
        // BB-level aggregate space exists but no single node fits: the
        // fragmentation blind spot of the two-layer design.  The cluster
        // force-admits onto the least-reserved accepting node.
        const node_runtime* best = least_reserved_accepting(cluster);
        if (best == nullptr) {
            placement_.release(vm, f);
            if (quiet_fail) return false;
            rec.state = vm_state::error;
            ++stats_.placement_failures;
            events_.record(lifecycle_event{
                .t = when,
                .kind = lifecycle_event_kind::schedule_fail,
                .vm = vm,
                .reason = schedule_fail_reason::no_accepting_node});
            return false;
        }
        node = best->id();
        ++stats_.forced_fits;
    }
    cluster.place(vm, f, *node);
    rec.placed_bb = outcome.bb;
    rec.placed_node = *node;
    rec.state = vm_state::active;
    rec.created_at = std::min(rec.created_at, when);
    ++stats_.placements;
    active_insert(vm);

    open_vm_series(rec);
    events_.record(lifecycle_event{.t = when,
                                   .kind = kind,
                                   .vm = vm,
                                   .bb = rec.placed_bb,
                                   .to = rec.placed_node});
    return true;
}

void sim_engine::open_vm_series(const vm_record& rec) {
    const std::uint32_t slot = slot_of(rec.id);
    expects(slot != no_slot, "open_vm_series: vm has no active slot");
    if (slot_cpu_series_[slot].valid()) return;
    // open_series is get-or-create on (metric, labels) and the labels are
    // stable per VM, so a slot recycled across a crash/HA-restart cycle
    // resolves to the very same series the VM appended to before.
    const label_set labels{{"vm", rec.name}};
    slot_cpu_series_[slot] =
        store_.open_series(metric_names::vm_cpu_usage_ratio, labels);
    slot_mem_series_[slot] =
        store_.open_series(metric_names::vm_memory_consumed_ratio, labels);
}

migration_estimate sim_engine::estimate_vm_migration(vm_id vm, sim_time t) {
    const vm_record& rec = vms_.get(vm);
    const flavor& f = scenario_.catalog.get(rec.flavor);
    const auto resident = static_cast<mebibytes>(
        behavior_of(vm).mem_ratio_at(t, t - rec.created_at) *
        static_cast<double>(f.ram_mib));
    const double dirty = estimate_dirty_rate(
        vm_cpu_demand_cores(vm, t), f.wclass == workload_class::hana_db);
    return estimate_live_migration(resident, dirty, config_.migration_cost);
}

void sim_engine::account_migration(vm_id vm, sim_time t) {
    const migration_estimate est = estimate_vm_migration(vm, t);
    stats_.migration_seconds += est.total_seconds;
    stats_.max_migration_downtime_ms =
        std::max(stats_.max_migration_downtime_ms, est.downtime_ms);
}

bool sim_engine::place_vm_holistic(vm_id vm, sim_time when,
                                   lifecycle_event_kind kind,
                                   bool quiet_fail) {
    vm_record& rec = vms_.get_mutable(vm);
    const flavor& f = scenario_.catalog.get(rec.flavor);
    const placement_policy policy = policy_for(vm, f);

    // single-layer scheduler: scan *nodes* across all purpose-compatible
    // clusters and pick the best admissible one directly
    drs_cluster* best_cluster = nullptr;
    const node_runtime* best_node = nullptr;
    double best_score = std::numeric_limits<double>::infinity();
    for (drs_cluster& cluster : clusters_) {
        const building_block& bb =
            scenario_.infrastructure.get(cluster.bb());
        const bool purpose_ok =
            f.requires_dedicated_bb()
                ? bb.purpose == bb_purpose::dedicated_xl
                : (f.wclass == workload_class::hana_db
                       ? bb.purpose == bb_purpose::hana
                       : bb.purpose == bb_purpose::general);
        if (!purpose_ok) continue;
        for (const node_runtime& nr : cluster.nodes()) {
            if (!nr.accepting()) continue;
            if (!nr.fits(f, cluster.config().cpu_allocation_ratio,
                         cluster.config().ram_allocation_ratio)) {
                continue;
            }
            const double util = 0.5 * nr.cpu_overcommit() /
                                    cluster.config().cpu_allocation_ratio +
                                0.5 * nr.ram_reserved_ratio();
            const double score =
                policy == placement_policy::spread ? util : -util;
            if (score < best_score) {
                best_score = score;
                best_cluster = &cluster;
                best_node = &nr;
            }
        }
    }
    if (best_cluster == nullptr) {
        if (quiet_fail) return false;
        rec.state = vm_state::error;
        ++stats_.placement_failures;
        events_.record(lifecycle_event{
            .t = when,
            .kind = lifecycle_event_kind::schedule_fail,
            .vm = vm,
            .reason = schedule_fail_reason::holistic_no_candidate});
        return false;
    }
    // The node accepted the VM, but the provider-level claim re-checks
    // against the BB inventory — which a mass-crash can shrink below the
    // sum of what individual nodes still advertise.  That race is a
    // NoValidHost, not a crash: degrade exactly like the no-candidate
    // path (the claim threw before touching any state).
    try {
        placement_.claim(vm, best_cluster->bb(), f);
    } catch (const capacity_error&) {
        if (quiet_fail) return false;
        rec.state = vm_state::error;
        ++stats_.placement_failures;
        ++stats_.holistic_claim_rejections;
        events_.record(lifecycle_event{
            .t = when,
            .kind = lifecycle_event_kind::schedule_fail,
            .vm = vm,
            .reason = schedule_fail_reason::holistic_claim_rejected});
        return false;
    }
    best_cluster->place(vm, f, best_node->id());
    rec.placed_bb = best_cluster->bb();
    rec.placed_node = best_node->id();
    rec.state = vm_state::active;
    rec.created_at = std::min(rec.created_at, when);
    ++stats_.placements;
    active_insert(vm);

    open_vm_series(rec);
    events_.record(lifecycle_event{.t = when,
                                   .kind = kind,
                                   .vm = vm,
                                   .bb = rec.placed_bb,
                                   .to = rec.placed_node});
    return true;
}

void sim_engine::delete_vm(vm_id vm, sim_time when) {
    vm_record& rec = vms_.get_mutable(vm);
    if (ha_ != nullptr && ha_->cancel(vm)) {
        // the owner deleted a crash victim while it was still down; its
        // resources were already released at crash time, so just retire it
        rec.state = vm_state::deleted;
        rec.deleted_at = when;
        ++stats_.deletions;
        events_.record(lifecycle_event{.t = when,
                                       .kind = lifecycle_event_kind::remove,
                                       .vm = vm,
                                       .bb = rec.placed_bb});
        return;
    }
    if (bp_ != nullptr && bp_->cancel(vm)) {
        // the owner deleted a request still waiting in the backpressure
        // queue; it never held resources, so just retire it
        rec.state = vm_state::deleted;
        rec.deleted_at = when;
        ++stats_.deletions;
        ++stats_.bp_cancelled;
        events_.record(lifecycle_event{.t = when,
                                       .kind = lifecycle_event_kind::remove,
                                       .vm = vm});
        return;
    }
    if (rec.state != vm_state::active) return;
    const flavor& f = scenario_.catalog.get(rec.flavor);
    cluster_of(rec.placed_bb).remove(vm, f, rec.placed_node);
    placement_.release(vm, f);
    rec.state = vm_state::deleted;
    rec.deleted_at = when;
    ++stats_.deletions;
    active_erase(vm);
    events_.record(lifecycle_event{.t = when,
                                   .kind = lifecycle_event_kind::remove,
                                   .vm = vm,
                                   .bb = rec.placed_bb,
                                   .from = rec.placed_node});
}

void sim_engine::refresh_accepting(node_id node, sim_time t) {
    const compute_node& meta = scenario_.infrastructure.get(node);
    cluster_of(meta.bb).node(node).set_accepting(meta.available_at(t) &&
                                                 !node_is_down(node));
}

void sim_engine::decommission_node(node_id node, sim_time t) {
    refresh_accepting(node, t);
    evacuate_node(node, t, lifecycle_event_kind::evacuate);
}

std::size_t sim_engine::evacuate_node(node_id node, sim_time t,
                                      lifecycle_event_kind kind) {
    const compute_node& meta = scenario_.infrastructure.get(node);
    drs_cluster& cluster = cluster_of(meta.bb);
    node_runtime& nr = cluster.node(node);

    // re-place every resident within the cluster, in ascending-id order
    // (the resident container is id-sorted; copy because re-placement
    // mutates the source node's resident list)
    const std::vector<vm_id> residents(nr.residents().begin(),
                                       nr.residents().end());
    for (vm_id vm : residents) {
        vm_record& rec = vms_.get_mutable(vm);
        const flavor& f = scenario_.catalog.get(rec.flavor);
        cluster.remove(vm, f, node);
        std::optional<node_id> target = cluster.initial_placement(f);
        if (!target.has_value()) {
            // force-admit on the least-reserved accepting node
            const node_runtime* best = least_reserved_accepting(cluster);
            if (best == nullptr) {
                // cluster fully out of service: the VM is terminated —
                // recorded like any other deletion, so the log accounts
                // for every VM that left the fleet (no silent drops)
                placement_.release(vm, f);
                rec.state = vm_state::deleted;
                rec.deleted_at = t;
                ++stats_.deletions;
                active_erase(vm);
                events_.record(
                    lifecycle_event{.t = t,
                                    .kind = lifecycle_event_kind::remove,
                                    .vm = vm,
                                    .bb = meta.bb,
                                    .from = node});
                continue;
            }
            target = best->id();
            ++stats_.forced_fits;
        }
        cluster.place(vm, f, *target);
        rec.placed_node = *target;
        slot_move(vm, *target);
        ++rec.migration_count;
        ++stats_.evacuations;
        account_migration(vm, t);
        events_.record(lifecycle_event{.t = t,
                                       .kind = kind,
                                       .vm = vm,
                                       .bb = meta.bb,
                                       .from = node,
                                       .to = *target});
    }
    return residents.size();
}

const node_runtime* sim_engine::least_reserved_accepting(
    const drs_cluster& cluster) {
    const node_runtime* best = nullptr;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (const node_runtime& nr : cluster.nodes()) {
        if (!nr.accepting()) continue;
        if (nr.ram_reserved_ratio() < best_ratio) {
            best_ratio = nr.ram_reserved_ratio();
            best = &nr;
        }
    }
    return best;
}

// ---------------------------------------------------------------------------
// telemetry & balancing
// ---------------------------------------------------------------------------

const vm_behavior& sim_engine::behavior_of(vm_id vm) {
    const std::uint32_t slot = slot_of(vm);
    if (slot != no_slot) return slot_behavior_[slot];
    // No slot: the VM is deleted or pending.  Only serial callers (tests,
    // diagnostics) reach this path — every parallel stage reads slot
    // columns of *resident* VMs — so one scratch value suffices.
    const vm_record& rec = vms_.get(vm);
    fallback_behavior_ =
        behaviors_.sample(vm, scenario_.catalog.get(rec.flavor), rec.project);
    return fallback_behavior_;
}

double sim_engine::vm_cpu_demand_cores(vm_id vm, sim_time t) {
    const vm_record& rec = vms_.get(vm);
    const flavor& f = scenario_.catalog.get(rec.flavor);
    return behavior_of(vm).cpu_ratio_at(t) * static_cast<double>(f.vcpus);
}

void sim_engine::scrape(sim_time t) {
    const fleet& f = scenario_.infrastructure;

    // The per-scrape stage-0 rebuild is gone: the SoA slot columns are
    // maintained incrementally at every lifecycle touch point, and
    // active_slots_ already walks them in ascending vm-id order — the
    // element-for-element order the old snapshot produced.
    const std::size_t n_active = active_slots_.size();
    scrape_cpu_col_.resize(n_active);
    scrape_mem_col_.resize(n_active);

    // --- stage 1 (parallel): per-VM demand into fixed shards ------------
    // The active list is split by scrape_shard_count — never by worker
    // count — so each shard's accumulation order is the same whether the
    // shards run on 0, 1 or N workers.  Workers stream the contiguous
    // slot columns instead of chasing vm_record pointers; sample values
    // land in per-VM column slots, nothing shared is written.
    run_sharded(scrape_shard_count,
                [&](unsigned, std::size_t s_begin, std::size_t s_end) {
        for (std::size_t s = s_begin; s < s_end; ++s) {
            std::vector<node_demand>& scratch = shard_demand_[s];
            std::fill(scratch.begin(), scratch.end(), node_demand{});
            const auto [vm_lo, vm_hi] = thread_pool::shard(
                0, n_active, static_cast<unsigned>(s), scrape_shard_count);
            for (std::size_t i = vm_lo; i < vm_hi; ++i) {
                const std::uint32_t slot = active_slots_[i];
                const flavor& fl = *slot_flavor_[slot];
                const vm_behavior& b = slot_behavior_[slot];
                const double cpu_ratio = b.cpu_ratio_at(t);
                const double mem_ratio =
                    b.mem_ratio_at(t, t - slot_created_[slot]);
                // pinned-QoS VMs hold dedicated cores; others share the pool
                const double shared_cores =
                    fl.cpu_pinned ? 0.0
                                  : cpu_ratio * static_cast<double>(fl.vcpus);
                node_demand& d = scratch[slot_node_[slot]];
                d.add(shared_cores,
                      static_cast<mebibytes>(mem_ratio *
                                             static_cast<double>(fl.ram_mib)),
                      b.tx_at(t), b.rx_at(t), b.disk_fill * fl.disk_gib);
                if (fl.cpu_pinned) {
                    d.pinned_cores += static_cast<double>(fl.vcpus);
                }
                scrape_cpu_col_[i] = cpu_ratio;
                scrape_mem_col_[i] = mem_ratio;
            }
        }
    });

    // --- stage 2: batch the scrape, then shard the ingest ----------------
    // All of the scrape's samples are gathered into one batch in the
    // canonical (serial) order, then handed to the store's sharded
    // append: the store partitions by series hash, so each worker owns a
    // disjoint set of series and every aggregate's float order matches
    // the serial funnel exactly (one sample per series per scrape).
    scrape_batch_.clear();
    scrape_batch_.reserve(2 * n_active + 7 * scrape_nodes_.size() +
                          4 * bb_series_.size() + 1);
    for (std::size_t i = 0; i < n_active; ++i) {
        const std::uint32_t slot = active_slots_[i];
        scrape_batch_.push_back({slot_cpu_series_[slot], scrape_cpu_col_[i]});
        scrape_batch_.push_back({slot_mem_series_[slot], scrape_mem_col_[i]});
    }

    // per-node series + per-BB contention; scrape_nodes_ is cluster-major,
    // so one running_stats accumulates each cluster's available nodes.
    // Each node's demand partials merge in shard order 0..N — a fixed
    // grouping, whatever ran stage 1.  Feed the scheduler the *hottest*
    // node of each BB: mean contention washes out single noisy-neighbor
    // nodes the filter should react to.
    running_stats bb_contention_stats;
    std::uint32_t current_cluster = 0;
    bool have_cluster = false;
    const auto flush_cluster = [&] {
        if (!have_cluster || bb_contention_stats.empty()) return;
        double& ewma = bb_contention_ewma_[static_cast<std::size_t>(
            clusters_[current_cluster].bb().value())];
        ewma = 0.7 * ewma + 0.3 * bb_contention_stats.max();
    };
    for (const scrape_node& sn : scrape_nodes_) {
        if (!have_cluster || sn.cluster_idx != current_cluster) {
            flush_cluster();
            bb_contention_stats = running_stats{};
            current_cluster = sn.cluster_idx;
            have_cluster = true;
        }
        // crashed / in-maintenance hosts export nothing (white cells),
        // like planned unavailability; node_down_ is all-zero when the
        // fault layer is off, so this reduces to the availability check
        if (!sn.meta->available_at(t) || node_down_[sn.node_idx] != 0) {
            continue;
        }
        node_demand total = shard_demand_[0][sn.node_idx];
        for (unsigned s = 1; s < scrape_shard_count; ++s) {
            total.merge(shard_demand_[s][sn.node_idx]);
        }
        node_snapshot snap;
        const double cpu_factor = node_cpu_factor_[sn.node_idx];
        if (cpu_factor == 1.0) {
            // untouched profile: the exact pre-fault float path
            snap = evaluate_node(sn.nr->profile(), total,
                                 config_.sampling_interval);
        } else {
            // degraded host: contention is evaluated against the
            // shrunken effective core count (sci::fault degrade window)
            hardware_profile degraded = sn.nr->profile();
            degraded.pcpu_cores = std::max<std::int32_t>(
                1, static_cast<std::int32_t>(std::lround(
                       cpu_factor * static_cast<double>(degraded.pcpu_cores))));
            snap = evaluate_node(degraded, total, config_.sampling_interval);
        }
        const node_series& s = node_series_[sn.node_idx];
        scrape_batch_.push_back({s.cpu_util, snap.cpu_util_pct});
        scrape_batch_.push_back({s.contention, snap.cpu_contention_pct});
        scrape_batch_.push_back({s.ready, snap.cpu_ready_ms});
        scrape_batch_.push_back({s.mem, snap.mem_usage_pct});
        scrape_batch_.push_back({s.tx, snap.tx_kbps});
        scrape_batch_.push_back({s.rx, snap.rx_kbps});
        scrape_batch_.push_back({s.disk, snap.storage_used_gib});
        bb_contention_stats.add(snap.cpu_contention_pct);
    }
    flush_cluster();

    // --- per-BB placement gauges (Nova MySQL exporter) -------------------
    for (const building_block& bb : f.bbs()) {
        const provider_inventory& inv = placement_.inventory(bb.id);
        const provider_usage& use = placement_.usage(bb.id);
        const bb_series& s = bb_series_[static_cast<std::size_t>(bb.id.value())];
        scrape_batch_.push_back({s.vcpus,
                                 static_cast<double>(inv.total_pcpus) *
                                     inv.cpu_allocation_ratio});
        scrape_batch_.push_back(
            {s.vcpus_used, static_cast<double>(use.vcpus_used)});
        scrape_batch_.push_back({s.mem, static_cast<double>(inv.total_ram_mib)});
        scrape_batch_.push_back(
            {s.mem_used, static_cast<double>(use.ram_used_mib)});
    }
    scrape_batch_.push_back(
        {instances_series_,
         static_cast<double>(placement_.allocation_count())});

    store_.append_batch(t, scrape_batch_,
                        [this](std::size_t count,
                               const thread_pool::range_fn& fn) {
                            run_sharded(count, fn);
                        });

    // streaming export: a scrape in day D means every day < D is complete
    // (simulation time is monotone), so seal and free them
    if (raw_stream_sink_) {
        const int day = static_cast<int>(day_index(t));
        if (day - 1 > store_.raw_sealed_through()) {
            store_.seal_raw_through(day - 1, raw_stream_sink_);
        }
    }

    ++stats_.scrapes;
    if (bp_ != nullptr) {
        // Backpressure tick, once per scrape: shed overdue queue entries
        // and re-evaluate the queuing/shedding regime.  Evaluating regime
        // transitions only here (never at admit time) is what rules out
        // flapping — consecutive flips are at least one sampling interval
        // apart by construction.
        bp_expire_overdue(t);
        if (bp_->update_regime(t)) ++stats_.bp_regime_transitions;
    }
    if (probes_.after_scrape) probes_.after_scrape(t);
    const sim_time next = t + config_.sampling_interval;
    if (next < observation_window) {
        queue_.schedule_at(next, engine_event{engine_event::action::scrape});
    }
}

void sim_engine::drs_pass(sim_time t) {
    const vm_cpu_demand_fn demand = [this, t](vm_id vm) {
        return vm_cpu_demand_cores(vm, t);
    };
    const vm_flavor_fn flavor_of = [this](vm_id vm) -> const flavor& {
        return scenario_.catalog.get(vms_.get(vm).flavor);
    };
    // Fleet-mean cluster imbalance under this pass's demand snapshot,
    // computed only when the invariant probe asked for it (the walk is
    // pure — no RNG, no state — so the run is unchanged either way).
    const auto mean_imbalance = [&]() {
        double sum = 0.0;
        for (const drs_cluster& cluster : clusters_) {
            sum += cluster.imbalance(demand);
        }
        return clusters_.empty()
                   ? 0.0
                   : sum / static_cast<double>(clusters_.size());
    };
    const double imbalance_before =
        probes_.drs_imbalance ? mean_imbalance() : 0.0;

    // Plan, then commit, one cluster at a time, in cluster order.  A plan
    // reads only its own cluster's nodes and the pure per-VM demand and
    // flavor oracles, and a VM resides in exactly one cluster, so the
    // commits of earlier clusters never change a later cluster's plan;
    // reservations, events and abort draws follow the eager loop's order.
    for (drs_cluster& cluster : clusters_) {
        const std::vector<drs_migration> moves =
            cluster.plan_rebalance(demand, flavor_of);
        cluster.begin_pass();
        for (const drs_migration& m : moves) {
            if (migration_aborted()) {
                // pre-copy failed mid-stream (sci::fault): the VM never
                // left its source — the planned move is simply not
                // committed; bill the wasted pre-copy bandwidth (exactly
                // once per move; record_abort asserts the VM wasn't
                // already charged)
                cluster.abort_migration(m);
                ++stats_.migration_aborts;
                stats_.wasted_migration_seconds +=
                    estimate_vm_migration(m.vm, t).total_seconds;
                continue;
            }
            cluster.commit_migration(
                m, scenario_.catalog.get(vms_.get(m.vm).flavor));
            vm_record& rec = vms_.get_mutable(m.vm);
            rec.placed_node = m.to;
            slot_move(m.vm, m.to);
            ++rec.migration_count;
            ++stats_.drs_migrations;
            account_migration(m.vm, t);
            events_.record(lifecycle_event{.t = t,
                                           .kind = lifecycle_event_kind::migrate,
                                           .vm = m.vm,
                                           .bb = cluster.bb(),
                                           .from = m.from,
                                           .to = m.to});
        }
    }
    if (probes_.drs_imbalance) {
        probes_.drs_imbalance(t, imbalance_before, mean_imbalance());
    }
    const sim_time next = t + config_.drs_interval;
    if (next < observation_window) {
        queue_.schedule_at(next, engine_event{engine_event::action::drs_pass});
    }
}

void sim_engine::cross_bb_pass(sim_time t) {
    const cross_bb_rebalancer rebalancer(scenario_.infrastructure,
                                         scenario_.catalog, config_.cross_bb);
    cross_bb_inputs inputs;
    inputs.vms_of_bb = [this](bb_id bb) {
        std::vector<vm_id> out;
        for (const node_runtime& nr : cluster_of(bb).nodes()) {
            out.insert(out.end(), nr.residents().begin(), nr.residents().end());
        }
        // per-node lists are id-sorted but interleave across nodes
        std::sort(out.begin(), out.end());
        return out;
    };
    inputs.flavor_of = [this](vm_id vm) -> const flavor& {
        return scenario_.catalog.get(vms_.get(vm).flavor);
    };
    inputs.resident_mib = [this, t](vm_id vm) {
        const vm_record& rec = vms_.get(vm);
        const flavor& f = scenario_.catalog.get(rec.flavor);
        return static_cast<mebibytes>(
            behavior_of(vm).mem_ratio_at(t, t - rec.created_at) *
            static_cast<double>(f.ram_mib));
    };
    inputs.dirty_rate = [this, t](vm_id vm) {
        const flavor& f = scenario_.catalog.get(vms_.get(vm).flavor);
        return estimate_dirty_rate(vm_cpu_demand_cores(vm, t),
                                   f.wclass == workload_class::hana_db);
    };

    // Each planned move picks its destination node when it commits, on
    // the target cluster as earlier commits of the pass left it.
    for (const cross_bb_move& move : rebalancer.plan(placement_, inputs)) {
        vm_record& rec = vms_.get_mutable(move.vm);
        const flavor& f = scenario_.catalog.get(rec.flavor);
        drs_cluster& to_cluster = cluster_of(move.to);
        const std::optional<node_id> target = to_cluster.initial_placement(f);
        if (!target.has_value()) continue;  // node-level fragmentation
        if (migration_aborted()) {
            // the cross-BB pre-copy failed; nothing was committed yet, so
            // only the wasted bandwidth is billed
            ++stats_.migration_aborts;
            stats_.wasted_migration_seconds += move.estimate.total_seconds;
            continue;
        }
        const node_id old_node = rec.placed_node;
        placement_.move(move.vm, move.to, f);
        cluster_of(move.from).remove(move.vm, f, old_node);
        to_cluster.place(move.vm, f, *target);
        rec.placed_bb = move.to;
        rec.placed_node = *target;
        slot_move(move.vm, *target);
        ++rec.migration_count;
        ++stats_.cross_bb_moves;
        stats_.migration_seconds += move.estimate.total_seconds;
        stats_.max_migration_downtime_ms =
            std::max(stats_.max_migration_downtime_ms, move.estimate.downtime_ms);
        events_.record(lifecycle_event{.t = t,
                                       .kind = lifecycle_event_kind::migrate,
                                       .vm = move.vm,
                                       .bb = move.to,
                                       .from = old_node,
                                       .to = *target});
    }
    const sim_time next = t + config_.cross_bb_interval;
    if (next < observation_window) {
        queue_.schedule_at(next,
                           engine_event{engine_event::action::cross_bb_pass});
    }
}

void sim_engine::schedule_resizes() {
    if (config_.daily_resize_fraction <= 0.0) return;
    rng_stream rng(config_.scenario.seed, "resizes");
    // each VM resizes within the window with probability fraction * 30 d
    const double p = std::min(1.0, config_.daily_resize_fraction *
                                       static_cast<double>(observation_days));
    const auto consider = [&](const vm_plan& plan) {
        if (!rng.chance(p)) return;
        // pick an instant while the VM is alive and inside the window
        const sim_time lo = std::max<sim_time>(plan.created_at + 1, 1);
        const sim_time hi =
            std::min<sim_time>(plan.deleted_at.value_or(observation_window),
                               observation_window) -
            1;
        if (hi <= lo) return;
        const auto at = static_cast<sim_time>(
            rng.uniform(static_cast<double>(lo), static_cast<double>(hi)));
        queue_.schedule_at(at, engine_event{engine_event::action::resize_vm,
                                            plan.vm.value()});
    };
    for (const vm_plan& plan : population_plan_.initial) consider(plan);
    for (const vm_plan& plan : population_plan_.arrivals) consider(plan);
}

void sim_engine::resize_vm(vm_id vm, sim_time t) {
    vm_record& rec = vms_.get_mutable(vm);
    if (rec.state != vm_state::active) return;
    const flavor& old_flavor = scenario_.catalog.get(rec.flavor);

    // target: the neighbouring catalog flavor of the same workload class
    // (50/50 grow or shrink, mirroring right-sizing in both directions)
    rng_stream rng = rng_stream(config_.scenario.seed, "resize-target")
                         .child(static_cast<std::uint64_t>(vm.value()));
    const bool grow = rng.chance(0.5);
    const flavor* target = nullptr;
    for (const flavor& f : scenario_.catalog.all()) {
        if (f.wclass != old_flavor.wclass || f.id == old_flavor.id) continue;
        if (grow) {
            if (f.ram_mib <= old_flavor.ram_mib) continue;
            if (target == nullptr || f.ram_mib < target->ram_mib) target = &f;
        } else {
            if (f.ram_mib >= old_flavor.ram_mib) continue;
            if (target == nullptr || f.ram_mib > target->ram_mib) target = &f;
        }
    }
    if (target == nullptr) return;  // already at the catalog edge

    // swap the allocation in place on the current building block / node
    drs_cluster& cluster = cluster_of(rec.placed_bb);
    node_runtime& node = cluster.node(rec.placed_node);
    placement_.release(vm, old_flavor);
    node.remove(vm, old_flavor);
    bool admitted = false;
    try {
        placement_.claim(vm, rec.placed_bb, *target);
        admitted = true;
    } catch (const capacity_error&) {
    }
    if (admitted && node.fits(*target, cluster.config().cpu_allocation_ratio,
                              cluster.config().ram_allocation_ratio)) {
        node.place(vm, *target);
    } else if (admitted) {
        // current node too full: DRS picks another node in the cluster
        const std::optional<node_id> other = cluster.initial_placement(*target);
        if (other.has_value()) {
            cluster.place(vm, *target, *other);
            rec.placed_node = *other;
            slot_move(vm, *other);
            ++rec.migration_count;
        } else {
            placement_.release(vm, *target);
            admitted = false;
        }
    }
    if (!admitted) {
        // fleet rejects the resize: restore the old reservation.  reclaim,
        // not claim — when an allocation ratio was retuned below live usage
        // (fork-arm overcommit sweeps), the capacity re-check would refuse
        // to give back what this VM just released.
        placement_.reclaim(vm, rec.placed_bb, old_flavor);
        node.place(vm, old_flavor);
        ++stats_.resize_failures;
        return;
    }

    rec.flavor = target->id;
    ++stats_.resizes;
    // the workload changed size: re-hoist the flavor column and resample
    // the behavior column (pure, so eager == the old lazy resample)
    slot_reflavor(rec);
    events_.record(lifecycle_event{.t = t,
                                   .kind = lifecycle_event_kind::resize,
                                   .vm = vm,
                                   .bb = rec.placed_bb,
                                   .from = rec.placed_node,
                                   .to = rec.placed_node});
}

// ---------------------------------------------------------------------------
// fault injection & HA recovery
// ---------------------------------------------------------------------------

void sim_engine::setup_faults() {
    if (!config_.fault.enabled()) return;
    const fault_config& fc = config_.fault;
    ha_ = std::make_unique<ha_controller>(fc.ha_retry_backoff,
                                          fc.ha_max_restart_attempts);
    if (fc.migration_abort_probability > 0.0) {
        mig_abort_rng_.emplace(config_.scenario.seed, "fault-migration-aborts");
    }
    if (fc.claim_failure_probability > 0.0) {
        // sequential draws are safe: the hook only fires from the serial
        // event loop (placements, HA restarts), never from pool workers
        claim_fault_rng_.emplace(config_.scenario.seed, "fault-claim-races");
        conductor_->set_claim_fault([this](vm_id, bb_id, int) {
            return claim_fault_rng_->chance(
                config_.fault.claim_failure_probability);
        });
    }
    for (const fault_event& event : compile_fault_schedule(
             fc, scenario_.infrastructure, config_.scenario.seed)) {
        queue_.schedule_at(
            event.t, engine_event{engine_event::action::fault, -1, event});
    }
}

void sim_engine::apply_fault(const fault_event& event, sim_time t) {
    // AZ outages address a zone, not a node: dispatch before the node
    // lookup below (event.node is unset for them)
    if (event.kind == fault_event_kind::az_outage_begin) {
        begin_az_outage(event.az, t);
        return;
    }
    if (event.kind == fault_event_kind::az_outage_end) {
        end_az_outage(event.az, t);
        return;
    }
    const auto idx = static_cast<std::size_t>(event.node.value());
    expects(idx < node_down_.size(), "sim_engine::apply_fault: unknown node");
    switch (event.kind) {
        case fault_event_kind::host_crash:
            crash_node(event.node, t);
            break;
        case fault_event_kind::host_repair:
            node_down_[idx] = 0;
            refresh_accepting(event.node, t);
            if (bp_ != nullptr) bp_drain_wanted_ = true;
            break;
        case fault_event_kind::degrade_begin:
            node_cpu_factor_[idx] = event.cpu_factor;
            break;
        case fault_event_kind::degrade_end:
            node_cpu_factor_[idx] = 1.0;
            break;
        case fault_event_kind::maintenance_begin:
            if (node_down_[idx] != 0) break;  // already crashed: skip
            node_down_[idx] = 1;
            refresh_accepting(event.node, t);
            stats_.maintenance_evacuations +=
                evacuate_node(event.node, t, lifecycle_event_kind::evacuate);
            break;
        case fault_event_kind::maintenance_end:
            node_down_[idx] = 0;
            refresh_accepting(event.node, t);
            if (bp_ != nullptr) bp_drain_wanted_ = true;
            break;
        case fault_event_kind::az_outage_begin:
        case fault_event_kind::az_outage_end:
            break;  // dispatched above, before the node lookup
    }
}

void sim_engine::crash_node(node_id node, sim_time t) {
    const compute_node& meta = scenario_.infrastructure.get(node);
    drs_cluster& cluster = cluster_of(meta.bb);
    node_runtime& nr = cluster.node(node);
    node_down_[static_cast<std::size_t>(node.value())] = 1;
    refresh_accepting(node, t);
    ++stats_.host_crashes;

    // every resident dies with the host; HA re-places the whole detection
    // epoch as ONE batch after the failure-detection delay, through the
    // real conductor
    const std::vector<vm_id> victims(nr.residents().begin(),
                                     nr.residents().end());  // id-sorted
    for (const vm_id vm : victims) {
        vm_record& rec = vms_.get_mutable(vm);
        const flavor& f = scenario_.catalog.get(rec.flavor);
        cluster.remove(vm, f, node);
        placement_.release(vm, f);
        rec.state = vm_state::pending;  // down until HA re-places it
        active_erase(vm);
        ++stats_.crash_victims;
        events_.record(lifecycle_event{.t = t,
                                       .kind = lifecycle_event_kind::crash,
                                       .vm = vm,
                                       .bb = meta.bb,
                                       .from = node});
        ha_->on_crash(vm, t);
    }
    if (!victims.empty()) {
        enqueue_ha_group(t + config_.fault.ha_restart_delay,
                         std::move(victims));
    }
}

void sim_engine::begin_az_outage(az_id az, sim_time t) {
    ++stats_.az_outages;
    // Crash every in-service host of the zone at the same instant: one
    // detection epoch.  Each node's victims enqueue at t + restart_delay,
    // so the whole zone's standing population re-places as consecutive
    // due-together groups through the conductor — absorbed by the
    // surviving zones (or NoValidHost when they cannot).
    // Hosts that are already down (crashed or in maintenance) keep their
    // own repair clock and are not re-crashed.
    for (const bb_id bb : scenario_.infrastructure.bbs_of_az(az)) {
        for (const node_id node : scenario_.infrastructure.get(bb).nodes) {
            const auto idx = static_cast<std::size_t>(node.value());
            if (node_down_[idx] != 0) continue;
            node_az_down_[idx] = 1;
            crash_node(node, t);
        }
    }
}

void sim_engine::end_az_outage(az_id az, sim_time t) {
    for (const bb_id bb : scenario_.infrastructure.bbs_of_az(az)) {
        for (const node_id node : scenario_.infrastructure.get(bb).nodes) {
            const auto idx = static_cast<std::size_t>(node.value());
            if (node_az_down_[idx] == 0) continue;  // not ours to repair
            node_az_down_[idx] = 0;
            node_down_[idx] = 0;
            refresh_accepting(node, t);
        }
    }
    if (bp_ != nullptr) bp_drain_wanted_ = true;
}

void sim_engine::enqueue_ha_group(sim_time due, std::vector<vm_id> victims) {
    // The single drain event reserves its heap slot exactly where the old
    // code scheduled the group's FIRST per-victim restart: the victims'
    // events held consecutive sequence numbers with nothing in between, so
    // collapsing them onto the first slot preserves the tie order against
    // every other event.  One live drain event exists per queued group;
    // each drain consumes exactly the front group, and groups sharing a
    // due time fire in enqueue order — the order their events hold.
    auto it = std::upper_bound(
        ha_groups_.begin(), ha_groups_.end(), due,
        [](sim_time d, const ha_group& g) { return d < g.due; });
    ha_groups_.insert(it, ha_group{due, std::move(victims)});
    queue_.schedule_at(due,
                       engine_event{engine_event::action::drain_ha_restarts});
}

void sim_engine::drain_ha_restarts(sim_time t) {
    const auto wall_begin = std::chrono::steady_clock::now();
    expects(!ha_groups_.empty() && ha_groups_.front().due == t,
            "sim_engine::drain_ha_restarts: no victim group due");
    const ha_group group = std::move(ha_groups_.front());
    ha_groups_.pop_front();

    std::vector<vm_id> failed;  // victims granted another attempt
    for (const vm_id vm : group.victims) {
        if (!ha_->pending(vm)) continue;  // deleted while down
        if (place_vm(vm, t, lifecycle_event_kind::ha_restart)) {
            ha_->on_restart_success(vm, t);
            ++stats_.ha_restarts;
            continue;
        }
        ++stats_.ha_restart_failures;
        if (ha_->on_restart_failure(vm, t).has_value()) {
            failed.push_back(vm);
        } else if (bp_ != nullptr) {
            // attempts exhausted: hand the victim to the backpressure
            // layer instead of abandoning it (it may still place when
            // capacity comes back, or shed with an explicit reason)
            bp_admit(vm, t, bp_request_kind::ha_restart,
                     bp_queued_request::no_deletion);
        } else {
            // attempts exhausted — the victim stays down
            // (vm_state::error), but never silently: the give-up is a
            // shed event and a counted stat
            ++stats_.ha_give_ups;
            events_.record(lifecycle_event{
                .t = t,
                .kind = lifecycle_event_kind::shed,
                .vm = vm,
                .reason = schedule_fail_reason::ha_attempts_exhausted});
        }
    }
    if (!failed.empty()) {
        // one retry group per drain: the old code scheduled the per-victim
        // retries back to back (nothing else allocates sequence numbers
        // between two failures), so a single event in the first retry's
        // slot replays them in the same order relative to everything else
        enqueue_ha_group(t + config_.fault.ha_retry_backoff, std::move(failed));
    }
    stats_.recovery_placement_wall_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_begin)
            .count();
}

bool sim_engine::migration_aborted() {
    return mig_abort_rng_.has_value() &&
           mig_abort_rng_->chance(config_.fault.migration_abort_probability);
}

std::uint64_t sim_engine::transient_claim_failures() const {
    return conductor_ != nullptr ? conductor_->transient_claim_failure_count()
                                 : 0;
}

void sim_engine::active_insert(vm_id vm) {
    const auto idx = static_cast<std::size_t>(vm.value());
    if (vm_slot_.size() <= idx) vm_slot_.resize(idx + 1, no_slot);
    expects(vm_slot_[idx] == no_slot,
            "sim_engine::active_insert: vm already active");

    // fill a slot (recycled or fresh) from the finished record
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slot_vm_.size());
        slot_vm_.emplace_back();
        slot_node_.emplace_back();
        slot_flavor_.emplace_back();
        slot_created_.emplace_back();
        slot_cpu_series_.emplace_back();
        slot_mem_series_.emplace_back();
        slot_behavior_.emplace_back();
    }
    const vm_record& rec = vms_.get(vm);
    vm_slot_[idx] = slot;
    slot_vm_[slot] = vm;
    slot_node_[slot] = static_cast<std::uint32_t>(rec.placed_node.value());
    slot_flavor_[slot] = &scenario_.catalog.get(rec.flavor);
    slot_created_[slot] = rec.created_at;
    slot_cpu_series_[slot] = series_id{};
    slot_mem_series_[slot] = series_id{};
    slot_behavior_[slot] = behaviors_.sample(
        vm, scenario_.catalog.get(rec.flavor), rec.project);

    // keep the canonical walk order: active_slots_ is sorted by vm id
    const auto it = std::lower_bound(
        active_slots_.begin(), active_slots_.end(), vm,
        [this](std::uint32_t s, vm_id v) { return slot_vm_[s] < v; });
    active_slots_.insert(it, slot);
}

void sim_engine::active_erase(vm_id vm) {
    const auto idx = static_cast<std::size_t>(vm.value());
    expects(idx < vm_slot_.size() && vm_slot_[idx] != no_slot,
            "sim_engine::active_erase: vm not active");
    const std::uint32_t slot = vm_slot_[idx];
    const auto it = std::lower_bound(
        active_slots_.begin(), active_slots_.end(), vm,
        [this](std::uint32_t s, vm_id v) { return slot_vm_[s] < v; });
    expects(it != active_slots_.end() && *it == slot,
            "sim_engine::active_erase: slot index out of sync");
    active_slots_.erase(it);
    vm_slot_[idx] = no_slot;
    free_slots_.push_back(slot);
}

void sim_engine::slot_move(vm_id vm, node_id node) {
    const std::uint32_t slot = slot_of(vm);
    expects(slot != no_slot, "sim_engine::slot_move: vm not active");
    slot_node_[slot] = static_cast<std::uint32_t>(node.value());
}

void sim_engine::slot_reflavor(const vm_record& rec) {
    const std::uint32_t slot = slot_of(rec.id);
    expects(slot != no_slot, "sim_engine::slot_reflavor: vm not active");
    slot_flavor_[slot] = &scenario_.catalog.get(rec.flavor);
    slot_behavior_[slot] = behaviors_.sample(
        rec.id, scenario_.catalog.get(rec.flavor), rec.project);
}

// ---------------------------------------------------------------------------
// conductor backpressure
// ---------------------------------------------------------------------------

void sim_engine::setup_backpressure() {
    if (!config_.backpressure.active()) return;
    expects(config_.backpressure.queue_capacity > 0,
            "sim_engine: backpressure queue_capacity must be positive");
    expects(config_.backpressure.queue_deadline > 0,
            "sim_engine: backpressure queue_deadline must be positive");
    bp_ = std::make_unique<backpressure_controller>(config_.backpressure);
    // Capacity releases (deletions, crash victims, evacuations, cross-BB
    // moves) arm the pinned drain event for the same instant.  The
    // bp_draining_ guard keeps the drain's own quiet placement attempts
    // from re-arming it forever: a failed node-level claim releases the
    // provider reservation it just took.
    placement_.set_release_listener([this] {
        if (!bp_draining_) bp_drain_wanted_ = true;
    });
}

void sim_engine::bp_admit(vm_id vm, sim_time t, bp_request_kind kind,
                          sim_time deleted_at) {
    bp_queued_request req;
    req.vm = vm;
    req.kind = kind;
    if (kind == bp_request_kind::ha_restart) {
        // HA victims held capacity until their crash: recovering them
        // outranks admitting new work of either policy.
        req.priority = 2;
    } else {
        const vm_record& rec = vms_.get(vm);
        req.priority = policy_for(vm, scenario_.catalog.get(rec.flavor)) ==
                               placement_policy::pack
                           ? 1
                           : 0;
    }
    req.enqueued_at = t;
    req.deadline = t + config_.backpressure.queue_deadline;
    req.deleted_at = deleted_at;
    const auto admitted = bp_->admit(req);
    if (admitted.evicted.has_value()) {
        ++stats_.bp_shed_evicted;
        bp_shed(*admitted.evicted, t,
                schedule_fail_reason::shed_lower_priority);
    }
    using outcome = backpressure_controller::admit_result::outcome;
    if (admitted.result == outcome::queued) {
        ++stats_.bp_enqueued;
        stats_.bp_peak_queue_len =
            std::max<std::uint64_t>(stats_.bp_peak_queue_len, bp_->size());
    } else {
        ++stats_.bp_shed_queue_full;
        bp_shed(req, t, schedule_fail_reason::queue_full);
    }
}

void sim_engine::bp_shed(const bp_queued_request& req, sim_time t,
                         schedule_fail_reason reason) {
    vms_.get_mutable(req.vm).state = vm_state::error;
    events_.record(lifecycle_event{.t = t,
                                   .kind = lifecycle_event_kind::shed,
                                   .vm = req.vm,
                                   .reason = reason});
}

bool sim_engine::bp_retire_if_deleted(const bp_queued_request& req,
                                      sim_time t) {
    if (req.kind != bp_request_kind::create ||
        req.deleted_at == bp_queued_request::no_deletion ||
        req.deleted_at > t) {
        return false;
    }
    vm_record& rec = vms_.get_mutable(req.vm);
    rec.state = vm_state::deleted;
    rec.deleted_at = req.deleted_at;
    ++stats_.deletions;
    ++stats_.bp_cancelled;
    events_.record(lifecycle_event{
        .t = t, .kind = lifecycle_event_kind::remove, .vm = req.vm});
    return true;
}

void sim_engine::bp_expire_overdue(sim_time t) {
    for (const bp_queued_request& req : bp_->expire(t)) {
        // a retired request is a deletion, not a shed
        if (bp_retire_if_deleted(req, t)) continue;
        ++stats_.bp_shed_deadline;
        bp_shed(req, t, schedule_fail_reason::deadline_expired);
    }
}

void sim_engine::drain_backpressure(sim_time t) {
    bp_drain_armed_ = false;
    bp_draining_ = true;
    // Overdue entries first: capacity releases can land between scrapes,
    // and a request must never place after its deadline passed.
    bp_expire_overdue(t);
    // Retry the remaining queue in FIFO (= deadline) order.  A quiet
    // failure keeps the entry queued — later entries still get their try
    // (a smaller flavor may fit where the head does not).
    std::size_t i = 0;
    while (i < bp_->size()) {
        const bp_queued_request req = bp_->at(i);
        if (bp_retire_if_deleted(req, t)) {
            bp_->erase(i);
            continue;
        }
        const lifecycle_event_kind kind =
            req.kind == bp_request_kind::ha_restart
                ? lifecycle_event_kind::ha_restart
                : lifecycle_event_kind::create;
        if (place_vm(req.vm, t, kind, /*quiet_fail=*/true)) {
            ++stats_.bp_queue_placed;
            if (req.kind == bp_request_kind::create &&
                req.deleted_at != bp_queued_request::no_deletion) {
                queue_.schedule_at(req.deleted_at,
                                   engine_event{engine_event::action::delete_vm,
                                                req.vm.value()});
            }
            bp_->erase(i);
            continue;
        }
        ++i;
    }
    bp_draining_ = false;
    bp_drain_wanted_ = false;
}

void sim_engine::maybe_arm_bp_drain(sim_time t) {
    if (!bp_drain_wanted_) return;
    bp_drain_wanted_ = false;
    if (bp_->empty() || bp_drain_armed_) return;
    bp_drain_armed_ = true;
    queue_.schedule_at_pinned(
        t, bp_drain_seq_,
        engine_event{engine_event::action::drain_backpressure});
}

drs_cluster& sim_engine::cluster_of(bb_id bb) {
    expects(bb.valid() && static_cast<std::size_t>(bb.value()) < clusters_.size(),
            "sim_engine::cluster_of: unknown building block");
    return clusters_[static_cast<std::size_t>(bb.value())];
}

double sim_engine::bb_contention(bb_id bb) const {
    const auto idx = static_cast<std::size_t>(bb.value());
    return idx < bb_contention_ewma_.size() ? bb_contention_ewma_[idx] : 0.0;
}

}  // namespace sci

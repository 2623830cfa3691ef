#pragma once

// The simulation engine: reproduces the measured system end to end.
//
//   workload generator ──► Nova conductor/scheduler ──► building block
//                                  │                        │
//                                  ▼                        ▼
//                           placement API             DRS cluster (nodes)
//                                                           │
//   contention model ◄── per-VM demand at scrape time ◄─────┘
//        │
//        ▼
//   exporters ──► metric_store (Prometheus/Thanos equivalent)
//
// run() places the initial population (pre-window history), then plays the
// 30-day observation window: scrape events feed the exporters, DRS passes
// rebalance clusters, churn events create/delete VMs, maintenance events
// commission/decommission nodes (the heatmaps' white cells).

#include <array>
#include <concepts>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/scenario.hpp"
#include "drs/drs.hpp"
#include "drs/migration.hpp"
#include "fault/fault.hpp"
#include "fault/ha.hpp"
#include "hypervisor/node_runtime.hpp"
#include "infra/event_log.hpp"
#include "infra/vm.hpp"
#include "rebalancer/cross_bb.hpp"
#include "sched/backpressure.hpp"
#include "sched/conductor.hpp"
#include "simcore/event_heap.hpp"
#include "simcore/rng.hpp"
#include "simcore/thread_pool.hpp"
#include "telemetry/store.hpp"
#include "workload/behavior.hpp"
#include "workload/population.hpp"

namespace sci {

namespace snapshot {
struct engine_access;  // checkpoint/restore implementation (src/snapshot)
}

/// One pending simulation event, as data.  The engine's event loop is an
/// event_heap<engine_event>: every schedule site enqueues one of these
/// instead of a closure, and sim_engine::dispatch interprets it — which
/// is what makes the complete pending-event set serializable for
/// checkpoint/restore.  `id` carries the target node or VM where the
/// action needs one; `fault` carries the compiled fault event for
/// action::fault.
struct engine_event {
    enum class action : std::uint8_t {
        commission_node,    ///< id = node: refresh_accepting
        decommission_node,  ///< id = node
        delete_vm,          ///< id = vm
        drain_arrivals,     ///< pinned-slot churn drain
        scrape,             ///< self-rescheduling telemetry scrape
        drs_pass,           ///< self-rescheduling DRS balancing pass
        cross_bb_pass,      ///< self-rescheduling cross-BB rebalance
        resize_vm,          ///< id = vm
        fault,              ///< apply `fault`
        drain_ha_restarts,  ///< drain the due HA victim group
        drain_backpressure, ///< pinned-slot backpressure-queue drain
    };
    action act = action::scrape;
    std::int32_t id = -1;
    fault_event fault{};
};

struct engine_config {
    scenario_config scenario;
    /// Scrape cadence (the paper's telemetry: 30–300 s; default 300 s).
    sim_duration sampling_interval = 300;
    /// DRS balancing pass cadence.
    sim_duration drs_interval = 3600;
    drs_config drs;
    store_config store;
    population_config population;  ///< initial_population overridden by scenario

    // --- policy switches (ablations of DESIGN.md §3) ---------------------
    /// Feed observed BB contention into the scheduler (Section 7 guidance).
    bool contention_aware = false;
    double contention_filter_threshold_pct = 15.0;
    /// Holistic single-layer scheduler: place directly onto nodes,
    /// collapsing the Nova→BB + DRS→node split (Section 7 guidance).
    bool holistic = false;
    /// Lifetime-aware placement: pack short-lived VMs (< 7 days), spread
    /// long-lived ones (Section 7 "workload lifetime ... fragmentation").
    bool lifetime_aware = false;
    /// Fraction of nodes undergoing commission/decommission in-window.
    double node_churn_fraction = 0.03;
    /// Fraction of the population that resizes (grow or shrink to the
    /// neighbouring flavor) per day — the "resize" events of Section 4.
    /// Kept rare: resizes move VMs across the Table 1/2 size classes, and
    /// the published class mix is stable.
    double daily_resize_fraction = 0.0005;
    /// Override the general-purpose vCPU:pCPU allocation ratio (ablation:
    /// overcommit sweep, Section 7 "the overcommit factor should be
    /// reconsidered").
    std::optional<double> gp_cpu_allocation_ratio_override;
    /// Cross-building-block rebalancing pass cadence; 0 disables it (the
    /// paper's "external rebalancers", Section 3.1 / Section 7 guidance).
    sim_duration cross_bb_interval = 0;
    cross_bb_config cross_bb;
    /// Cost model applied to every DRS / cross-BB migration.
    migration_cost_config migration_cost;
    /// Worker threads for the two scrape stages that fan out: per-VM
    /// demand and the store's append shards.  nullopt reads the
    /// SCI_THREADS environment variable; the count is clamped to the
    /// machine's hardware threads, and 0 or 1 evaluates serially.  Output
    /// is bit-identical at any thread count: demand is sharded by a fixed
    /// shard count and reduced in shard order, and each append shard owns
    /// a disjoint set of series (see sim_engine::scrape).  Everything else
    /// runs on the event loop's thread.
    std::optional<unsigned> threads;
    /// Deterministic fault injection (sci::fault).  The default (all
    /// rates zero) is fully inert: no schedule is compiled, no RNG
    /// streams are opened, and runs reproduce byte-for-byte.
    fault_config fault;
    /// Conductor backpressure (sci::backpressure_controller).  The default
    /// (`degrade`, zero capacity/deadline) is fully inert: no controller is
    /// built, no events fire, and runs reproduce byte-for-byte.
    backpressure_config backpressure;
};

// --- field lists -------------------------------------------------------------
// engine_config and run_stats each have ONE list of their members: the
// for_each_field overloads below.  The snapshot codec, the scenario DSL,
// merge_run_stats, stats_fingerprint and the tests' stats comparator walk
// a list instead of naming members, so a member added to a struct and its
// list reaches all of them at once.

/// How merge_run_stats folds one member across regions.
enum class merge_rule : std::uint8_t { none, sum, max };

/// One member of a field list.
struct field_info {
    std::string_view name;  ///< member path, e.g. "fault.az_outages"
    /// Scenario DSL `key` in `[section]`; empty when the DSL does not set it.
    std::string_view section = {};
    std::string_view key = {};
    /// Carried in the snapshot payload.
    bool in_snapshot = true;
    merge_rule merge = merge_rule::none;
    /// False for host timings and retired counters, which stay out of
    /// fingerprints and comparisons.
    bool deterministic = true;
};

namespace fields {
/// A config member the DSL sets as `key` in `[section]`.
constexpr field_info dsl(std::string_view name, std::string_view section,
                         std::string_view key) {
    return {name, section, key};
}
/// A config member outside the DSL.
constexpr field_info plain(std::string_view name) { return {name}; }
/// A config member the engine recomputes at setup, so snapshots do not
/// carry it.
constexpr field_info derived(std::string_view name) {
    return {name, {}, {}, false};
}
/// A deterministic run_stats counter.
constexpr field_info stat(std::string_view name,
                          merge_rule merge = merge_rule::sum) {
    return {name, {}, {}, true, merge};
}
/// A run_stats host timing: summed across regions, never fingerprinted,
/// and not stored in snapshots.
constexpr field_info host_timing(std::string_view name) {
    return {name, {}, {}, false, merge_rule::sum, false};
}
/// A retired run_stats counter, always zero: treated like a host timing
/// until its last reader is gone.
constexpr field_info retired(std::string_view name) {
    return host_timing(name);
}
}  // namespace fields

/// The field list of engine_config: calls v(info, c.member...) once per
/// leaf member, in declaration order, which is the snapshot codec's row
/// order.  Pass several configs to visit one member of each together.
template <class Visitor, class... Config>
    requires(std::same_as<std::remove_const_t<Config>, engine_config> && ...)
constexpr void for_each_field(Visitor&& v, Config&... c) {
    using fields::derived;
    using fields::dsl;
    using fields::plain;
    v(dsl("scenario.scale", "engine", "scale"), c.scenario.scale...);
    v(dsl("scenario.seed", "engine", "seed"), c.scenario.seed...);
    v(plain("scenario.hana_node_fraction"), c.scenario.hana_node_fraction...);
    v(plain("scenario.dedicated_xl_node_fraction"),
      c.scenario.dedicated_xl_node_fraction...);
    v(plain("scenario.reserve_node_fraction"),
      c.scenario.reserve_node_fraction...);
    v(dsl("sampling_interval", "engine", "sampling_interval"),
      c.sampling_interval...);
    v(dsl("drs_interval", "engine", "drs_interval"), c.drs_interval...);
    v(plain("drs.imbalance_threshold"), c.drs.imbalance_threshold...);
    v(plain("drs.max_migrations_per_pass"), c.drs.max_migrations_per_pass...);
    v(plain("drs.heavy_vm_ram_mib"), c.drs.heavy_vm_ram_mib...);
    v(plain("drs.min_gain"), c.drs.min_gain...);
    v(plain("drs.cpu_allocation_ratio"), c.drs.cpu_allocation_ratio...);
    v(plain("drs.ram_allocation_ratio"), c.drs.ram_allocation_ratio...);
    v(plain("drs.enabled"), c.drs.enabled...);
    v(plain("drs.pack_memory"), c.drs.pack_memory...);
    v(plain("store.days"), c.store.days...);
    v(plain("store.keep_raw"), c.store.keep_raw...);
    // overwritten by the engine at setup (scale and seed decide them)
    v(derived("population.initial_population"),
      c.population.initial_population...);
    v(dsl("population.daily_churn_fraction", "engine", "daily_churn_fraction"),
      c.population.daily_churn_fraction...);
    v(dsl("population.project_count", "engine", "project_count"),
      c.population.project_count...);
    v(derived("population.seed"), c.population.seed...);
    v(dsl("contention_aware", "engine", "contention_aware"),
      c.contention_aware...);
    v(plain("contention_filter_threshold_pct"),
      c.contention_filter_threshold_pct...);
    v(dsl("holistic", "engine", "holistic"), c.holistic...);
    v(dsl("lifetime_aware", "engine", "lifetime_aware"), c.lifetime_aware...);
    v(dsl("node_churn_fraction", "engine", "node_churn_fraction"),
      c.node_churn_fraction...);
    v(dsl("daily_resize_fraction", "engine", "daily_resize_fraction"),
      c.daily_resize_fraction...);
    v(dsl("gp_cpu_allocation_ratio_override", "engine",
          "gp_cpu_allocation_ratio"),
      c.gp_cpu_allocation_ratio_override...);
    v(dsl("cross_bb_interval", "engine", "cross_bb_interval"),
      c.cross_bb_interval...);
    v(plain("cross_bb.target_ram_spread"), c.cross_bb.target_ram_spread...);
    v(plain("cross_bb.max_moves_per_pass"), c.cross_bb.max_moves_per_pass...);
    v(plain("cross_bb.heavy_vm_ram_mib"), c.cross_bb.heavy_vm_ram_mib...);
    v(plain("cross_bb.max_downtime_ms"), c.cross_bb.max_downtime_ms...);
    v(plain("cross_bb.cost.bandwidth_mib_per_s"),
      c.cross_bb.cost.bandwidth_mib_per_s...);
    v(plain("cross_bb.cost.stop_and_copy_mib"),
      c.cross_bb.cost.stop_and_copy_mib...);
    v(plain("cross_bb.cost.max_precopy_rounds"),
      c.cross_bb.cost.max_precopy_rounds...);
    v(plain("migration_cost.bandwidth_mib_per_s"),
      c.migration_cost.bandwidth_mib_per_s...);
    v(plain("migration_cost.stop_and_copy_mib"),
      c.migration_cost.stop_and_copy_mib...);
    v(plain("migration_cost.max_precopy_rounds"),
      c.migration_cost.max_precopy_rounds...);
    v(plain("threads"), c.threads...);
    v(dsl("fault.host_crash_rate_per_day", "fault", "crash_rate_per_day"),
      c.fault.host_crash_rate_per_day...);
    v(dsl("fault.claim_failure_probability", "fault",
          "claim_failure_probability"),
      c.fault.claim_failure_probability...);
    v(dsl("fault.migration_abort_probability", "fault",
          "migration_abort_probability"),
      c.fault.migration_abort_probability...);
    v(dsl("fault.degraded_node_fraction", "fault", "degraded_node_fraction"),
      c.fault.degraded_node_fraction...);
    v(dsl("fault.degraded_cpu_factor", "fault", "degraded_cpu_factor"),
      c.fault.degraded_cpu_factor...);
    v(dsl("fault.maintenance_windows", "fault", "maintenance_windows"),
      c.fault.maintenance_windows...);
    v(dsl("fault.maintenance_duration", "fault", "maintenance_duration"),
      c.fault.maintenance_duration...);
    v(dsl("fault.az_outages", "fault", "az_outages"), c.fault.az_outages...);
    v(dsl("fault.az_outage_at", "fault", "az_outage_at"),
      c.fault.az_outage_at...);
    v(dsl("fault.az_outage_repair_time", "fault", "az_outage_repair_time"),
      c.fault.az_outage_repair_time...);
    v(dsl("fault.ha_restart_delay", "fault", "ha_restart_delay"),
      c.fault.ha_restart_delay...);
    v(dsl("fault.ha_retry_backoff", "fault", "ha_retry_backoff"),
      c.fault.ha_retry_backoff...);
    v(dsl("fault.ha_max_restart_attempts", "fault", "ha_max_restart_attempts"),
      c.fault.ha_max_restart_attempts...);
    v(dsl("fault.crash_repair_time", "fault", "crash_repair_time"),
      c.fault.crash_repair_time...);
    v(dsl("backpressure.mode", "backpressure", "mode"), c.backpressure.mode...);
    v(dsl("backpressure.queue_capacity", "backpressure", "queue_capacity"),
      c.backpressure.queue_capacity...);
    v(dsl("backpressure.queue_deadline", "backpressure", "queue_deadline"),
      c.backpressure.queue_deadline...);
}

/// Aggregate counters of one simulation run.
struct run_stats {
    std::uint64_t placements = 0;
    std::uint64_t placement_failures = 0;
    std::uint64_t scheduler_retries = 0;
    std::uint64_t drs_migrations = 0;
    std::uint64_t evacuations = 0;
    /// Placements where the BB had aggregate space but no single node fit
    /// under the ratios — intra-BB fragmentation made visible.
    std::uint64_t forced_fits = 0;
    /// Holistic placements where a node accepted the VM but the provider
    /// claim found the BB full (crash-shrunken inventory): degraded to
    /// NoValidHost instead of aborting.  Subset of placement_failures.
    std::uint64_t holistic_claim_rejections = 0;
    std::uint64_t deletions = 0;
    std::uint64_t scrapes = 0;
    /// Cross-building-block rebalancer moves (0 unless enabled).
    std::uint64_t cross_bb_moves = 0;
    /// Successful flavor resizes (and attempts the fleet rejected).
    std::uint64_t resizes = 0;
    std::uint64_t resize_failures = 0;
    /// Total estimated wall-clock spent in live migrations (seconds).
    double migration_seconds = 0.0;
    /// Worst estimated stop-and-copy downtime of any migration (ms).
    double max_migration_downtime_ms = 0.0;

    // --- placement host timings -------------------------------------------
    // Wall-clock of place_initial_population, of the churn drains and of
    // the HA restart drains (host timings for benches — NOT part of the
    // deterministic output, excluded from comparisons).
    double initial_placement_wall_ms = 0.0;
    double churn_placement_wall_ms = 0.0;
    double recovery_placement_wall_ms = 0.0;

    // --- retired speculation counters -------------------------------------
    // Always zero: every request places through the conductor's one loop.
    // perfbench's per-layer sheet still reads them, so they stay declared
    // (out of fingerprints, comparisons and snapshots) until it drops them.
    std::uint64_t speculative_placements = 0;
    std::uint64_t speculation_misses = 0;
    std::uint64_t window_speculations = 0;
    std::uint64_t window_speculative_placements = 0;
    std::uint64_t window_speculation_invalidated = 0;
    std::uint64_t recovery_speculations = 0;
    std::uint64_t recovery_speculative_placements = 0;
    std::uint64_t recovery_speculation_invalidated = 0;
    std::uint64_t rebalance_target_speculations = 0;
    std::uint64_t rebalance_targets_used = 0;

    // --- fault injection & HA recovery (all zero when faults are off) ----
    std::uint64_t az_outages = 0;       ///< AZ-level correlated outages fired
    std::uint64_t host_crashes = 0;     ///< injected hypervisor failures
    std::uint64_t crash_victims = 0;    ///< VMs killed by host crashes
    std::uint64_t ha_restarts = 0;      ///< victims re-placed by HA
    std::uint64_t ha_restart_failures = 0;  ///< failed restart attempts
    std::uint64_t migration_aborts = 0;     ///< DRS/cross-BB aborts
    std::uint64_t maintenance_evacuations = 0;  ///< unplanned maintenance moves
    /// Pre-copy work thrown away by aborted migrations (seconds).
    double wasted_migration_seconds = 0.0;

    // --- conductor backpressure (all zero when mode == degrade) -----------
    // The no_blackhole invariant closes this ledger: bp_enqueued ==
    // bp_queue_placed + bp_shed_deadline + bp_shed_evicted + bp_cancelled
    // + still-queued at evaluation time.
    std::uint64_t bp_enqueued = 0;        ///< requests that entered the queue
    std::uint64_t bp_queue_placed = 0;    ///< queued requests later placed
    std::uint64_t bp_shed_deadline = 0;   ///< shed: queue deadline expired
    std::uint64_t bp_shed_queue_full = 0; ///< shed at admit: queue was full
    std::uint64_t bp_shed_evicted = 0;    ///< shed: displaced by higher priority
    std::uint64_t bp_cancelled = 0;       ///< owner deleted a queued request
    std::uint64_t bp_regime_transitions = 0;  ///< queuing<->shedding flips
    std::uint64_t bp_peak_queue_len = 0;  ///< high-water mark of the queue
    /// HA victims abandoned after max_restart_attempts in degrade mode
    /// (recorded as shed/ha_attempts_exhausted — never silent; under
    /// queue/shed modes the victim is re-queued instead).
    std::uint64_t ha_give_ups = 0;
};

/// The field list of run_stats: calls v(info, s.member...) once per
/// member, in declaration order, which is the snapshot codec's and
/// stats_fingerprint's order.  Pass several stats to visit one member of
/// each together.
template <class Visitor, class... Stats>
    requires(std::same_as<std::remove_const_t<Stats>, run_stats> && ...)
constexpr void for_each_field(Visitor&& v, Stats&... s) {
    using fields::host_timing;
    using fields::retired;
    using fields::stat;
    constexpr merge_rule max = merge_rule::max;
    v(stat("placements"), s.placements...);
    v(stat("placement_failures"), s.placement_failures...);
    v(stat("scheduler_retries"), s.scheduler_retries...);
    v(stat("drs_migrations"), s.drs_migrations...);
    v(stat("evacuations"), s.evacuations...);
    v(stat("forced_fits"), s.forced_fits...);
    v(stat("holistic_claim_rejections"), s.holistic_claim_rejections...);
    v(stat("deletions"), s.deletions...);
    v(stat("scrapes"), s.scrapes...);
    v(stat("cross_bb_moves"), s.cross_bb_moves...);
    v(stat("resizes"), s.resizes...);
    v(stat("resize_failures"), s.resize_failures...);
    v(stat("migration_seconds"), s.migration_seconds...);
    v(stat("max_migration_downtime_ms", max), s.max_migration_downtime_ms...);
    v(host_timing("initial_placement_wall_ms"), s.initial_placement_wall_ms...);
    v(host_timing("churn_placement_wall_ms"), s.churn_placement_wall_ms...);
    v(host_timing("recovery_placement_wall_ms"),
      s.recovery_placement_wall_ms...);
    v(retired("speculative_placements"), s.speculative_placements...);
    v(retired("speculation_misses"), s.speculation_misses...);
    v(retired("window_speculations"), s.window_speculations...);
    v(retired("window_speculative_placements"),
      s.window_speculative_placements...);
    v(retired("window_speculation_invalidated"),
      s.window_speculation_invalidated...);
    v(retired("recovery_speculations"), s.recovery_speculations...);
    v(retired("recovery_speculative_placements"),
      s.recovery_speculative_placements...);
    v(retired("recovery_speculation_invalidated"),
      s.recovery_speculation_invalidated...);
    v(retired("rebalance_target_speculations"),
      s.rebalance_target_speculations...);
    v(retired("rebalance_targets_used"), s.rebalance_targets_used...);
    v(stat("az_outages"), s.az_outages...);
    v(stat("host_crashes"), s.host_crashes...);
    v(stat("crash_victims"), s.crash_victims...);
    v(stat("ha_restarts"), s.ha_restarts...);
    v(stat("ha_restart_failures"), s.ha_restart_failures...);
    v(stat("migration_aborts"), s.migration_aborts...);
    v(stat("maintenance_evacuations"), s.maintenance_evacuations...);
    v(stat("wasted_migration_seconds"), s.wasted_migration_seconds...);
    v(stat("bp_enqueued"), s.bp_enqueued...);
    v(stat("bp_queue_placed"), s.bp_queue_placed...);
    v(stat("bp_shed_deadline"), s.bp_shed_deadline...);
    v(stat("bp_shed_queue_full"), s.bp_shed_queue_full...);
    v(stat("bp_shed_evicted"), s.bp_shed_evicted...);
    v(stat("bp_cancelled"), s.bp_cancelled...);
    v(stat("bp_regime_transitions"), s.bp_regime_transitions...);
    v(stat("bp_peak_queue_len", max), s.bp_peak_queue_len...);
    v(stat("ha_give_ups"), s.ha_give_ups...);
}

/// Number of members in run_stats' field list.
constexpr std::size_t run_stats_field_count() {
    std::size_t n = 0;
    run_stats s;
    for_each_field([&n](const field_info&, auto&) { ++n; }, s);
    return n;
}

// Every run_stats member is 8 bytes wide, so a member missing from the
// field list (or a padding gap) fails the build here.
static_assert(run_stats_field_count() * 8 == sizeof(run_stats),
              "run_stats has a member that its field list does not visit");

/// Optional in-run observation hooks for the invariants harness
/// (sci::harness).  Both unset by default — the engine then behaves
/// exactly as before; in particular the DRS imbalance figures are only
/// computed when a probe asks for them.  Probes observe, they must not
/// mutate: they fire from the serial event loop and both the demand
/// oracle and the imbalance walk are pure, so installing a probe never
/// perturbs the simulation's RNG draws or its deterministic output.
struct engine_probes {
    /// After a scrape's samples were appended, at the scrape instant.
    std::function<void(sim_time)> after_scrape;
    /// Around every DRS balancing pass: fleet-mean cluster imbalance under
    /// the pass's demand snapshot, before planning and after the serial
    /// commits (abort rollbacks included).
    std::function<void(sim_time, double before, double after)> drs_imbalance;
};

class sim_engine {
public:
    /// Build engine with a freshly constructed regional scenario.
    explicit sim_engine(engine_config config);

    /// Build engine over a caller-provided scenario.
    sim_engine(engine_config config, scenario sc);

    /// Place the initial population and play the full observation window.
    void run();

    /// Play only until `until` (for incremental inspection in tests).
    void setup();
    void run_until(sim_time until);

    const metric_store& store() const { return store_; }
    const vm_registry& vms() const { return vms_; }
    const fleet& infrastructure() const { return scenario_.infrastructure; }
    const flavor_catalog& catalog() const { return scenario_.catalog; }
    const scenario& scn() const { return scenario_; }
    const run_stats& stats() const { return stats_; }
    const engine_config& config() const { return config_; }
    const std::vector<drs_cluster>& clusters() const { return clusters_; }
    const placement_service& placement() const { return placement_; }
    const event_log& events() const { return events_; }

    /// Install invariant probes; call before setup()/run().
    void set_probes(engine_probes probes) { probes_ = std::move(probes); }

    /// Whether a node is currently out of service (crashed, in
    /// maintenance, or lost to an AZ outage).  False before setup().
    bool node_is_down(node_id node) const {
        const auto idx = static_cast<std::size_t>(node.value());
        return idx < node_down_.size() && node_down_[idx] != 0;
    }

    /// HA recovery controller; null unless config().fault.enabled().
    const ha_controller* ha() const { return ha_.get(); }
    /// Backpressure controller; null unless config().backpressure.active().
    const backpressure_controller* backpressure() const { return bp_.get(); }
    /// Injected claim races absorbed by the conductor's retry loop.
    std::uint64_t transient_claim_failures() const;
    /// VMs currently active (incrementally maintained; equals the
    /// registry's count_in_state(vm_state::active)).
    std::size_t active_vm_count() const { return active_slots_.size(); }

    /// Stream sealed raw-sample days through `sink` while the simulation
    /// runs: whenever a scrape crosses a day boundary the completed day is
    /// sealed (handed to the sink and freed), and run() seals the final
    /// day on exit.  Keeps raw residency O(compaction horizon) instead of
    /// O(window).  Off by default — without a sink the store behaves
    /// exactly as before (raw stays resident until export).
    void enable_raw_streaming(metric_store::raw_sink sink);

    /// Behavior of a VM (sampled lazily, cached).
    const vm_behavior& behavior_of(vm_id vm);

    /// Instantaneous CPU demand (cores) of a VM at time t.
    double vm_cpu_demand_cores(vm_id vm, sim_time t);

    /// Resolved scrape worker count (config override, else SCI_THREADS,
    /// clamped to the machine; see thread_pool::resolve_workers).
    unsigned worker_threads() const;

    /// Run the sharded scrape stages on an externally owned pool instead
    /// of creating a private one (multi-region: N engines share one pool,
    /// so region-level tasks and intra-region shards never
    /// oversubscribe).
    /// Must be called before setup(); the pool must outlive the engine.
    /// Output is unaffected — sharding is fixed-count by contract.
    void set_shared_pool(thread_pool* pool);

    /// True once setup() ran (or the engine was restored from a snapshot).
    bool is_setup() const { return setup_done_; }

    // --- post-restore fork mutators (sci::snapshot ablation arms) --------
    // Both flip pure *policy* knobs after a snapshot restore: the event
    // stream (pass cadence, sequence numbers) is untouched, so forked
    // arms stay event-for-event comparable with the base run.

    /// Toggle automatic DRS balancing on every cluster.  The balancing
    /// events keep firing either way (plan_rebalance checks the flag), so
    /// flipping it never changes the event/sequence stream.
    void set_drs_enabled(bool enabled);

    /// Rewrite the general-purpose vCPU:pCPU allocation ratio in place:
    /// provider inventories, cluster admission ratios, and the config
    /// field the report echoes.  The scheduler's cached host view is
    /// invalidated so the next decision sees the new capacity.
    void set_gp_cpu_allocation_ratio(double ratio);

private:
    friend struct snapshot::engine_access;

    /// Interpret one typed event at its fire time.
    void dispatch(const engine_event& event, sim_time t);

    /// One node's mid-window commission/decommission draw.  The plan is a
    /// pure function of (seed, fleet size), so a snapshot restore can
    /// re-apply the fleet mutations without replaying the RNG into any
    /// shared stream.
    struct node_churn_action {
        node_id node;
        bool commission;
        sim_time at;
    };
    std::vector<node_churn_action> plan_node_churn() const;

    void setup_providers();
    void setup_node_churn();
    void build_population();
    void setup_scrape_pipeline();
    void place_initial_population();
    void schedule_window_events();
    void drain_arrivals(sim_time t);

    /// The conductor request for `vm`: its flavor, project and policy.
    schedule_request request_for(vm_id vm) const;

    /// Place one request: through the conductor's schedule_and_claim and
    /// the BB's DRS cluster, or straight onto a node when holistic.
    /// quiet_fail: on admission failure leave the VM's state untouched and
    /// record no schedule_fail event or failure counter — the caller (the
    /// backpressure layer) owns the request's terminal outcome.  Retry
    /// counters still accumulate.
    bool place_vm(vm_id vm, sim_time when,
                  lifecycle_event_kind kind = lifecycle_event_kind::create,
                  bool quiet_fail = false);
    bool place_vm_holistic(vm_id vm, sim_time when, lifecycle_event_kind kind,
                           bool quiet_fail = false);
    void delete_vm(vm_id vm, sim_time when);
    void scrape(sim_time t);
    void drs_pass(sim_time t);
    void cross_bb_pass(sim_time t);
    /// Whether `node` takes VMs is derived, never set directly: it does
    /// exactly when it is in service at `t` and not down (crashed, in
    /// maintenance or lost to an AZ outage).  Every event that changes
    /// either input calls this.
    void refresh_accepting(node_id node, sim_time t);
    void decommission_node(node_id node, sim_time t);
    /// Re-place every resident of `node` within its cluster, recording
    /// events of `kind`.  Returns the number of VMs moved (or terminated
    /// when the cluster was fully out of service).
    std::size_t evacuate_node(node_id node, sim_time t,
                              lifecycle_event_kind kind);
    /// The forced fit of the two-layer design: the accepting node of
    /// `cluster` with the least reserved RAM, or null when none accepts.
    static const node_runtime* least_reserved_accepting(
        const drs_cluster& cluster);
    void schedule_resizes();
    void resize_vm(vm_id vm, sim_time t);
    migration_estimate estimate_vm_migration(vm_id vm, sim_time t);
    void account_migration(vm_id vm, sim_time t);
    void open_vm_series(const vm_record& rec);

    // --- fault injection & HA recovery -----------------------------------
    void setup_faults();
    void apply_fault(const fault_event& event, sim_time t);
    void crash_node(node_id node, sim_time t);
    /// Crash every in-service host of one AZ in a single detection epoch.
    void begin_az_outage(az_id az, sim_time t);
    /// Return the zone's outage-downed hosts to service.
    void end_az_outage(az_id az, sim_time t);
    /// Queue one detection epoch's victims (in event-time order) for a
    /// restart at `due`, scheduling its drain event.
    void enqueue_ha_group(sim_time due, std::vector<vm_id> victims);
    /// Restart exactly one due victim group, victim by victim; failed
    /// victims re-enter as one retry group at t+backoff.
    void drain_ha_restarts(sim_time t);
    /// Draw the next migration-abort decision (false when aborts are off).
    bool migration_aborted();

    // --- conductor backpressure -------------------------------------------
    void setup_backpressure();
    /// Route one failed admission through the active controller: queue it,
    /// or shed it (and possibly a displaced lower-priority entry) with an
    /// explicit reason.  Only called when bp_ is non-null.
    void bp_admit(vm_id vm, sim_time t, bp_request_kind kind,
                  sim_time deleted_at);
    /// Terminate one queue entry with a shed event of `reason`.
    void bp_shed(const bp_queued_request& req, sim_time t,
                 schedule_fail_reason reason);
    /// Shed (or retire, when the owner's planned deletion already passed)
    /// every queue entry whose deadline has expired.
    void bp_expire_overdue(sim_time t);
    /// Retire `req` as a deletion when it is a create whose owner's planned
    /// deletion time has already passed at `t` (had it placed, it would be
    /// gone by now); false, touching nothing, otherwise.
    bool bp_retire_if_deleted(const bp_queued_request& req, sim_time t);
    /// Drain the queue at a capacity-release instant: expire overdue
    /// entries, then retry the rest in FIFO order (quiet failures keep
    /// entries queued).
    void drain_backpressure(sim_time t);
    /// Schedule the pinned drain event for the current instant if capacity
    /// was released by the event just dispatched.
    void maybe_arm_bp_drain(sim_time t);

    // --- SoA active-VM slot table ----------------------------------------
    // Hot-path state of every *currently active* VM lives in parallel
    // columns indexed by a dense slot id; freed slots are recycled through
    // a LIFO free-list, so the columns stay O(peak-active) while the
    // registry keeps every VM ever created (the Figure 15 history).
    // active_insert fills a slot from the finished vm_record (placed_bb /
    // placed_node / created_at must be final) and active_erase returns it
    // to the free-list; slot_move / slot_reflavor keep the columns current
    // at the remaining lifecycle touch points (DRS and cross-BB moves,
    // evacuation re-places, resizes).
    void active_insert(vm_id vm);
    void active_erase(vm_id vm);
    /// Slot of an active VM; no_slot when the VM is not active.
    std::uint32_t slot_of(vm_id vm) const {
        const auto idx = static_cast<std::size_t>(vm.value());
        return idx < vm_slot_.size() ? vm_slot_[idx] : no_slot;
    }
    /// Update the host column after a migration / evacuation re-place.
    void slot_move(vm_id vm, node_id node);
    /// Re-hoist the flavor column and resample the behavior column after
    /// a resize (sample() is pure in (vm, flavor, project)).
    void slot_reflavor(const vm_record& rec);

    placement_policy policy_for(vm_id vm, const flavor& f) const;
    drs_cluster& cluster_of(bb_id bb);
    double bb_contention(bb_id bb) const;

    engine_config config_;
    scenario scenario_;
    vm_registry vms_;
    behavior_model behaviors_;
    lifetime_model lifetimes_;
    placement_service placement_;
    std::unique_ptr<conductor> conductor_;
    std::vector<drs_cluster> clusters_;  ///< indexed by bb id value
    metric_store store_;
    event_heap<engine_event> queue_;
    population population_plan_;
    run_stats stats_;
    event_log events_;
    bool setup_done_ = false;
    /// When set, scrape() seals completed raw days through this sink.
    metric_store::raw_sink raw_stream_sink_;

    // --- SoA slot columns (see active_insert above) -----------------------
    // vm_slot_ is the only per-VM-ever array (4 B each); every other
    // column is slot-indexed and bounded by the peak concurrently-active
    // population.  The scrape hot loop streams these columns in
    // active_slots_ order (ascending vm id — the exact order the old
    // per-record walk produced, so shard float sums are unchanged).
    static constexpr std::uint32_t no_slot = 0xffffffffu;
    std::vector<std::uint32_t> vm_slot_;      ///< vm id value -> slot
    std::vector<std::uint32_t> free_slots_;   ///< recycled slots (LIFO)
    std::vector<vm_id> slot_vm_;              ///< owning vm
    std::vector<std::uint32_t> slot_node_;    ///< placed node id value
    std::vector<const flavor*> slot_flavor_;  ///< hoisted catalog entry
    std::vector<sim_time> slot_created_;      ///< creation time
    std::vector<series_id> slot_cpu_series_;
    std::vector<series_id> slot_mem_series_;
    std::vector<vm_behavior> slot_behavior_;  ///< sampled eagerly on fill
    /// Slots of active VMs ordered by ascending vm id (the canonical
    /// scrape/append order).
    std::vector<std::uint32_t> active_slots_;
    /// behavior_of() result for VMs without a slot (deleted / pending);
    /// only reached from serial contexts — parallel stages read slot
    /// columns or slots directly.
    vm_behavior fallback_behavior_;

    struct node_series {
        series_id cpu_util, contention, ready, mem, tx, rx, disk;
    };
    std::vector<node_series> node_series_;
    struct bb_series {
        series_id vcpus, vcpus_used, mem, mem_used;
    };
    std::vector<bb_series> bb_series_;
    series_id instances_series_;
    std::vector<double> bb_contention_ewma_;  ///< per bb id value

    // --- parallel scrape pipeline ---------------------------------------
    // Demand is evaluated in scrape_shard_count fixed shards of the active
    // VM list regardless of worker count, and shard partials are reduced
    // in shard order — so the floating-point grouping (and therefore every
    // emitted sample) is bit-identical whether 0, 1 or N workers run.
    // Stage 1 (demand) and the store's append shards are the only work
    // that leaves the event loop's thread: nothing else in a run holds
    // enough work to pay for the hand-off (EXPERIMENTS.md, "Where fanning
    // out pays").
    static constexpr unsigned scrape_shard_count = 16;

    /// Run fn over [0, count) — sharded across the pool, or inline when
    /// the engine is configured serial.
    void run_sharded(std::size_t count, const thread_pool::range_fn& fn);

    struct scrape_node {
        const node_runtime* nr;
        const compute_node* meta;
        std::uint32_t node_idx;     ///< node id value
        std::uint32_t cluster_idx;  ///< ordinal into clusters_
    };

    std::unique_ptr<thread_pool> pool_;  ///< null unless 2+ workers
    thread_pool* shared_pool_ = nullptr;  ///< non-owning; wins over pool_
    std::vector<double> scrape_cpu_col_;        ///< per active VM
    std::vector<double> scrape_mem_col_;        ///< per active VM
    /// One scrape's samples in canonical order, handed to the store's
    /// sharded batch append (stage 3).
    std::vector<metric_store::sample_event> scrape_batch_;
    /// Per fixed shard: one node_demand per node id value.
    std::vector<std::vector<node_demand>> shard_demand_;
    std::vector<scrape_node> scrape_nodes_;     ///< cluster-major, built once

    // --- churn arrivals ---------------------------------------------------
    // In-window arrivals are pre-sorted by creation time and drained by
    // ONE self-rescheduling event pinned to a reserved heap sequence slot
    // (event_heap::schedule_at_pinned), so the tie order at equal
    // timestamps is exactly the per-arrival schedule it replaces while the
    // heap carries O(1) arrival entries instead of one per arrival.  Each
    // drain places the arrivals due at its instant, in order.
    struct churn_arrival {
        vm_id vm;
        sim_time created_at;
        std::optional<sim_time> deleted_at;
    };
    std::vector<churn_arrival> arrivals_;    ///< stable-sorted by created_at
    std::size_t arrival_cursor_ = 0;         ///< next arrival to place
    std::uint64_t arrival_drain_seq_ = 0;    ///< pinned heap sequence slot

    // --- HA restart groups -----------------------------------------------
    // One crash's victims form a group due after the detection delay; the
    // group is drained by ONE event (scheduled where the per-victim restart
    // closures used to be, so the heap tie order is exactly what the old
    // per-victim events produced), which restarts its victims in order.
    // Victims whose restart fails re-enter as ONE retry group at
    // t + backoff, preserving the per-victim retry/backoff/attempt-budget
    // semantics bit for bit.
    struct ha_group {
        sim_time due;
        std::vector<vm_id> victims;  ///< event-time (= vm id) order
    };
    std::deque<ha_group> ha_groups_;  ///< sorted by due, FIFO within ties

    engine_probes probes_;  ///< invariant observation hooks (optional)

    // --- fault injection state (engaged only when fault.enabled()) ------
    std::unique_ptr<ha_controller> ha_;        ///< null when faults are off
    std::vector<char> node_down_;              ///< crashed / in maintenance
    /// Down specifically because of an AZ outage: the outage-end event
    /// repairs exactly these (individually crashed hosts keep their own
    /// repair clock).
    std::vector<char> node_az_down_;
    std::vector<double> node_cpu_factor_;      ///< degraded-capacity factor
    std::optional<rng_stream> mig_abort_rng_;  ///< serial event-loop draws
    std::optional<rng_stream> claim_fault_rng_;

    // --- conductor backpressure (engaged only when backpressure.active()) -
    std::unique_ptr<backpressure_controller> bp_;  ///< null in degrade mode
    std::uint64_t bp_drain_seq_ = 0;  ///< pinned heap sequence slot
    /// A capacity release happened during the current dispatch (set by the
    /// placement release listener and the repair paths); cleared when the
    /// drain event is armed at dispatch end.  Transient within one event —
    /// never set at a heap barrier, so snapshots need not carry it.
    bool bp_drain_wanted_ = false;
    bool bp_drain_armed_ = false;  ///< a drain event is live in the heap
    /// Guards against the drain's own quiet placement attempts re-arming
    /// the drain at the same instant (a failed node-claim path releases the
    /// provider reservation it just took, firing the release listener).
    bool bp_draining_ = false;
};

}  // namespace sci

#pragma once

// VMware DRS equivalent: intra-building-block load balancing.
//
// Nova places a VM onto a *building block*; the cluster then chooses the
// concrete ESXi node and periodically migrates VMs from over- to
// under-utilized nodes ("the DRS is configured to monitor the load of the
// ESXi hosts and triggers automatic migrations ... to ensure an optimal
// resource and load distribution", Section 3.1).
//
// The balancing metric is the standard deviation of node CPU utilization
// (demand / capacity), mirroring DRS's cluster imbalance metric.  A pass
// migrates VMs until the imbalance drops below the threshold or the
// per-pass migration budget is exhausted.  Heavy VMs (large memory) are
// skipped — the paper's "avoiding migration of heavy VMs" constraint.

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "hypervisor/node_runtime.hpp"
#include "infra/fleet.hpp"
#include "infra/flavor.hpp"

namespace sci {

struct drs_config {
    /// Target imbalance: stddev of node CPU utilization (0..1 scale).
    double imbalance_threshold = 0.08;
    /// Migration budget per balancing pass.
    int max_migrations_per_pass = 4;
    /// VMs with more reserved memory than this are never auto-migrated
    /// (migration of memory-heavy VMs causes unacceptable overhead,
    /// Section 3.2 — the operational policy is conservative, which is why
    /// node-level hotspots persist for weeks in Figures 8/9).
    mebibytes heavy_vm_ram_mib = gib_to_mib(100);
    /// Minimum imbalance improvement required to accept a migration.
    double min_gain = 0.005;
    /// Allocation ratios used for admission on the destination node.
    double cpu_allocation_ratio = 4.0;
    double ram_allocation_ratio = 1.0;
    /// Disable automatic balancing entirely (ablation: DRS off).
    bool enabled = true;
    /// Memory bin-packing mode (HANA / dedicated-XL clusters): initial
    /// placement fills the fullest node that still fits instead of the
    /// emptiest — "SAP S/4HANA workloads are explicitly bin-packed to
    /// maximize memory utilization" (Section 3.2).  Produces the
    /// nearly-full vs. nearly-empty node split of Figure 10.
    bool pack_memory = false;
};

/// One recommended (and applied) migration.
struct drs_migration {
    vm_id vm;
    node_id from;
    node_id to;
};

/// Demand oracle: instantaneous CPU demand (cores) of a VM.  Provided by
/// the engine, which owns the workload behaviors.
using vm_cpu_demand_fn = std::function<double(vm_id)>;

/// Flavor oracle: resolves a VM's flavor (for reservation accounting).
using vm_flavor_fn = std::function<const flavor&(vm_id)>;

/// One vSphere cluster: the node runtimes of a building block plus the
/// DRS balancing logic.
class drs_cluster {
public:
    drs_cluster(const building_block& block, drs_config config);

    bb_id bb() const { return bb_; }
    const drs_config& config() const { return config_; }

    /// Initial node placement: the admissible node with the lowest
    /// reserved-CPU utilization (DRS initial placement recommendation).
    /// Returns nullopt when no node admits the flavor.
    std::optional<node_id> initial_placement(const flavor& f) const;

    /// Place / remove a VM on a concrete node.
    void place(vm_id vm, const flavor& f, node_id node);
    void remove(vm_id vm, const flavor& f, node_id node);

    /// Current imbalance given per-VM demand.
    double imbalance(const vm_cpu_demand_fn& demand) const;

    /// Plan one balancing pass against a frozen copy of the node state
    /// without mutating the cluster.  The plan replays the exact
    /// place/remove sequence of the classic eager pass on the copy, so the
    /// returned moves — order included — are bit-identical to what the
    /// eager pass would have applied.  Being const, planning leaves the
    /// cluster untouched, so a plan can be timed or inspected on its own;
    /// the engine plans and then commits one cluster at a time via
    /// begin_pass() + commit_migration()/record_abort().
    std::vector<drs_migration> plan_rebalance(
        const vm_cpu_demand_fn& demand, const vm_flavor_fn& flavor_of) const;

    /// Open the serial commit of one planned pass: resets the per-pass
    /// abort-charge dedup window.
    void begin_pass();

    /// Commit one planned migration: remove from the source, place on the
    /// target.
    void commit_migration(const drs_migration& m, const flavor& f);

    /// Run one balancing pass; applies and returns migrations.  Equivalent
    /// to begin_pass() + plan_rebalance() + commit_migration() per move —
    /// the single-caller convenience the engine's split commit no longer
    /// uses but direct consumers (tests, tools) still do.
    std::vector<drs_migration> rebalance(const vm_cpu_demand_fn& demand,
                                         const vm_flavor_fn& flavor_of);

    const std::vector<node_runtime>& nodes() const { return nodes_; }
    node_runtime& node(node_id id);
    const node_runtime& node(node_id id) const;

    /// A planned migration whose pre-copy aborted mid-stream (sci::fault):
    /// the VM never left its source and node state is untouched, but the
    /// pre-copy bandwidth was spent.  Asserts the VM has not already been
    /// charged this pass — a move that aborts twice in one pass must not
    /// double-bill the wasted pre-copy.
    void record_abort(vm_id vm);

    // --- snapshot / fork support ------------------------------------------
    /// Flip automatic balancing post-restore (fork ablation arm).  Pure
    /// policy: plan_rebalance returns no moves when disabled and nothing
    /// else reads the flag, so the event stream is untouched.
    void set_enabled(bool enabled) { config_.enabled = enabled; }

    /// Rewrite the admission ratios post-restore (overcommit fork arm).
    void set_allocation_ratios(double cpu, double ram) {
        config_.cpu_allocation_ratio = cpu;
        config_.ram_allocation_ratio = ram;
    }

private:
    /// Node CPU demand in cores (sum over residents).
    double node_demand_cores(const node_runtime& nr,
                             const vm_cpu_demand_fn& demand) const;

    bb_id bb_;
    drs_config config_;
    std::vector<node_runtime> nodes_;
    std::vector<vm_id> aborted_this_pass_;  ///< record_abort dedup window
};

}  // namespace sci

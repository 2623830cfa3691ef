#pragma once

// Cross-building-block rebalancer.
//
// Section 3.1: "fragmentation and imbalances can also occur across
// building blocks, requiring manual intervention or external rebalancers
// to resolve them", and Section 7: "Continuous migration mechanisms
// across BBs are required to maintain balanced resource distribution."
//
// This is that external rebalancer: it groups building blocks by
// (data center, purpose) — cross-DC migrations are out of scope per
// Section 3.1 — and plans VM moves from the most to the least
// reservation-loaded BB until the spread falls under the target.  Every
// candidate move is vetted against the live-migration cost model: heavy
// VMs and non-converging migrations are never planned (Section 3.2).

#include <functional>
#include <vector>

#include "drs/migration.hpp"
#include "infra/fleet.hpp"
#include "infra/flavor.hpp"
#include "sched/placement.hpp"

namespace sci {

struct cross_bb_config {
    /// Target max-min spread of reserved-RAM ratio within a (DC, purpose)
    /// group of building blocks.
    double target_ram_spread = 0.20;
    /// Move budget per pass.
    int max_moves_per_pass = 8;
    /// Never move VMs reserving more memory than this (Section 3.2).
    mebibytes heavy_vm_ram_mib = gib_to_mib(1024);
    /// Veto moves whose estimated downtime exceeds this.
    double max_downtime_ms = 2000.0;
    migration_cost_config cost;
};

struct cross_bb_move {
    vm_id vm;
    bb_id from;
    bb_id to;
    migration_estimate estimate;
};

/// Oracles supplied by the engine (which owns VM state and behaviors).
struct cross_bb_inputs {
    /// VMs currently placed on a building block.
    std::function<std::vector<vm_id>(bb_id)> vms_of_bb;
    /// Flavor of a VM.
    std::function<const flavor&(vm_id)> flavor_of;
    /// Resident (consumed) memory of a VM right now.
    std::function<mebibytes(vm_id)> resident_mib;
    /// Dirty-page rate of a VM right now (MiB/s).
    std::function<double(vm_id)> dirty_rate;
};

class cross_bb_rebalancer {
public:
    cross_bb_rebalancer(const fleet& f, const flavor_catalog& catalog,
                        cross_bb_config config);

    /// Plan one balancing pass.  Does not mutate the placement; the caller
    /// applies the returned moves (placement.move + cluster updates).  The
    /// engine speculates the moves' destination nodes as a batch keyed on
    /// each target cluster's usage version (sim_engine::cross_bb_pass), so
    /// the plan must stay pure — any mutation here would invalidate the
    /// whole batch on every pass.  Each move is admitted against a copy of
    /// the usage table that already holds the moves planned before it,
    /// through the predicate placement_service::claim enforces (sci::fits),
    /// so every planned move's claim succeeds when applied in order.
    std::vector<cross_bb_move> plan(const placement_service& placement,
                                    const cross_bb_inputs& inputs) const;

    const cross_bb_config& config() const { return config_; }

private:
    const fleet& fleet_;
    const flavor_catalog& catalog_;
    cross_bb_config config_;
};

}  // namespace sci

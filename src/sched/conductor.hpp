#pragma once

// The Nova conductor (Figure 2, step 2): orchestrates one placement —
// builds the scheduler's host view from fleet + placement data, asks the
// scheduler for ranked candidates, claims greedily with retries (the
// paper: "Nova implements a greedy approach with retries reapplying
// filters and weighers, which yields multiple suitable candidates").
//
// The host view is maintained incrementally: topology/capacity fields are
// built once (the fleet and provider inventories are fixed after setup),
// and the usage fields refresh only when the placement service's version
// counter moved since the last request — the per-request full rebuild of
// the old code is gone from the hot path.

#include <cstdint>
#include <functional>
#include <vector>

#include "infra/fleet.hpp"
#include "infra/flavor.hpp"
#include "sched/placement.hpp"
#include "sched/scheduler.hpp"

namespace sci {

struct placement_outcome {
    bool success = false;
    bb_id bb;          ///< chosen building block when success
    int attempts = 0;  ///< claim attempts (1 = first candidate worked)
};

/// Per-provider allocation ratios; defaults applied per BB purpose.
struct allocation_ratios {
    double cpu = 1.0;
    double ram = 1.0;
};

/// Allocation ratios used in the SAP-like deployment (calibration.hpp).
allocation_ratios default_ratios_for(bb_purpose purpose);

class conductor {
public:
    conductor(const fleet& fleet, const flavor_catalog& catalog,
              placement_service& placement, filter_scheduler scheduler);

    /// Schedule and claim one VM: each round filters and weighs the live
    /// host view, then claims the ranked candidates in order until one
    /// holds.  Does not mutate the vm_registry; the caller applies the
    /// outcome (and assigns a node via DRS).
    placement_outcome schedule_and_claim(const schedule_request& request);

    /// Optional telemetry feed: average CPU contention per BB, consumed by
    /// contention-aware filters/weighers.
    void set_contention_feed(std::function<double(bb_id)> feed) {
        contention_feed_ = std::move(feed);
    }

    /// Optional fault hook (sci::fault): called before each placement
    /// claim with (vm, candidate, attempt); returning true makes the
    /// claim transiently fail — the lost claim race / RPC timeout the
    /// paper's "greedy approach with retries" exists to absorb — and the
    /// conductor moves on to the next alternate.
    void set_claim_fault(std::function<bool(vm_id, bb_id, int)> fault) {
        claim_fault_ = std::move(fault);
    }

    /// Current scheduler view of every registered provider, freshly built
    /// (snapshot semantics — the caller owns the copy).
    std::vector<host_state> build_host_states() const;

    /// Incrementally maintained live host view (see file comment).  The
    /// reference stays valid until providers are (re)registered.  With a
    /// contention feed installed the telemetry fields are re-pulled on
    /// every call, since the feed is not versioned — matching the old
    /// rebuild-per-request behaviour exactly.
    const std::vector<host_state>& host_states();

    /// The scheduler pipeline (immutable).
    const filter_scheduler& scheduler() const { return scheduler_; }

    /// Cumulative counters.
    std::uint64_t scheduled_count() const { return scheduled_; }
    std::uint64_t no_valid_host_count() const { return no_valid_host_; }
    std::uint64_t retry_count() const { return retries_; }
    std::uint64_t transient_claim_failure_count() const {
        return transient_claim_failures_;
    }

    // --- snapshot / fork support ------------------------------------------
    /// Overwrite the cumulative counters with checkpointed values.
    void restore_counters(std::uint64_t scheduled, std::uint64_t no_valid_host,
                          std::uint64_t retries,
                          std::uint64_t transient_claim_failures);

    /// Drop the cached host view so the next request rebuilds it from the
    /// live inventories (a fork policy knob changed provider capacity).
    void invalidate_host_view();

private:
    void refresh_host_states();

    const fleet& fleet_;
    const flavor_catalog& catalog_;
    placement_service& placement_;
    filter_scheduler scheduler_;
    std::function<double(bb_id)> contention_feed_;
    std::function<bool(vm_id, bb_id, int)> claim_fault_;

    // incremental host view: usage structs live in the placement service's
    // pointer-stable map (providers are never erased), so cached pointers
    // refresh the mutable fields in place
    std::vector<host_state> states_;
    std::vector<const provider_usage*> usage_refs_;
    std::uint64_t states_version_ = 0;

    sched_scratch scratch_;  ///< serial claim path working buffers

    std::uint64_t scheduled_ = 0;
    std::uint64_t no_valid_host_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t transient_claim_failures_ = 0;
};

}  // namespace sci

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
#include <span>
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

    /// Schedule and claim one VM.  Does not mutate the vm_registry; the
    /// caller applies the outcome (and assigns a node via DRS).
    ///
    /// `spec` (optional) is this request's speculative filter+weigh
    /// result against the batch's snapshot, and `base_counts` the claim
    /// counters (snapshot_claim_counts) taken when that snapshot was: the
    /// conductor diffs the live counters against the base to find
    /// providers claimed since, and commits the speculation through
    /// filter_scheduler::commit_speculation, whose corrected candidate
    /// list serves as round 0 of the retry loop — exact, so the claim
    /// sequence (including injected claim-fault draws) is bitwise what
    /// the pristine path would produce.  When round 0 yields no placement
    /// (counted as a speculation miss) the loop continues into round 1
    /// with a fresh selection, exactly like the pristine loop.
    placement_outcome schedule_and_claim(
        const schedule_request& request, const host_speculation* spec = nullptr,
        std::span<const std::uint64_t> base_counts = {});

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
    /// reference stays valid and index-aligned with spec dirty masks
    /// until providers are (re)registered.  With a contention feed
    /// installed the telemetry fields are re-pulled on every call, since
    /// the feed is not versioned — matching the old rebuild-per-request
    /// behaviour exactly.
    const std::vector<host_state>& host_states();

    /// The scheduler pipeline (immutable).
    const filter_scheduler& scheduler() const { return scheduler_; }

    // --- speculative placement batches ------------------------------------
    /// Copy the per-provider claim counters into `out` (refreshing the
    /// host view first so the counter vector is sized).  A batch owner
    /// snapshots these alongside host_states(); passing the snapshot back
    /// to schedule_and_claim identifies exactly the providers claimed
    /// since.  Counters are maintained unconditionally, so any number of
    /// batches — churn arrivals, HA recovery, initial placement — can be
    /// open against snapshots taken at different times.
    void snapshot_claim_counts(std::vector<std::uint64_t>& out);

    /// Cumulative counters.
    std::uint64_t scheduled_count() const { return scheduled_; }
    std::uint64_t no_valid_host_count() const { return no_valid_host_; }
    std::uint64_t retry_count() const { return retries_; }
    std::uint64_t transient_claim_failure_count() const {
        return transient_claim_failures_;
    }
    /// Placements committed straight from a speculation.
    std::uint64_t speculative_placement_count() const {
        return speculative_placements_;
    }
    /// Speculations whose corrected candidates were all gone at commit
    /// time; the request went through the full retry loop instead.
    std::uint64_t speculation_miss_count() const { return speculation_misses_; }

    // --- snapshot / fork support ------------------------------------------
    /// Overwrite the cumulative counters with checkpointed values.
    void restore_counters(std::uint64_t scheduled, std::uint64_t no_valid_host,
                          std::uint64_t retries,
                          std::uint64_t transient_claim_failures,
                          std::uint64_t speculative_placements,
                          std::uint64_t speculation_misses);

    /// Overwrite the per-provider claim counters (index-aligned with
    /// placement().providers()); builds the host view first so the
    /// counter vector is sized.
    void restore_claim_counts(const std::vector<std::uint64_t>& counts);

    /// Drop the cached host view so the next request rebuilds it from the
    /// live inventories (a fork policy knob changed provider capacity).
    /// Claim counters survive — the rebuild resizes without clearing.
    void invalidate_host_view();

private:
    void refresh_host_states();
    void mark_claimed(bb_id bb);

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

    // speculative-batch bookkeeping: claims per provider since construction
    // (always maintained — cheap — so concurrent open batches each diff
    // against their own snapshot), plus the per-request dirty scratch mask
    std::vector<std::uint64_t> claim_counts_;  ///< per provider index
    std::vector<char> dirty_scratch_;          ///< per provider index
    std::vector<std::uint32_t> provider_pos_;  ///< bb id value -> index

    sched_scratch scratch_;  ///< serial claim path working buffers

    std::uint64_t scheduled_ = 0;
    std::uint64_t no_valid_host_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t transient_claim_failures_ = 0;
    std::uint64_t speculative_placements_ = 0;
    std::uint64_t speculation_misses_ = 0;
};

}  // namespace sci

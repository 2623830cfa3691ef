#include "sched/conductor.hpp"

#include <algorithm>

#include "simcore/error.hpp"
#include "workload/calibration.hpp"

namespace sci {

allocation_ratios default_ratios_for(bb_purpose purpose) {
    namespace cal = calibration;
    switch (purpose) {
        case bb_purpose::hana:
        case bb_purpose::dedicated_xl:
            return {cal::hana_cpu_allocation_ratio, cal::hana_ram_allocation_ratio};
        case bb_purpose::general:
        case bb_purpose::gpu:
        case bb_purpose::reserve:
            return {cal::gp_cpu_allocation_ratio, cal::gp_ram_allocation_ratio};
    }
    return {1.0, 1.0};
}

conductor::conductor(const fleet& fleet, const flavor_catalog& catalog,
                     placement_service& placement, filter_scheduler scheduler)
    : fleet_(fleet),
      catalog_(catalog),
      placement_(placement),
      scheduler_(std::move(scheduler)) {}

std::vector<host_state> conductor::build_host_states() const {
    std::vector<host_state> states;
    states.reserve(placement_.providers().size());
    for (bb_id bb : placement_.providers()) {
        const building_block& block = fleet_.get(bb);
        const datacenter& dc = fleet_.get(block.dc);
        const provider_inventory& inv = placement_.inventory(bb);
        const provider_usage& use = placement_.usage(bb);
        host_state s;
        s.bb = bb;
        s.dc = block.dc;
        s.az = dc.az;
        s.purpose = block.purpose;
        s.node_count = static_cast<int>(block.nodes.size());
        s.total_pcpus = inv.total_pcpus;
        s.total_ram_mib = inv.total_ram_mib;
        s.total_disk_gib = inv.total_disk_gib;
        s.cpu_allocation_ratio = inv.cpu_allocation_ratio;
        s.ram_allocation_ratio = inv.ram_allocation_ratio;
        s.vcpus_used = use.vcpus_used;
        s.ram_used_mib = use.ram_used_mib;
        s.disk_used_gib = use.disk_used_gib;
        s.instances = use.instances;
        if (contention_feed_) s.avg_cpu_contention_pct = contention_feed_(bb);
        states.push_back(s);
    }
    return states;
}

const std::vector<host_state>& conductor::host_states() {
    refresh_host_states();
    return states_;
}

void conductor::refresh_host_states() {
    const std::vector<bb_id>& providers = placement_.providers();
    if (states_.size() != providers.size()) {
        // first call (or providers registered since): full build, caching
        // the pointer-stable usage records for the incremental refreshes
        states_ = build_host_states();
        usage_refs_.clear();
        usage_refs_.reserve(providers.size());
        for (const bb_id bb : providers) {
            usage_refs_.push_back(&placement_.usage(bb));
        }
        states_version_ = placement_.version();
        return;
    }
    // Usage unchanged and no (unversioned) telemetry feed: view is current.
    if (!contention_feed_ && states_version_ == placement_.version()) return;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        const provider_usage& use = *usage_refs_[i];
        host_state& s = states_[i];
        s.vcpus_used = use.vcpus_used;
        s.ram_used_mib = use.ram_used_mib;
        s.disk_used_gib = use.disk_used_gib;
        s.instances = use.instances;
        if (contention_feed_) s.avg_cpu_contention_pct = contention_feed_(s.bb);
    }
    states_version_ = placement_.version();
}

void conductor::invalidate_host_view() {
    states_.clear();
    usage_refs_.clear();
    states_version_ = 0;
}

placement_outcome conductor::schedule_and_claim(
    const schedule_request& request) {
    const flavor& f = catalog_.get(request.flavor);
    const request_context ctx{request, f};
    placement_outcome outcome;

    for (int round = 0; round <= request.max_retries; ++round) {
        // a handful of alternates per round, like Nova's alternate list
        const std::span<const bb_id> candidates =
            scheduler_.select_destinations(ctx, host_states(), 5, scratch_);
        if (candidates.empty()) break;

        for (bb_id candidate : candidates) {
            ++outcome.attempts;
            if (claim_fault_ &&
                claim_fault_(request.vm, candidate, outcome.attempts)) {
                ++transient_claim_failures_;
                continue;  // injected claim race: try the next alternate
            }
            try {
                placement_.claim(request.vm, candidate, f);
                outcome.success = true;
                outcome.bb = candidate;
                return outcome;
            } catch (const capacity_error&) {
                continue;  // race lost: try the next alternate
            }
        }
    }
    return outcome;
}

}  // namespace sci

#include "rebalancer/cross_bb.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "simcore/error.hpp"

namespace sci {

cross_bb_rebalancer::cross_bb_rebalancer(const fleet& f,
                                         const flavor_catalog& catalog,
                                         cross_bb_config config)
    : fleet_(f), catalog_(catalog), config_(config) {
    expects(config_.target_ram_spread >= 0.0,
            "cross_bb_rebalancer: negative target spread");
    expects(config_.max_moves_per_pass >= 0,
            "cross_bb_rebalancer: negative move budget");
}

std::vector<cross_bb_move> cross_bb_rebalancer::plan(
    const placement_service& placement, const cross_bb_inputs& inputs) const {
    expects(inputs.vms_of_bb && inputs.flavor_of && inputs.resident_mib &&
                inputs.dirty_rate,
            "cross_bb_rebalancer::plan: all oracles required");

    // group providers by (dc, purpose); the scheduling domain is one DC
    std::map<std::pair<std::int32_t, bb_purpose>, std::vector<bb_id>> groups;
    for (bb_id bb : placement.providers()) {
        const building_block& block = fleet_.get(bb);
        groups[{block.dc.value(), block.purpose}].push_back(bb);
    }

    std::vector<cross_bb_move> moves;
    // working copy of every provider's usage, so each admission sees the
    // moves planned before it, through claim()'s own predicate
    std::map<bb_id, provider_usage> usage;
    for (bb_id bb : placement.providers()) usage[bb] = placement.usage(bb);
    const auto ratio_of = [&](bb_id bb) {
        return static_cast<double>(usage[bb].ram_used_mib) /
               static_cast<double>(placement.inventory(bb).total_ram_mib);
    };
    // VMs already planned to move must not be picked twice
    std::map<bb_id, std::vector<vm_id>> pending_arrivals;
    std::vector<vm_id> already_moved;

    for (const auto& [key, bbs] : groups) {
        if (bbs.size() < 2) continue;

        for (int pass = 0;
             pass < config_.max_moves_per_pass &&
             static_cast<int>(moves.size()) < config_.max_moves_per_pass;
             ++pass) {
            bb_id donor = bbs.front();
            bb_id receiver = bbs.front();
            for (bb_id bb : bbs) {
                if (ratio_of(bb) > ratio_of(donor)) donor = bb;
                if (ratio_of(bb) < ratio_of(receiver)) receiver = bb;
            }
            const double spread = ratio_of(donor) - ratio_of(receiver);
            if (spread <= config_.target_ram_spread) break;

            // ideal transfer: half the absolute memory gap
            const double gap_mib =
                ratio_of(donor) *
                    static_cast<double>(placement.inventory(donor).total_ram_mib) -
                ratio_of(receiver) *
                    static_cast<double>(
                        placement.inventory(receiver).total_ram_mib);
            const double ideal = gap_mib / 2.0;

            vm_id best;
            double best_delta = std::numeric_limits<double>::infinity();
            migration_estimate best_estimate;
            for (vm_id vm : inputs.vms_of_bb(donor)) {
                if (std::find(already_moved.begin(), already_moved.end(), vm) !=
                    already_moved.end()) {
                    continue;
                }
                const flavor& f = inputs.flavor_of(vm);
                if (f.ram_mib > config_.heavy_vm_ram_mib) continue;
                if (static_cast<double>(f.ram_mib) > gap_mib) continue;
                // receiver admission under its allocation ratios
                if (!fits(placement.inventory(receiver), usage[receiver], f)) {
                    continue;
                }
                // migration feasibility (Section 3.2)
                const migration_estimate est = estimate_live_migration(
                    inputs.resident_mib(vm), inputs.dirty_rate(vm), config_.cost);
                if (!est.converges || est.downtime_ms > config_.max_downtime_ms) {
                    continue;
                }
                const double delta =
                    std::abs(static_cast<double>(f.ram_mib) - ideal);
                if (delta < best_delta) {
                    best_delta = delta;
                    best = vm;
                    best_estimate = est;
                }
            }
            if (!best.valid()) break;

            const flavor& f = inputs.flavor_of(best);
            charge(usage[donor], f, -1);
            charge(usage[receiver], f, +1);
            already_moved.push_back(best);
            moves.push_back(cross_bb_move{best, donor, receiver, best_estimate});
        }
    }
    return moves;
}

}  // namespace sci

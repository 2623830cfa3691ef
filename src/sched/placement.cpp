#include "sched/placement.hpp"

#include <algorithm>

#include "simcore/error.hpp"

namespace sci {

void placement_service::register_provider(bb_id bb, provider_inventory inventory) {
    expects(bb.valid(), "placement_service::register_provider: invalid bb");
    expects(inventory.total_pcpus > 0 && inventory.total_ram_mib > 0,
            "placement_service::register_provider: empty inventory");
    expects(inventory.cpu_allocation_ratio > 0.0 &&
                inventory.ram_allocation_ratio > 0.0,
            "placement_service::register_provider: ratios must be positive");
    const auto [it, inserted] =
        providers_.emplace(bb, provider_record{inventory, {}});
    (void)it;
    expects(inserted, "placement_service::register_provider: duplicate provider");
    order_.push_back(bb);
}

bool placement_service::has_provider(bb_id bb) const {
    return providers_.contains(bb);
}

placement_service::provider_record& placement_service::record(bb_id bb) {
    const auto it = providers_.find(bb);
    if (it == providers_.end()) {
        throw not_found_error("placement_service: unknown provider");
    }
    return it->second;
}

const placement_service::provider_record& placement_service::record(bb_id bb) const {
    const auto it = providers_.find(bb);
    if (it == providers_.end()) {
        throw not_found_error("placement_service: unknown provider");
    }
    return it->second;
}

const provider_inventory& placement_service::inventory(bb_id bb) const {
    return record(bb).inventory;
}

const provider_usage& placement_service::usage(bb_id bb) const {
    return record(bb).usage;
}

bool fits(const provider_inventory& inventory, const provider_usage& usage,
          const flavor& f) {
    const double cpu_cap = static_cast<double>(inventory.total_pcpus) *
                           inventory.cpu_allocation_ratio;
    const double ram_cap = static_cast<double>(inventory.total_ram_mib) *
                           inventory.ram_allocation_ratio;
    return static_cast<double>(usage.vcpus_used + f.vcpus) <= cpu_cap &&
           static_cast<double>(usage.ram_used_mib + f.ram_mib) <= ram_cap &&
           usage.disk_used_gib + f.disk_gib <= inventory.total_disk_gib;
}

void charge(provider_usage& usage, const flavor& f, int sign) {
    usage.vcpus_used += sign * f.vcpus;
    usage.ram_used_mib += sign * f.ram_mib;
    usage.disk_used_gib += sign * f.disk_gib;
    usage.instances += sign;
}

bool placement_service::can_fit(bb_id bb, const flavor& f) const {
    const provider_record& r = record(bb);
    return fits(r.inventory, r.usage, f);
}

void placement_service::claim(vm_id vm, bb_id bb, const flavor& f) {
    expects(vm.valid(), "placement_service::claim: invalid vm");
    expects(!allocations_.contains(vm),
            "placement_service::claim: vm already allocated");
    if (!can_fit(bb, f)) {
        throw capacity_error("placement_service::claim: provider full");
    }
    reclaim(vm, bb, f);
}

void placement_service::reclaim(vm_id vm, bb_id bb, const flavor& f) {
    expects(vm.valid(), "placement_service::reclaim: invalid vm");
    expects(!allocations_.contains(vm),
            "placement_service::reclaim: vm already allocated");
    charge(record(bb).usage, f, +1);
    allocations_.emplace(vm, bb);
    ++version_;
}

void placement_service::release(vm_id vm, const flavor& f) {
    const auto it = allocations_.find(vm);
    expects(it != allocations_.end(),
            "placement_service::release: vm holds no allocation");
    provider_record& r = record(it->second);
    charge(r.usage, f, -1);
    ensures(r.usage.vcpus_used >= 0 && r.usage.ram_used_mib >= 0 &&
                r.usage.instances >= 0,
            "placement_service::release: usage went negative");
    allocations_.erase(it);
    ++version_;
    ++shrink_version_;
    if (release_listener_) release_listener_();
}

void placement_service::move(vm_id vm, bb_id to, const flavor& f) {
    const auto it = allocations_.find(vm);
    expects(it != allocations_.end(), "placement_service::move: vm not allocated");
    const bb_id from = it->second;
    if (from == to) return;
    release(vm, f);
    try {
        claim(vm, to, f);
    } catch (const capacity_error&) {
        // unchecked: the source may sit above a shrunk capacity, and the
        // rollback must restore the reservation regardless
        reclaim(vm, from, f);
        throw;
    }
}

std::vector<std::pair<vm_id, bb_id>> placement_service::allocation_table() const {
    std::vector<std::pair<vm_id, bb_id>> rows(allocations_.begin(),
                                              allocations_.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return rows;
}

void placement_service::restore_usage(bb_id bb, const provider_usage& usage) {
    record(bb).usage = usage;
}

void placement_service::restore_allocations(
    const std::vector<std::pair<vm_id, bb_id>>& rows) {
    allocations_.clear();
    for (const auto& [vm, bb] : rows) {
        expects(providers_.contains(bb),
                "placement_service::restore_allocations: unknown provider");
        const bool inserted = allocations_.emplace(vm, bb).second;
        expects(inserted,
                "placement_service::restore_allocations: duplicate vm row");
    }
}

void placement_service::restore_versions(std::uint64_t version,
                                         std::uint64_t shrink_version) {
    version_ = version;
    shrink_version_ = shrink_version;
}

void placement_service::update_inventory(bb_id bb,
                                         const provider_inventory& inventory) {
    expects(inventory.cpu_allocation_ratio > 0.0 &&
                inventory.ram_allocation_ratio > 0.0,
            "placement_service::update_inventory: ratios must be positive");
    record(bb).inventory = inventory;
}

std::optional<bb_id> placement_service::allocation_of(vm_id vm) const {
    const auto it = allocations_.find(vm);
    if (it == allocations_.end()) return std::nullopt;
    return it->second;
}

}  // namespace sci

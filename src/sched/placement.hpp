#pragma once

// The Placement API (Figure 2, step 5): authoritative inventory and
// allocation records per resource provider.  In this deployment each
// building block (vSphere cluster) is one resource provider.
//
// claim() is atomic at the provider level: it re-checks capacity under the
// allocation ratios and either records the allocation or throws
// capacity_error — modelling the race the Nova retry loop exists for.

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "infra/flavor.hpp"
#include "infra/ids.hpp"
#include "simcore/units.hpp"

namespace sci {

/// What a provider offers (physical capacity + overcommit ratios).
struct provider_inventory {
    core_count total_pcpus = 0;
    mebibytes total_ram_mib = 0;
    gibibytes total_disk_gib = 0.0;
    double cpu_allocation_ratio = 1.0;
    double ram_allocation_ratio = 1.0;
};

/// What is currently allocated from a provider.
struct provider_usage {
    core_count vcpus_used = 0;
    mebibytes ram_used_mib = 0;
    gibibytes disk_used_gib = 0.0;
    int instances = 0;
};

/// Whether one more `f` fits `usage` within `inventory` under its
/// allocation ratios: the predicate claim() enforces.  Planners that work
/// on a copy of the usage table admit moves through it too, so a plan and
/// the claims that carry it out cannot disagree.
bool fits(const provider_inventory& inventory, const provider_usage& usage,
          const flavor& f);

/// Add (sign +1) or remove (sign -1) one `f` from a usage record.
void charge(provider_usage& usage, const flavor& f, int sign);

class placement_service {
public:
    /// Register a building block as a resource provider.
    void register_provider(bb_id bb, provider_inventory inventory);

    bool has_provider(bb_id bb) const;
    const provider_inventory& inventory(bb_id bb) const;
    const provider_usage& usage(bb_id bb) const;

    /// Would the flavor fit right now (under the allocation ratios)?
    bool can_fit(bb_id bb, const flavor& f) const;

    /// Record an allocation for a VM.  Throws capacity_error when the
    /// provider no longer fits the flavor, not_found_error for unknown
    /// providers, precondition_error if the VM already holds an allocation.
    void claim(vm_id vm, bb_id bb, const flavor& f);

    /// Release a VM's allocation.  Throws if the VM holds none.
    void release(vm_id vm, const flavor& f);

    /// Re-record a reservation that was just release()d, skipping the
    /// capacity check.  Rollback paths (failed resize, failed move) restore
    /// exactly what they released, so they cannot create *new* overcommit —
    /// but the provider may legitimately sit above a capacity that shrank
    /// under live usage (update_inventory with a lower allocation ratio),
    /// and the ordinary claim() would refuse the restore.
    void reclaim(vm_id vm, bb_id bb, const flavor& f);

    /// Move a VM's allocation between providers (cross-BB migration).
    void move(vm_id vm, bb_id to, const flavor& f);

    /// Provider currently holding the VM's allocation, if any.
    std::optional<bb_id> allocation_of(vm_id vm) const;

    /// All registered providers (deterministic registration order).
    const std::vector<bb_id>& providers() const { return order_; }

    std::size_t allocation_count() const { return allocations_.size(); }

    /// Monotonic mutation counter, bumped by every claim/release (and so
    /// twice by move).  Lets callers cache derived views of the usage
    /// table and refresh only when something actually changed.
    std::uint64_t version() const { return version_; }

    /// Observer invoked after every release() (and so during move()):
    /// capacity just came back, so queued admission requests may now fit.
    /// The backpressure layer uses this to arm its drain event.  At most
    /// one listener; pass nullptr to clear.
    void set_release_listener(std::function<void()> fn) {
        release_listener_ = std::move(fn);
    }

    // --- snapshot / fork support ------------------------------------------
    /// Every allocation as (vm, bb) rows sorted by vm id — the canonical
    /// serialized form (the live map's iteration order is not).
    std::vector<std::pair<vm_id, bb_id>> allocation_table() const;

    /// Overwrite one provider's usage with checkpointed values.  Usage
    /// doubles accumulate over the run, so they must round-trip bitwise —
    /// recomputing from allocations would drift.
    void restore_usage(bb_id bb, const provider_usage& usage);

    /// Replace the allocation table wholesale (rows as produced by
    /// allocation_table); usage is restored separately via restore_usage.
    void restore_allocations(const std::vector<std::pair<vm_id, bb_id>>& rows);

    void restore_version(std::uint64_t version) { version_ = version; }

    /// Replace a provider's inventory in place (fork policy knob: e.g. the
    /// overcommit-sweep ratio).  Usage and allocations are untouched and
    /// the version counter does not move — callers holding cached host
    /// views must invalidate them explicitly.
    void update_inventory(bb_id bb, const provider_inventory& inventory);

private:
    struct provider_record {
        provider_inventory inventory;
        provider_usage usage;
    };

    provider_record& record(bb_id bb);
    const provider_record& record(bb_id bb) const;

    std::unordered_map<bb_id, provider_record> providers_;
    std::vector<bb_id> order_;
    std::unordered_map<vm_id, bb_id> allocations_;
    std::uint64_t version_ = 0;
    std::function<void()> release_listener_;
};

}  // namespace sci

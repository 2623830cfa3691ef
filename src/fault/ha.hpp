#pragma once

// HA recovery controller (vSphere-HA / Nova evacuate equivalent).
//
// When a hypervisor crashes, its VMs are gone until the HA layer notices
// and asks the scheduler to re-place them — under pressure, because the
// surviving hosts just absorbed the cluster's load.  This controller owns
// the recovery *bookkeeping and policy* (who is down since when, how many
// attempts, when to give up) and the resulting availability statistics
// (per-VM downtime distribution, MTTR); the engine performs the actual
// re-placement through the real Nova conductor so HA restarts exercise
// the same retry / NoValidHost machinery as regular placements.
//
// One detection epoch's victims drain as a group, each through the
// conductor's retry loop, and on_restart_failure is charged exactly once
// per genuine NoValidHost outcome: the claim retries inside one restart
// are the SAME attempt and must not inflate the victim's attempt budget.

#include <optional>
#include <unordered_map>
#include <vector>

#include "infra/ids.hpp"
#include "simcore/time.hpp"

namespace sci {

class ha_controller {
public:
    ha_controller(sim_duration retry_backoff, int max_restart_attempts);

    /// A VM lost its host at time t; a restart is now pending.
    void on_crash(vm_id vm, sim_time t);

    /// Whether a restart is pending for this VM.
    bool pending(vm_id vm) const { return pending_.contains(vm); }
    std::size_t pending_count() const { return pending_.size(); }

    /// The owner deleted the VM while it was down: drop the pending
    /// restart.  Returns false when no restart was pending.
    bool cancel(vm_id vm);

    /// A restart attempt succeeded: records the downtime sample
    /// (t - crash time) and clears the pending state.
    void on_restart_success(vm_id vm, sim_time t);

    /// A restart attempt failed (NoValidHost).  Returns the time of the
    /// next attempt, or nullopt when the attempt budget is exhausted (the
    /// victim is abandoned and stays in error state).
    std::optional<sim_time> on_restart_failure(vm_id vm, sim_time t);

    // --- availability statistics -----------------------------------------
    std::uint64_t crashed_vms() const { return crashed_; }
    std::uint64_t restarted_vms() const { return restarted_; }
    std::uint64_t abandoned_vms() const { return abandoned_; }
    std::uint64_t cancelled_vms() const { return cancelled_; }
    std::uint64_t failed_attempts() const { return failed_attempts_; }

    /// Failed attempts charged against a pending victim so far (0 for
    /// unknown/recovered VMs).  A fresh crash after a successful restart
    /// starts again at 0 — the budget is per recovery, never inherited.
    int attempts_of(vm_id vm) const;

    /// Downtime (seconds) of every successfully restarted VM, in recovery
    /// order — the availability distribution of the report.
    const std::vector<double>& downtime_samples() const { return downtime_; }

    /// Mean time to recovery over restarted VMs (seconds; 0 when none).
    double mttr() const;

    // --- snapshot support -------------------------------------------------
    struct pending_row {
        vm_id vm;
        sim_time crashed_at = 0;
        int attempts = 0;
    };

    /// Pending victims as rows sorted by vm id — the canonical serialized
    /// form (the live map's iteration order is not).
    std::vector<pending_row> pending_table() const;

    /// Overwrite the complete controller state with checkpointed values.
    /// `downtime` keeps recovery order; the backoff/attempt policy comes
    /// from the constructor (config, not state).
    void restore_state(const std::vector<pending_row>& pending,
                       std::vector<double> downtime, std::uint64_t crashed,
                       std::uint64_t restarted, std::uint64_t abandoned,
                       std::uint64_t cancelled, std::uint64_t failed_attempts);

private:
    struct victim {
        sim_time crashed_at = 0;
        int attempts = 0;
    };

    sim_duration retry_backoff_;
    int max_restart_attempts_;
    std::unordered_map<vm_id, victim> pending_;
    std::vector<double> downtime_;
    std::uint64_t crashed_ = 0;
    std::uint64_t restarted_ = 0;
    std::uint64_t abandoned_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t failed_attempts_ = 0;
};

}  // namespace sci

#pragma once

// Checkpoint / restore / fork of a running simulation (sci::snapshot).
//
// A snapshot is the *complete mutable state* of a sim_engine at an
// event-time barrier (any instant after run_until(T) returned): pending
// event-heap entries with their sequence slots, every VM's lifecycle
// fields, placement usage + allocations + version counter, conductor and
// cluster counters, per-node reservations, the metric store's running
// aggregates and unsealed raw blocks, the churn-arrival cursor, the HA
// controller's pending victims and queued restart groups, the
// backpressure queue, fault arrays, and the textual positions of the
// serial fault RNG streams.
//
// Everything derivable purely from the config is NOT stored and instead
// rebuilt on restore: the fleet (make_regional_scenario), VM names and
// projects (build_population), behavior/lifetime models, the scheduler
// pipeline and per-node/BB series registrations (setup_providers), and
// the node-churn plan (a pure function of seed + fleet size).  That keeps
// snapshots small — state, not world — while `snapshot → restore →
// run_until(W)` reproduces the uninterrupted run's replay fingerprints
// bit for bit at any SCI_THREADS.
//
// Forking: an engine_state is immutable once captured, so N what-if arms
// share ONE state behind a shared_ptr and each restore() builds only its
// private overlay (fleet + registries + overlaid mutable state) — far
// cheaper than re-running setup(), whose initial placement dominates.
// Post-restore policy mutators (sim_engine::set_drs_enabled,
// set_gp_cpu_allocation_ratio) turn a fork into an ablation arm.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "fault/ha.hpp"
#include "simcore/error.hpp"
#include "simcore/stats.hpp"
#include "simcore/thread_pool.hpp"
#include "telemetry/store.hpp"

namespace sci {

class region_set;  // sci::multiregion (capture/restore compose per region)

namespace snapshot {

/// Serialized-format version.  deserialize() reads this version only; a
/// snapshot from an older or a future build fails with a precise error
/// instead of misinterpreting bytes.  v4 dropped the open placement
/// batches, claim counters and shrink and usage versions with the code
/// that kept them.
/// The field lists of engine_config and run_stats (core/engine.hpp) say
/// which members the payload carries: not the host timings, the retired
/// counters or the two population fields the engine recomputes at setup,
/// so two captures of one state are byte-identical.
inline constexpr std::uint32_t format_version = 4;

/// Raised by the codec on malformed input: wrong magic, another format
/// version, truncation, checksum mismatch, or an out-of-range enum value.
/// Never undefined behaviour — every read is length-checked before it
/// happens.
class snapshot_error : public error {
public:
    explicit snapshot_error(const std::string& what) : error(what) {}
};

/// One series of the metric store: identity (metric + labels, so restore
/// re-creates ids in ascending order) plus the complete mutable payload.
struct series_state {
    std::string metric;
    std::vector<std::pair<std::string, std::string>> labels;  ///< sorted
    std::int32_t daily_first = -1;
    std::vector<running_stats::exact_state> daily;
    std::int32_t hourly_first = -1;
    std::vector<running_stats::exact_state> hourly;
    std::vector<sample> raw;  ///< unsealed samples, time-ascending
};

/// Mutable lifecycle fields of one VM record (index = vm id; names and
/// projects are rebuilt by build_population).
struct vm_state_row {
    flavor_id flavor;  ///< current flavor (resizes move it)
    vm_state state = vm_state::pending;
    sim_time created_at = 0;
    std::optional<sim_time> deleted_at;
    bb_id placed_bb;
    node_id placed_node;
    std::int32_t migration_count = 0;
};

/// Reservation state of one node (cluster-major, nodes() order).
struct node_state_row {
    bool accepting = true;
    std::vector<vm_id> residents;  ///< ascending
    core_count reserved_vcpus = 0;
    mebibytes reserved_ram_mib = 0;
    gibibytes reserved_disk_gib = 0.0;
};

/// Lifetime counters of one DRS cluster (clusters_ order = bb id order).
struct cluster_state_row {
    std::uint64_t migrations = 0;
    std::uint64_t aborts = 0;
};

/// One queued HA victim group (deque order).
struct ha_group_state {
    sim_time due = 0;
    std::vector<vm_id> victims;
};

/// Complete engine state at an event-time barrier.  Immutable by
/// convention once captured (fork() shares it across arms).
struct engine_state {
    engine_config config;  ///< snapshots are self-contained
    std::string region;    ///< region name for region_set bundles ("" solo)

    // --- event loop -------------------------------------------------------
    std::vector<event_heap<engine_event>::entry> queue;  ///< (at, seq) asc
    sim_time now = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;

    // --- VMs & placement --------------------------------------------------
    std::vector<vm_state_row> vms;  ///< index = vm id
    std::vector<provider_usage> provider_usages;  ///< providers() order
    std::vector<std::pair<vm_id, bb_id>> allocations;  ///< sorted by vm
    std::uint64_t placement_version = 0;

    // --- conductor --------------------------------------------------------
    std::uint64_t sched_scheduled = 0;
    std::uint64_t sched_no_valid_host = 0;
    std::uint64_t sched_retries = 0;
    std::uint64_t sched_transient_claim_failures = 0;

    // --- clusters & nodes -------------------------------------------------
    std::vector<cluster_state_row> clusters;
    std::vector<node_state_row> nodes;  ///< cluster-major

    // --- telemetry --------------------------------------------------------
    std::vector<series_state> series;  ///< ascending series id
    std::vector<std::pair<std::uint64_t, std::uint64_t>> shard_counters;
    std::int32_t raw_sealed_through = -1;

    // --- log & stats ------------------------------------------------------
    std::vector<lifecycle_event> events;
    run_stats stats;

    // --- churn arrivals ---------------------------------------------------
    std::uint64_t arrival_cursor = 0;
    std::uint64_t arrival_drain_seq = 0;

    // --- backpressure -----------------------------------------------------
    bool has_bp = false;
    std::vector<bp_queued_request> bp_queue;  ///< front-to-back
    std::uint8_t bp_regime = 0;               ///< sci::bp_regime value
    std::vector<sim_time> bp_transitions;
    std::uint64_t bp_drain_seq = 0;  ///< pinned drain slot (always reserved)
    bool bp_drain_armed = false;     ///< a drain event sits in the queue

    // --- HA recovery ------------------------------------------------------
    bool has_ha = false;
    std::vector<ha_controller::pending_row> ha_pending;  ///< sorted by vm
    std::vector<double> ha_downtime;
    std::uint64_t ha_crashed = 0;
    std::uint64_t ha_restarted = 0;
    std::uint64_t ha_abandoned = 0;
    std::uint64_t ha_cancelled = 0;
    std::uint64_t ha_failed_attempts = 0;
    std::vector<ha_group_state> ha_groups;

    // --- fault layer ------------------------------------------------------
    std::vector<char> node_down;
    std::vector<char> node_az_down;
    std::vector<double> node_cpu_factor;
    bool has_mig_abort_rng = false;
    std::string mig_abort_rng_state;  ///< textual mt19937_64 position
    bool has_claim_fault_rng = false;
    std::string claim_fault_rng_state;

    // --- contention feed --------------------------------------------------
    std::vector<double> bb_contention_ewma;
};

// --- capture / restore / fork ----------------------------------------------

/// Capture the complete state of a set-up engine at the current event-time
/// barrier (call only between run_until returns — never from a probe).
/// Non-const because reading the serial fault RNG positions touches
/// their streams; the simulated state is not perturbed.
engine_state capture(sim_engine& engine);

/// Rebuild a live engine from a state: pure-from-config parts are re-run
/// (scenario, population, models, providers), mutable state is overlaid.
/// `shared_pool` wires the engine to an external pool before restore
/// (region_set composition / fork fan-out); the pool must outlive the
/// engine.  The result is indistinguishable from the engine the state was
/// captured from: running both to any later time produces bit-identical
/// fingerprints at any SCI_THREADS.
std::unique_ptr<sim_engine> restore(const engine_state& state,
                                    thread_pool* shared_pool = nullptr);

/// Immutable shared snapshot: N forks hold one state, zero deep copies.
using shared_snapshot = std::shared_ptr<const engine_state>;

inline shared_snapshot share(engine_state state) {
    return std::make_shared<const engine_state>(std::move(state));
}

/// Fork one arm off a shared snapshot (copy-on-write: the arm's overlay
/// is private, the state stays shared and untouched).
inline std::unique_ptr<sim_engine> fork(const shared_snapshot& snap,
                                        thread_pool* shared_pool = nullptr) {
    expects(snap != nullptr, "snapshot::fork: null snapshot");
    return restore(*snap, shared_pool);
}

// --- multi-region composition -----------------------------------------------

/// Capture every region of a region_set at one shared event-time barrier
/// (call after region_set::run_until(T) returned — the pool barrier IS
/// the event-time barrier for all N regions).  States carry their region
/// names, so a bundle round-trips through restore_regions.
std::vector<engine_state> capture(region_set& regions);

/// Rebuild a region_set from captured per-region states: one restored
/// engine per state, all sharing one pool of `threads` workers (nullopt =
/// SCI_THREADS).  setup() on the result is a no-op.
std::unique_ptr<region_set> restore_regions(
    std::span<const engine_state> states,
    std::optional<unsigned> threads = std::nullopt);

// --- versioned byte codec ---------------------------------------------------

/// Serialize to the versioned byte format: magic + version + payload
/// length + FNV-1a checksum + payload.  Deterministic: equal states
/// produce equal bytes, and save·load·save is the identity (every
/// container is captured in canonical order).
std::vector<std::byte> serialize(const engine_state& state);

/// Parse serialized bytes; throws snapshot_error with a precise message
/// on bad magic, a version other than format_version, truncation,
/// checksum mismatch, or an enum value outside its type.
engine_state deserialize(std::span<const std::byte> bytes);

/// Write / read a snapshot file (the CLI's --snapshot-at / --restore).
void save_file(const engine_state& state, const std::string& path);
engine_state load_file(const std::string& path);

}  // namespace snapshot
}  // namespace sci

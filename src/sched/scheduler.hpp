#pragma once

// The filter scheduler (Figure 3): filters eliminate unsuitable hosts,
// weighers rank the survivors, and the scheduler returns the ranked
// candidate list.  Stateless with respect to allocations — the conductor
// claims against the placement API and retries on races.
//
// The zero-copy fast path weighs through `const host_state*` into
// caller-provided scratch buffers (sched_scratch) — no per-request
// allocation, no wholesale host_state copy.

#include <memory>
#include <span>
#include <vector>

#include "sched/filter.hpp"
#include "sched/weigher.hpp"

namespace sci {

/// Per-filter elimination counters for one scheduling decision — useful
/// for diagnosing NoValidHost outcomes.
struct filter_trace {
    std::vector<std::pair<std::string_view, std::size_t>> eliminated;
    std::size_t survivors = 0;
};

/// Reusable buffers for the zero-copy scheduling fast path.  One instance
/// per thread; the zero-copy select_destinations fills `candidates` and
/// returns a span into it (valid until the next call on the same
/// scratch).
struct sched_scratch {
    std::vector<const host_state*> survivors;
    std::vector<double> scores;
    std::vector<double> raws;
    std::vector<std::size_t> order;
    std::vector<bb_id> candidates;
};

class filter_scheduler {
public:
    filter_scheduler(std::vector<std::unique_ptr<host_filter>> filters,
                     std::vector<weighted_weigher> spread_weighers,
                     std::vector<weighted_weigher> pack_weighers);

    /// Rank all eligible hosts for the request, best first — zero-copy:
    /// all working state lives in `scratch`, and the returned span points
    /// into it.  Empty result means NoValidHost.  `trace` (optional)
    /// receives per-filter stats.
    std::span<const bb_id> select_destinations(const request_context& ctx,
                                               std::span<const host_state> hosts,
                                               std::size_t max_candidates,
                                               sched_scratch& scratch,
                                               filter_trace* trace = nullptr) const;

    /// Allocating convenience wrapper around the zero-copy overload.
    std::vector<bb_id> select_destinations(const request_context& ctx,
                                           std::span<const host_state> hosts,
                                           std::size_t max_candidates,
                                           filter_trace* trace = nullptr) const;

    /// Weigher pipeline the policy selects.
    std::span<const weighted_weigher> weighers_for(placement_policy policy) const {
        return policy == placement_policy::pack ? pack_weighers_ : spread_weighers_;
    }

private:
    /// Rank scratch.survivors by scratch.scores into scratch.candidates.
    std::span<const bb_id> rank_survivors(std::size_t max_candidates,
                                          sched_scratch& scratch) const;

    std::vector<std::unique_ptr<host_filter>> filters_;
    std::vector<weighted_weigher> spread_weighers_;
    std::vector<weighted_weigher> pack_weighers_;
};

/// Scheduler with the default SAP-like configuration.
filter_scheduler make_default_scheduler();

}  // namespace sci

#include "sched/scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "simcore/error.hpp"

namespace sci {

filter_scheduler::filter_scheduler(
    std::vector<std::unique_ptr<host_filter>> filters,
    std::vector<weighted_weigher> spread_weighers,
    std::vector<weighted_weigher> pack_weighers)
    : filters_(std::move(filters)),
      spread_weighers_(std::move(spread_weighers)),
      pack_weighers_(std::move(pack_weighers)) {}

std::span<const bb_id> filter_scheduler::rank_survivors(
    std::size_t max_candidates, sched_scratch& scratch) const {
    auto& order = scratch.order;
    order.resize(scratch.survivors.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         if (scratch.scores[a] != scratch.scores[b]) {
                             return scratch.scores[a] > scratch.scores[b];
                         }
                         // determinism
                         return scratch.survivors[a]->bb < scratch.survivors[b]->bb;
                     });
    const std::size_t n = std::min(max_candidates, order.size());
    for (std::size_t i = 0; i < n; ++i) {
        scratch.candidates.push_back(scratch.survivors[order[i]]->bb);
    }
    return scratch.candidates;
}

std::span<const bb_id> filter_scheduler::select_destinations(
    const request_context& ctx, std::span<const host_state> hosts,
    std::size_t max_candidates, sched_scratch& scratch,
    filter_trace* trace) const {
    expects(max_candidates > 0, "select_destinations: need max_candidates >= 1");

    // --- filter stage ----------------------------------------------------
    auto& survivors = scratch.survivors;
    survivors.clear();
    survivors.reserve(hosts.size());
    for (const host_state& h : hosts) survivors.push_back(&h);

    for (const auto& filter : filters_) {
        const std::size_t before = survivors.size();
        std::erase_if(survivors, [&](const host_state* h) {
            return !filter->passes(*h, ctx);
        });
        if (trace != nullptr) {
            trace->eliminated.emplace_back(filter->name(),
                                           before - survivors.size());
        }
        if (survivors.empty()) break;
    }
    if (trace != nullptr) trace->survivors = survivors.size();
    scratch.candidates.clear();
    if (survivors.empty()) return {};

    // --- weighing stage --------------------------------------------------
    score_hosts_into(survivors, ctx, weighers_for(ctx.request.policy),
                     scratch.scores, scratch.raws);
    return rank_survivors(max_candidates, scratch);
}

std::vector<bb_id> filter_scheduler::select_destinations(
    const request_context& ctx, std::span<const host_state> hosts,
    std::size_t max_candidates, filter_trace* trace) const {
    sched_scratch scratch;
    const std::span<const bb_id> out =
        select_destinations(ctx, hosts, max_candidates, scratch, trace);
    return {out.begin(), out.end()};
}

filter_scheduler make_default_scheduler() {
    return filter_scheduler(make_default_filters(), make_spread_weighers(),
                            make_pack_weighers());
}

}  // namespace sci

#include "drs/drs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "simcore/error.hpp"
#include "simcore/stats.hpp"

namespace sci {

drs_cluster::drs_cluster(const building_block& block, drs_config config)
    : bb_(block.id), config_(config) {
    expects(!block.nodes.empty(), "drs_cluster: building block has no nodes");
    expects(config_.imbalance_threshold >= 0.0,
            "drs_cluster: negative imbalance threshold");
    nodes_.reserve(block.nodes.size());
    for (node_id id : block.nodes) {
        nodes_.emplace_back(id, block.profile);
    }
}

node_runtime& drs_cluster::node(node_id id) {
    for (node_runtime& nr : nodes_) {
        if (nr.id() == id) return nr;
    }
    throw not_found_error("drs_cluster::node: node not in cluster");
}

const node_runtime& drs_cluster::node(node_id id) const {
    for (const node_runtime& nr : nodes_) {
        if (nr.id() == id) return nr;
    }
    throw not_found_error("drs_cluster::node: node not in cluster");
}

std::optional<node_id> drs_cluster::initial_placement(const flavor& f) const {
    const node_runtime* best = nullptr;
    double best_score = std::numeric_limits<double>::infinity();
    for (const node_runtime& nr : nodes_) {
        if (!nr.accepting()) continue;
        if (!nr.fits(f, config_.cpu_allocation_ratio, config_.ram_allocation_ratio)) {
            continue;
        }
        // combined reserved utilization; memory dominates for HANA hosts
        const double util =
            0.5 * nr.cpu_overcommit() / config_.cpu_allocation_ratio +
            0.5 * nr.ram_reserved_ratio();
        // spread mode prefers the emptiest node, memory bin-packing the
        // fullest node that still fits
        const double score = config_.pack_memory ? -nr.ram_reserved_ratio() : util;
        if (score < best_score) {
            best_score = score;
            best = &nr;
        }
    }
    if (best == nullptr) return std::nullopt;
    return best->id();
}

void drs_cluster::place(vm_id vm, const flavor& f, node_id node_target) {
    node(node_target).place(vm, f);
}

void drs_cluster::remove(vm_id vm, const flavor& f, node_id node_target) {
    node(node_target).remove(vm, f);
}

void drs_cluster::record_abort(vm_id vm) {
    expects(std::find(aborted_this_pass_.begin(), aborted_this_pass_.end(),
                      vm) == aborted_this_pass_.end(),
            "drs_cluster::record_abort: wasted pre-copy already charged");
    aborted_this_pass_.push_back(vm);
}

double drs_cluster::node_demand_cores(const node_runtime& nr,
                                      const vm_cpu_demand_fn& demand) const {
    double total = 0.0;
    for (vm_id vm : nr.residents()) total += demand(vm);
    return total;
}

double drs_cluster::imbalance(const vm_cpu_demand_fn& demand) const {
    running_stats utils;
    for (const node_runtime& nr : nodes_) {
        const double cap = static_cast<double>(nr.profile().pcpu_cores);
        utils.add(node_demand_cores(nr, demand) / cap);
    }
    return utils.stddev();
}

std::vector<drs_migration> drs_cluster::plan_rebalance(
    const vm_cpu_demand_fn& demand, const vm_flavor_fn& flavor_of) const {
    std::vector<drs_migration> planned;
    if (!config_.enabled || nodes_.size() < 2) return planned;

    // Plan against a frozen copy of the node runtimes and replay the
    // classic eager pass on the copy: candidate scans see earlier in-pass
    // moves through the copy's node-ordered residents and reservation
    // sums, so the plan — move order included — is bit-identical to what
    // the eager commit produced, while the live cluster stays untouched.
    std::vector<node_runtime> view = nodes_;

    // cache per-node demand; updated incrementally as we move VMs
    std::vector<double> demands(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
        demands[i] = node_demand_cores(view[i], demand);
    }
    const auto util = [&](std::size_t i) {
        return demands[i] / static_cast<double>(view[i].profile().pcpu_cores);
    };
    const auto stddev_util = [&] {
        running_stats s;
        for (std::size_t i = 0; i < view.size(); ++i) s.add(util(i));
        return s.stddev();
    };

    for (int pass = 0; pass < config_.max_migrations_per_pass; ++pass) {
        const double current = stddev_util();
        if (current <= config_.imbalance_threshold) break;
        if (config_.pack_memory) {
            // memory-packed clusters tolerate CPU imbalance: only rebalance
            // when some node is actually oversubscribed (demand > capacity)
            const bool any_oversubscribed = [&] {
                for (std::size_t i = 0; i < view.size(); ++i) {
                    if (util(i) > 1.0) return true;
                }
                return false;
            }();
            if (!any_oversubscribed) break;
        }

        // donor = most utilized, receiver = least utilized accepting node
        std::size_t donor = 0;
        std::optional<std::size_t> receiver_opt;
        for (std::size_t i = 1; i < view.size(); ++i) {
            if (util(i) > util(donor)) donor = i;
        }
        for (std::size_t i = 0; i < view.size(); ++i) {
            if (i == donor || !view[i].accepting()) continue;
            if (!receiver_opt.has_value() || util(i) < util(*receiver_opt)) {
                receiver_opt = i;
            }
        }
        if (!receiver_opt.has_value()) break;
        const std::size_t receiver = *receiver_opt;

        // candidate VM on the donor: demand closest to half the gap,
        // skipping heavy VMs and VMs the receiver cannot admit
        const double gap_cores =
            (util(donor) - util(receiver)) *
            static_cast<double>(view[donor].profile().pcpu_cores);
        const double ideal = gap_cores / 2.0;

        vm_id best_vm;
        double best_delta = std::numeric_limits<double>::infinity();
        double best_demand = 0.0;
        for (vm_id vm : view[donor].residents()) {
            const flavor& f = flavor_of(vm);
            if (f.ram_mib > config_.heavy_vm_ram_mib) continue;
            if (!view[receiver].fits(f, config_.cpu_allocation_ratio,
                                     config_.ram_allocation_ratio)) {
                continue;
            }
            const double d = demand(vm);
            if (d <= 0.0 || d > gap_cores) continue;  // would overshoot
            const double delta = std::abs(d - ideal);
            if (delta < best_delta) {
                best_delta = delta;
                best_vm = vm;
                best_demand = d;
            }
        }
        if (!best_vm.valid()) break;  // nothing movable

        // check the move actually improves imbalance by min_gain
        demands[donor] -= best_demand;
        demands[receiver] += best_demand;
        const double after = stddev_util();
        if (current - after < config_.min_gain) {
            demands[donor] += best_demand;
            demands[receiver] -= best_demand;
            break;
        }

        const flavor& f = flavor_of(best_vm);
        view[donor].remove(best_vm, f);
        view[receiver].place(best_vm, f);
        planned.push_back(
            drs_migration{best_vm, view[donor].id(), view[receiver].id()});
    }
    return planned;
}

void drs_cluster::begin_pass() {
    aborted_this_pass_.clear();  // new pass: a fresh abort-charge window
}

void drs_cluster::commit_migration(const drs_migration& m, const flavor& f) {
    remove(m.vm, f, m.from);
    place(m.vm, f, m.to);
}

std::vector<drs_migration> drs_cluster::rebalance(
    const vm_cpu_demand_fn& demand, const vm_flavor_fn& flavor_of) {
    begin_pass();
    const std::vector<drs_migration> planned = plan_rebalance(demand, flavor_of);
    for (const drs_migration& m : planned) commit_migration(m, flavor_of(m.vm));
    return planned;
}

}  // namespace sci

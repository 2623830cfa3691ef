// Tests for drs: intra-building-block balancing (the VMware DRS model).

#include "drs/drs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "simcore/error.hpp"

namespace sci {
namespace {

struct drs_fixture {
    fleet f;
    bb_id bb;
    flavor_catalog catalog;
    flavor_id small;   // 4 vCPU / 32 GiB
    flavor_id medium;  // 16 vCPU / 128 GiB
    flavor_id heavy;   // 32 vCPU / 2048 GiB (above heavy_vm_ram_mib)
    std::map<vm_id, double> demand;

    explicit drs_fixture(int nodes = 4) {
        const region_id r = f.add_region("r");
        const az_id az = f.add_az(r, "az");
        const dc_id dc = f.add_dc(az, "dc");
        bb = f.add_bb(dc, "bb", bb_purpose::general,
                      profiles::general_purpose(), nodes);
        small = catalog.add("s", 4, gib_to_mib(32), 50.0,
                            workload_class::general_purpose);
        medium = catalog.add("m", 16, gib_to_mib(128), 100.0,
                             workload_class::general_purpose);
        heavy = catalog.add("h", 32, gib_to_mib(2048), 500.0,
                            workload_class::hana_db);
    }

    drs_cluster make_cluster(drs_config config = {}) {
        return drs_cluster(f.get(bb), config);
    }

    vm_cpu_demand_fn demand_fn() {
        return [this](vm_id vm) {
            const auto it = demand.find(vm);
            return it == demand.end() ? 0.0 : it->second;
        };
    }

    vm_flavor_fn flavor_fn(flavor_id fid) {
        return [this, fid](vm_id) -> const flavor& { return catalog.get(fid); };
    }
};

TEST(DrsClusterTest, ConstructionCreatesNodeRuntimes) {
    drs_fixture fx;
    const drs_cluster cluster = fx.make_cluster();
    EXPECT_EQ(cluster.nodes().size(), 4u);
    EXPECT_EQ(cluster.bb(), fx.bb);
    for (const node_runtime& nr : cluster.nodes()) {
        EXPECT_TRUE(nr.residents().empty());
    }
}

TEST(DrsClusterTest, RejectsEmptyBb) {
    fleet f;
    const region_id r = f.add_region("r");
    const dc_id dc = f.add_dc(f.add_az(r, "az"), "dc");
    const bb_id empty = f.add_bb(dc, "empty", bb_purpose::general,
                                 profiles::general_purpose(), 0);
    EXPECT_THROW(drs_cluster(f.get(empty), {}), precondition_error);
}

TEST(DrsClusterTest, InitialPlacementPicksLeastReservedNode) {
    drs_fixture fx;
    drs_cluster cluster = fx.make_cluster();
    const flavor& small = fx.catalog.get(fx.small);
    // load node 0 heavily
    cluster.place(vm_id(0), fx.catalog.get(fx.medium), cluster.nodes()[0].id());
    const auto target = cluster.initial_placement(small);
    ASSERT_TRUE(target.has_value());
    EXPECT_NE(*target, cluster.nodes()[0].id());
}

TEST(DrsClusterTest, InitialPlacementSkipsNonAcceptingNodes) {
    drs_fixture fx(2);
    drs_cluster cluster = fx.make_cluster();
    cluster.node(cluster.nodes()[0].id()).set_accepting(false);
    const auto target = cluster.initial_placement(fx.catalog.get(fx.small));
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(*target, cluster.nodes()[1].id());
}

TEST(DrsClusterTest, InitialPlacementNulloptWhenNothingFits) {
    drs_fixture fx(2);
    drs_cluster cluster = fx.make_cluster();
    // heavy flavor: 2048 GiB > 1024 GiB node memory
    EXPECT_FALSE(cluster.initial_placement(fx.catalog.get(fx.heavy)).has_value());
}

TEST(DrsClusterTest, PlaceAndRemoveRouteToNode) {
    drs_fixture fx;
    drs_cluster cluster = fx.make_cluster();
    const node_id node = cluster.nodes()[2].id();
    cluster.place(vm_id(7), fx.catalog.get(fx.small), node);
    EXPECT_TRUE(cluster.node(node).hosts(vm_id(7)));
    cluster.remove(vm_id(7), fx.catalog.get(fx.small), node);
    EXPECT_FALSE(cluster.node(node).hosts(vm_id(7)));
}

TEST(DrsClusterTest, NodeLookupThrowsForForeignNode) {
    drs_fixture fx;
    drs_cluster cluster = fx.make_cluster();
    EXPECT_THROW(cluster.node(node_id(9999)), not_found_error);
}

TEST(DrsClusterTest, ImbalanceIsStddevOfUtilization) {
    drs_fixture fx(2);
    drs_cluster cluster = fx.make_cluster();
    const node_id n0 = cluster.nodes()[0].id();
    cluster.place(vm_id(0), fx.catalog.get(fx.small), n0);
    fx.demand[vm_id(0)] = 48.0;  // 50% of one 96-core node
    // utilizations: {0.5, 0.0} -> stddev 0.25
    EXPECT_NEAR(cluster.imbalance(fx.demand_fn()), 0.25, 1e-12);
}

TEST(DrsClusterTest, RebalanceMovesLoadTowardIdleNode) {
    drs_fixture fx(2);
    drs_cluster cluster = fx.make_cluster();
    const node_id n0 = cluster.nodes()[0].id();
    // 8 small VMs, all on node 0, each demanding 8 cores
    for (int i = 0; i < 8; ++i) {
        cluster.place(vm_id(i), fx.catalog.get(fx.small), n0);
        fx.demand[vm_id(i)] = 8.0;
    }
    const double before = cluster.imbalance(fx.demand_fn());
    const auto moves =
        cluster.rebalance(fx.demand_fn(), fx.flavor_fn(fx.small));
    const double after = cluster.imbalance(fx.demand_fn());
    EXPECT_FALSE(moves.empty());
    EXPECT_LT(after, before);
    // every returned move was applied: n0 kept the rest of its 8 VMs
    EXPECT_EQ(cluster.node(n0).residents().size(), 8u - moves.size());
    for (const drs_migration& m : moves) {
        EXPECT_EQ(m.from, n0);
        EXPECT_TRUE(cluster.node(m.to).hosts(m.vm));
        EXPECT_FALSE(cluster.node(m.from).hosts(m.vm));
    }
}

TEST(DrsClusterTest, BalancedClusterNotTouched) {
    drs_fixture fx(2);
    drs_cluster cluster = fx.make_cluster();
    for (int i = 0; i < 2; ++i) {
        cluster.place(vm_id(i), fx.catalog.get(fx.small),
                      cluster.nodes()[static_cast<std::size_t>(i)].id());
        fx.demand[vm_id(i)] = 10.0;
    }
    EXPECT_TRUE(
        cluster.rebalance(fx.demand_fn(), fx.flavor_fn(fx.small)).empty());
}

TEST(DrsClusterTest, DisabledDrsNeverMigrates) {
    drs_fixture fx(2);
    drs_config config;
    config.enabled = false;
    drs_cluster cluster = fx.make_cluster(config);
    const node_id n0 = cluster.nodes()[0].id();
    for (int i = 0; i < 8; ++i) {
        cluster.place(vm_id(i), fx.catalog.get(fx.small), n0);
        fx.demand[vm_id(i)] = 10.0;
    }
    EXPECT_TRUE(
        cluster.rebalance(fx.demand_fn(), fx.flavor_fn(fx.small)).empty());
}

TEST(DrsClusterTest, HeavyVmsAreNeverMigrated) {
    drs_fixture fx(2);
    drs_config config;
    config.heavy_vm_ram_mib = gib_to_mib(1024);
    drs_cluster cluster = fx.make_cluster(config);
    const node_id n0 = cluster.nodes()[0].id();
    // use the medium flavor but mark the limit below it
    config.heavy_vm_ram_mib = gib_to_mib(64);
    drs_cluster strict = fx.make_cluster(config);
    for (int i = 0; i < 6; ++i) {
        strict.place(vm_id(i), fx.catalog.get(fx.medium), n0);
        fx.demand[vm_id(i)] = 12.0;
    }
    EXPECT_TRUE(
        strict.rebalance(fx.demand_fn(), fx.flavor_fn(fx.medium)).empty());
    (void)cluster;
}

TEST(DrsClusterTest, MigrationBudgetRespected) {
    drs_fixture fx(2);
    drs_config config;
    config.max_migrations_per_pass = 1;
    config.imbalance_threshold = 0.0001;
    drs_cluster cluster = fx.make_cluster(config);
    const node_id n0 = cluster.nodes()[0].id();
    for (int i = 0; i < 10; ++i) {
        cluster.place(vm_id(i), fx.catalog.get(fx.small), n0);
        fx.demand[vm_id(i)] = 6.0;
    }
    const auto moves =
        cluster.rebalance(fx.demand_fn(), fx.flavor_fn(fx.small));
    EXPECT_LE(moves.size(), 1u);
}

TEST(DrsClusterTest, RebalanceSkipsNonAcceptingReceivers) {
    drs_fixture fx(2);
    drs_cluster cluster = fx.make_cluster();
    const node_id n0 = cluster.nodes()[0].id();
    cluster.node(cluster.nodes()[1].id()).set_accepting(false);
    for (int i = 0; i < 8; ++i) {
        cluster.place(vm_id(i), fx.catalog.get(fx.small), n0);
        fx.demand[vm_id(i)] = 10.0;
    }
    EXPECT_TRUE(
        cluster.rebalance(fx.demand_fn(), fx.flavor_fn(fx.small)).empty());
}

TEST(DrsClusterTest, RecordAbortChargesWastedPreCopyExactlyOnce) {
    drs_fixture fx(2);
    drs_cluster cluster = fx.make_cluster();
    const node_id n0 = cluster.nodes()[0].id();
    for (int i = 0; i < 8; ++i) {
        cluster.place(vm_id(i), fx.catalog.get(fx.small), n0);
        fx.demand[vm_id(i)] = 8.0;
    }
    const auto moves =
        cluster.rebalance(fx.demand_fn(), fx.flavor_fn(fx.small));
    ASSERT_FALSE(moves.empty());
    const std::vector<vm_id> residents_before(
        cluster.node(moves[0].to).residents().begin(),
        cluster.node(moves[0].to).residents().end());
    EXPECT_NO_THROW(cluster.record_abort(moves[0].vm));
    // a move that aborts again must not double-bill the wasted pre-copy
    // within the same pass
    EXPECT_THROW(cluster.record_abort(moves[0].vm), precondition_error);
    // charging an abort never touches node state
    EXPECT_TRUE(std::equal(residents_before.begin(), residents_before.end(),
                           cluster.node(moves[0].to).residents().begin(),
                           cluster.node(moves[0].to).residents().end()));
    // a fresh pass opens a new dedup window: the same VM may abort again,
    // once
    const auto again =
        cluster.rebalance(fx.demand_fn(), fx.flavor_fn(fx.small));
    (void)again;
    EXPECT_NO_THROW(cluster.record_abort(moves[0].vm));
    EXPECT_THROW(cluster.record_abort(moves[0].vm), precondition_error);
}

TEST(DrsClusterTest, SingleNodeClusterNeverRebalances) {
    drs_fixture fx(1);
    drs_cluster cluster = fx.make_cluster();
    cluster.place(vm_id(0), fx.catalog.get(fx.small), cluster.nodes()[0].id());
    fx.demand[vm_id(0)] = 90.0;
    EXPECT_TRUE(
        cluster.rebalance(fx.demand_fn(), fx.flavor_fn(fx.small)).empty());
}

}  // namespace
}  // namespace sci

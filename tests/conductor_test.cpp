// Tests for sched/conductor: the greedy claim-with-retries orchestration
// (Figure 2) over a real fleet + placement service.

#include "sched/conductor.hpp"

#include <gtest/gtest.h>

#include "workload/calibration.hpp"

namespace sci {
namespace {

struct conductor_fixture {
    fleet f;
    flavor_catalog catalog;
    placement_service placement;
    flavor_id small;
    flavor_id hana;
    flavor_id xl;

    conductor_fixture() {
        const region_id r = f.add_region("r");
        const az_id az = f.add_az(r, "az");
        const dc_id dc = f.add_dc(az, "dc");
        f.add_bb(dc, "gen-0", bb_purpose::general, profiles::general_purpose(), 2);
        f.add_bb(dc, "gen-1", bb_purpose::general, profiles::general_purpose(), 2);
        f.add_bb(dc, "hana-0", bb_purpose::hana, profiles::hana_large_memory(), 2);
        f.add_bb(dc, "xl-0", bb_purpose::dedicated_xl,
                 profiles::hana_extra_large_memory(), 2);

        small = catalog.add("g_c4_m32", 4, gib_to_mib(32), 100.0,
                            workload_class::general_purpose);
        hana = catalog.add("hana_c32_m1024", 32, gib_to_mib(1024), 1024.0,
                           workload_class::hana_db);
        xl = catalog.add("hana_c112_m4096", 112, gib_to_mib(4096), 4096.0,
                         workload_class::hana_db);

        for (const building_block& bb : f.bbs()) {
            const allocation_ratios ratios = default_ratios_for(bb.purpose);
            placement.register_provider(
                bb.id,
                provider_inventory{f.bb_total_cores(bb.id),
                                   f.bb_total_memory(bb.id),
                                   bb.profile.storage_gib *
                                       static_cast<double>(bb.nodes.size()),
                                   ratios.cpu, ratios.ram});
        }
    }

    conductor make_conductor() {
        return conductor(f, catalog, placement, make_default_scheduler());
    }

    schedule_request request(vm_id vm, flavor_id flavor,
                             placement_policy policy = placement_policy::spread) {
        schedule_request r;
        r.vm = vm;
        r.flavor = flavor;
        r.project = project_id(0);
        r.policy = policy;
        return r;
    }
};

TEST(DefaultRatiosTest, PerPurposeValues) {
    namespace cal = calibration;
    EXPECT_DOUBLE_EQ(default_ratios_for(bb_purpose::general).cpu,
                     cal::gp_cpu_allocation_ratio);
    EXPECT_DOUBLE_EQ(default_ratios_for(bb_purpose::general).ram,
                     cal::gp_ram_allocation_ratio);
    EXPECT_DOUBLE_EQ(default_ratios_for(bb_purpose::hana).cpu,
                     cal::hana_cpu_allocation_ratio);
    EXPECT_DOUBLE_EQ(default_ratios_for(bb_purpose::dedicated_xl).ram,
                     cal::hana_ram_allocation_ratio);
}

TEST(ConductorTest, BuildHostStatesMirrorsPlacement) {
    conductor_fixture fx;
    conductor nova = fx.make_conductor();
    const auto states = nova.build_host_states();
    ASSERT_EQ(states.size(), 4u);
    EXPECT_EQ(states[0].bb, bb_id(0));
    EXPECT_EQ(states[0].purpose, bb_purpose::general);
    EXPECT_EQ(states[0].node_count, 2);
    EXPECT_EQ(states[0].total_pcpus, 2 * 96);
    EXPECT_EQ(states[2].purpose, bb_purpose::hana);
    EXPECT_EQ(states[0].instances, 0);

    fx.placement.claim(vm_id(0), bb_id(0), fx.catalog.get(fx.small));
    const auto after = nova.build_host_states();
    EXPECT_EQ(after[0].instances, 1);
    EXPECT_EQ(after[0].vcpus_used, 4);
}

TEST(ConductorTest, PlacesGeneralVmOnGeneralBb) {
    conductor_fixture fx;
    conductor nova = fx.make_conductor();
    const auto outcome =
        nova.schedule_and_claim(fx.request(vm_id(0), fx.small));
    ASSERT_TRUE(outcome.success);
    EXPECT_TRUE(outcome.bb == bb_id(0) || outcome.bb == bb_id(1));
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_EQ(fx.placement.allocation_of(vm_id(0)), outcome.bb);
    EXPECT_EQ(fx.placement.allocation_count(), 1u);
}

TEST(ConductorTest, RoutesHanaToHanaBb) {
    conductor_fixture fx;
    conductor nova = fx.make_conductor();
    const auto outcome = nova.schedule_and_claim(
        fx.request(vm_id(0), fx.hana, placement_policy::pack));
    ASSERT_TRUE(outcome.success);
    EXPECT_EQ(outcome.bb, bb_id(2));
}

TEST(ConductorTest, RoutesXlToDedicatedBb) {
    conductor_fixture fx;
    conductor nova = fx.make_conductor();
    const auto outcome = nova.schedule_and_claim(
        fx.request(vm_id(0), fx.xl, placement_policy::pack));
    ASSERT_TRUE(outcome.success);
    EXPECT_EQ(outcome.bb, bb_id(3));
}

TEST(ConductorTest, SpreadAlternatesAcrossGeneralBbs) {
    conductor_fixture fx;
    conductor nova = fx.make_conductor();
    std::array<int, 2> counts{};
    for (int i = 0; i < 20; ++i) {
        const auto outcome =
            nova.schedule_and_claim(fx.request(vm_id(i), fx.small));
        ASSERT_TRUE(outcome.success);
        ++counts[static_cast<std::size_t>(outcome.bb.value())];
    }
    // load balancing: both BBs used
    EXPECT_GT(counts[0], 0);
    EXPECT_GT(counts[1], 0);
}

TEST(ConductorTest, NoValidHostWhenFull) {
    conductor_fixture fx;
    conductor nova = fx.make_conductor();
    // hana BB: 2 nodes x 8 TiB; each hana VM takes 1 TiB -> 16 fit
    int placed = 0;
    placement_outcome outcome;
    for (int i = 0; i < 32; ++i) {
        outcome = nova.schedule_and_claim(
            fx.request(vm_id(i), fx.hana, placement_policy::pack));
        if (!outcome.success) break;
        ++placed;
    }
    EXPECT_EQ(placed, 16);
    // the 17th request is a NoValidHost: no candidate, nothing claimed
    EXPECT_FALSE(outcome.success);
    EXPECT_FALSE(outcome.bb.valid());
    EXPECT_EQ(outcome.attempts, 0);
    EXPECT_EQ(fx.placement.allocation_count(), 16u);
    EXPECT_FALSE(fx.placement.allocation_of(vm_id(16)).has_value());
}

TEST(ConductorTest, ContentionFeedReachesHostStates) {
    conductor_fixture fx;
    conductor nova = fx.make_conductor();
    nova.set_contention_feed([](bb_id bb) {
        return bb == bb_id(0) ? 35.0 : 1.0;
    });
    const auto states = nova.build_host_states();
    EXPECT_DOUBLE_EQ(states[0].avg_cpu_contention_pct, 35.0);
    EXPECT_DOUBLE_EQ(states[1].avg_cpu_contention_pct, 1.0);
}

TEST(ConductorTest, ContentionAwarePipelineAvoidsHotBb) {
    conductor_fixture fx;
    auto filters = make_default_filters();
    filters.push_back(std::make_unique<contention_filter>(15.0));
    auto spread = make_spread_weighers();
    spread.push_back({std::make_unique<contention_weigher>(), 0.5});
    conductor nova(fx.f, fx.catalog, fx.placement,
                   filter_scheduler(std::move(filters), std::move(spread),
                                    make_pack_weighers()));
    nova.set_contention_feed([](bb_id bb) {
        return bb == bb_id(0) ? 35.0 : 1.0;  // bb0 over threshold
    });
    for (int i = 0; i < 10; ++i) {
        const auto outcome =
            nova.schedule_and_claim(fx.request(vm_id(i), fx.small));
        ASSERT_TRUE(outcome.success);
        EXPECT_EQ(outcome.bb, bb_id(1));  // hot BB filtered out
    }
}

TEST(ConductorTest, RequestPolicyChangesTarget) {
    conductor_fixture fx;
    conductor nova = fx.make_conductor();
    // pre-load bb0 so pack prefers it and spread avoids it
    for (int i = 100; i < 110; ++i) {
        fx.placement.claim(vm_id(i), bb_id(0), fx.catalog.get(fx.small));
    }
    const auto packed = nova.schedule_and_claim(
        fx.request(vm_id(0), fx.small, placement_policy::pack));
    ASSERT_TRUE(packed.success);
    EXPECT_EQ(packed.bb, bb_id(0));
    const auto spread_out = nova.schedule_and_claim(
        fx.request(vm_id(1), fx.small, placement_policy::spread));
    ASSERT_TRUE(spread_out.success);
    EXPECT_EQ(spread_out.bb, bb_id(1));
}

}  // namespace
}  // namespace sci

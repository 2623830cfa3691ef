// Tests for infra/flavor: the size taxonomy of Tables 1–2 and the flavor
// catalog.

#include "infra/flavor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "simcore/error.hpp"

namespace sci {
namespace {

// --- Table 1 vCPU class boundaries ----------------------------------------

struct vcpu_case {
    core_count vcpus;
    vcpu_class expected;
};

class VcpuClassTest : public testing::TestWithParam<vcpu_case> {};

TEST_P(VcpuClassTest, Classifies) {
    EXPECT_EQ(classify_vcpu(GetParam().vcpus), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Table1Boundaries, VcpuClassTest,
    testing::Values(vcpu_case{1, vcpu_class::small},
                    vcpu_case{4, vcpu_class::small},      // boundary: <= 4
                    vcpu_case{5, vcpu_class::medium},
                    vcpu_case{16, vcpu_class::medium},    // boundary: <= 16
                    vcpu_case{17, vcpu_class::large},
                    vcpu_case{64, vcpu_class::large},     // boundary: <= 64
                    vcpu_case{65, vcpu_class::extra_large},
                    vcpu_case{224, vcpu_class::extra_large}),
    [](const testing::TestParamInfo<vcpu_case>& info) {
        return std::to_string(info.param.vcpus) + "vcpus";
    });

// --- Table 2 RAM class boundaries ------------------------------------------

struct ram_case {
    double gib;
    ram_class expected;
};

class RamClassTest : public testing::TestWithParam<ram_case> {};

TEST_P(RamClassTest, Classifies) {
    EXPECT_EQ(classify_ram(gib_to_mib(GetParam().gib)), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Table2Boundaries, RamClassTest,
    testing::Values(ram_case{1, ram_class::small},
                    ram_case{2, ram_class::small},        // boundary: <= 2
                    ram_case{2.5, ram_class::medium},
                    ram_case{64, ram_class::medium},      // boundary: <= 64
                    ram_case{65, ram_class::large},
                    ram_case{128, ram_class::large},      // boundary: <= 128
                    ram_case{129, ram_class::extra_large},
                    ram_case{12288, ram_class::extra_large}),
    [](const testing::TestParamInfo<ram_case>& info) {
        // 2.5 GiB -> "2p5GiB": test names take no '.'
        const auto whole = static_cast<int>(info.param.gib);
        const auto tenths =
            static_cast<int>(std::lround((info.param.gib - whole) * 10));
        return std::to_string(whole) +
               (tenths != 0 ? "p" + std::to_string(tenths) : "") + "GiB";
    });

TEST(FlavorTest, DedicatedBbThresholdIs3TB) {
    flavor f{.id = flavor_id(0), .name = "x", .vcpus = 1,
             .ram_mib = gib_to_mib(3071), .disk_gib = 0.0};
    EXPECT_FALSE(f.requires_dedicated_bb());
    f.ram_mib = gib_to_mib(3072);
    EXPECT_TRUE(f.requires_dedicated_bb());
    f.ram_mib = gib_to_mib(12288);
    EXPECT_TRUE(f.requires_dedicated_bb());
}

TEST(FlavorTest, ClassAccessors) {
    flavor f{.id = flavor_id(0), .name = "g_c8_m64", .vcpus = 8,
             .ram_mib = gib_to_mib(64), .disk_gib = 100.0};
    EXPECT_EQ(f.cpu_class(), vcpu_class::medium);
    EXPECT_EQ(f.memory_class(), ram_class::medium);
}

TEST(FlavorTest, ToStringCoversAllClasses) {
    EXPECT_EQ(to_string(vcpu_class::small), "Small");
    EXPECT_EQ(to_string(vcpu_class::extra_large), "Extra Large");
    EXPECT_EQ(to_string(ram_class::medium), "Medium");
    EXPECT_EQ(to_string(ram_class::large), "Large");
    EXPECT_EQ(to_string(workload_class::general_purpose), "general_purpose");
    EXPECT_EQ(to_string(workload_class::s4hana_app), "s4hana_app");
    EXPECT_EQ(to_string(workload_class::hana_db), "hana_db");
}

// --- catalog ----------------------------------------------------------------

TEST(FlavorCatalogTest, AddAndGet) {
    flavor_catalog catalog;
    const flavor_id id = catalog.add("g_c4_m32", 4, gib_to_mib(32), 100.0,
                                     workload_class::general_purpose);
    const flavor& f = catalog.get(id);
    EXPECT_EQ(f.name, "g_c4_m32");
    EXPECT_EQ(f.vcpus, 4);
    EXPECT_EQ(f.ram_mib, gib_to_mib(32));
    EXPECT_EQ(catalog.size(), 1u);
}

TEST(FlavorCatalogTest, FindByName) {
    flavor_catalog catalog;
    const flavor_id id =
        catalog.add("a", 1, 1024, 10.0, workload_class::general_purpose);
    catalog.add("b", 2, 2048, 20.0, workload_class::hana_db);
    EXPECT_EQ(catalog.find("a"), id);
    EXPECT_FALSE(catalog.find("missing").has_value());
}

TEST(FlavorCatalogTest, IdsAreSequential) {
    flavor_catalog catalog;
    EXPECT_EQ(catalog.add("a", 1, 1, 0.0, workload_class::general_purpose).value(), 0);
    EXPECT_EQ(catalog.add("b", 1, 1, 0.0, workload_class::general_purpose).value(), 1);
}

TEST(FlavorCatalogTest, RejectsDuplicateName) {
    flavor_catalog catalog;
    catalog.add("dup", 1, 1, 0.0, workload_class::general_purpose);
    EXPECT_THROW(catalog.add("dup", 2, 2, 0.0, workload_class::hana_db),
                 precondition_error);
}

TEST(FlavorCatalogTest, RejectsInvalidSpecs) {
    flavor_catalog catalog;
    EXPECT_THROW(catalog.add("", 1, 1, 0.0, workload_class::general_purpose),
                 precondition_error);
    EXPECT_THROW(catalog.add("x", 0, 1, 0.0, workload_class::general_purpose),
                 precondition_error);
    EXPECT_THROW(catalog.add("y", 1, 0, 0.0, workload_class::general_purpose),
                 precondition_error);
    EXPECT_THROW(catalog.add("z", 1, 1, -1.0, workload_class::general_purpose),
                 precondition_error);
}

TEST(FlavorCatalogTest, GetRejectsUnknownId) {
    flavor_catalog catalog;
    EXPECT_THROW(catalog.get(flavor_id(0)), precondition_error);
    EXPECT_THROW(catalog.get(flavor_id()), precondition_error);
}

TEST(FlavorCatalogTest, AllSpansEverything) {
    flavor_catalog catalog;
    catalog.add("a", 1, 1, 0.0, workload_class::general_purpose);
    catalog.add("b", 2, 2, 0.0, workload_class::hana_db);
    EXPECT_EQ(catalog.all().size(), 2u);
    EXPECT_EQ(catalog.all()[1].name, "b");
}

TEST(UnitsTest, GibMibConversions) {
    EXPECT_EQ(gib_to_mib(1), 1024);
    EXPECT_EQ(gib_to_mib(0.5), 512);
    EXPECT_DOUBLE_EQ(mib_to_gib(2048), 2.0);
}

TEST(UnitsTest, ClampHelpers) {
    EXPECT_DOUBLE_EQ(clamp_percent(-5.0), 0.0);
    EXPECT_DOUBLE_EQ(clamp_percent(50.0), 50.0);
    EXPECT_DOUBLE_EQ(clamp_percent(150.0), 100.0);
    EXPECT_DOUBLE_EQ(clamp_ratio(1.5), 1.0);
    EXPECT_DOUBLE_EQ(clamp_ratio(-0.5), 0.0);
}

}  // namespace
}  // namespace sci

// Tests for simcore/stats: the accumulators that back telemetry compaction
// and figure aggregation.

#include "simcore/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "simcore/error.hpp"

namespace sci {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
    running_stats s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_TRUE(std::isinf(s.min()));
    EXPECT_TRUE(std::isinf(s.max()));
}

TEST(RunningStatsTest, SingleValue) {
    running_stats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownMoments) {
    running_stats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesDirectAccumulation) {
    std::mt19937_64 gen(7);
    std::uniform_real_distribution<double> dist(-10.0, 10.0);
    running_stats direct, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double v = dist(gen);
        direct.add(v);
        (i % 3 == 0 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), direct.count());
    EXPECT_NEAR(a.mean(), direct.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), direct.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), direct.min());
    EXPECT_DOUBLE_EQ(a.max(), direct.max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
    running_stats a;
    a.add(1.0);
    a.add(3.0);
    running_stats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);

    running_stats target;
    target.merge(a);
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.mean(), 2.0);
}

// --- P² quantile estimator over several distributions --------------------

struct p2_case {
    const char* name;
    double quantile;
    int samples;
    double tolerance;
};

class P2QuantileTest : public testing::TestWithParam<p2_case> {};

TEST_P(P2QuantileTest, TracksExactQuantileOnUniform) {
    const p2_case& c = GetParam();
    std::mt19937_64 gen(42);
    std::uniform_real_distribution<double> dist(0.0, 100.0);
    p2_quantile sketch(c.quantile);
    std::vector<double> all;
    all.reserve(static_cast<std::size_t>(c.samples));
    for (int i = 0; i < c.samples; ++i) {
        const double v = dist(gen);
        sketch.add(v);
        all.push_back(v);
    }
    const double exact = exact_quantile(all, c.quantile);
    EXPECT_NEAR(sketch.value(), exact, c.tolerance)
        << "case " << c.name;
}

TEST_P(P2QuantileTest, TracksExactQuantileOnLognormal) {
    const p2_case& c = GetParam();
    std::mt19937_64 gen(43);
    std::lognormal_distribution<double> dist(2.0, 0.8);
    p2_quantile sketch(c.quantile);
    std::vector<double> all;
    for (int i = 0; i < c.samples; ++i) {
        const double v = dist(gen);
        sketch.add(v);
        all.push_back(v);
    }
    const double exact = exact_quantile(all, c.quantile);
    // relative tolerance for the skewed distribution
    EXPECT_NEAR(sketch.value(), exact, std::max(c.tolerance, exact * 0.08))
        << "case " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, P2QuantileTest,
    testing::Values(p2_case{"p50-small", 0.5, 500, 2.5},
                    p2_case{"p50-large", 0.5, 20000, 1.0},
                    p2_case{"p90", 0.9, 20000, 1.5},
                    p2_case{"p95", 0.95, 20000, 1.5},
                    p2_case{"p99", 0.99, 50000, 2.0}),
    [](const testing::TestParamInfo<p2_case>& info) {
        std::string name = info.param.name;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(P2QuantileTest, ExactForFewSamples) {
    p2_quantile sketch(0.5);
    sketch.add(3.0);
    EXPECT_DOUBLE_EQ(sketch.value(), 3.0);
    sketch.add(1.0);
    EXPECT_DOUBLE_EQ(sketch.value(), 2.0);  // median of {1,3}
    sketch.add(2.0);
    EXPECT_DOUBLE_EQ(sketch.value(), 2.0);
}

TEST(P2QuantileTest, EmptyIsZero) {
    p2_quantile sketch(0.95);
    EXPECT_DOUBLE_EQ(sketch.value(), 0.0);
}

TEST(P2QuantileTest, RejectsBadQuantile) {
    EXPECT_THROW(p2_quantile(0.0), precondition_error);
    EXPECT_THROW(p2_quantile(1.0), precondition_error);
    EXPECT_THROW(p2_quantile(-0.5), precondition_error);
}

// --- histogram -------------------------------------------------------------

TEST(HistogramTest, BinsAndEdges) {
    histogram h(0.0, 100.0, 10);
    EXPECT_EQ(h.bin_count(), 10u);
    EXPECT_DOUBLE_EQ(h.bin_lower(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bin_upper(0), 10.0);
    EXPECT_DOUBLE_EQ(h.bin_lower(9), 90.0);
    EXPECT_DOUBLE_EQ(h.bin_upper(9), 100.0);
}

TEST(HistogramTest, CountsFallIntoRightBins) {
    histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(0.9);
    h.add(5.5);
    h.add(9.99);
    EXPECT_EQ(h.bin(0), 2u);
    EXPECT_EQ(h.bin(5), 1u);
    EXPECT_EQ(h.bin(9), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, OutOfRangeClampsToEdgeBins) {
    histogram h(0.0, 10.0, 5);
    h.add(-5.0);
    h.add(15.0);
    h.add(10.0);  // hi is exclusive: clamps to last bin
    EXPECT_EQ(h.bin(0), 1u);
    EXPECT_EQ(h.bin(4), 2u);
}

TEST(HistogramTest, CdfInterpolates) {
    histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i) h.add(i + 0.5);  // one per bin
    EXPECT_DOUBLE_EQ(h.cdf(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.cdf(10.0), 1.0);
    EXPECT_NEAR(h.cdf(5.0), 0.5, 1e-12);
    EXPECT_NEAR(h.cdf(2.5), 0.25, 1e-12);
}

TEST(HistogramTest, EmptyCdfIsZero) {
    histogram h(0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(h.cdf(0.5), 0.0);
}

TEST(HistogramTest, RejectsBadConstruction) {
    EXPECT_THROW(histogram(1.0, 1.0, 4), precondition_error);
    EXPECT_THROW(histogram(2.0, 1.0, 4), precondition_error);
    EXPECT_THROW(histogram(0.0, 1.0, 0), precondition_error);
}

// --- exact quantile / empirical cdf ---------------------------------------

TEST(ExactQuantileTest, KnownValues) {
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(exact_quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(exact_quantile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(exact_quantile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(exact_quantile(v, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(exact_quantile(v, 0.125), 1.5);  // interpolation
}

TEST(ExactQuantileTest, UnsortedInput) {
    const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(exact_quantile(v, 0.5), 3.0);
}

TEST(ExactQuantileTest, Rejections) {
    EXPECT_THROW(exact_quantile({}, 0.5), precondition_error);
    const std::vector<double> v{1.0};
    EXPECT_THROW(exact_quantile(v, -0.1), precondition_error);
    EXPECT_THROW(exact_quantile(v, 1.1), precondition_error);
}

TEST(EmpiricalCdfTest, Basics) {
    const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(empirical_cdf(sorted, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(empirical_cdf(sorted, 1.0), 0.25);
    EXPECT_DOUBLE_EQ(empirical_cdf(sorted, 2.5), 0.5);
    EXPECT_DOUBLE_EQ(empirical_cdf(sorted, 4.0), 1.0);
    EXPECT_DOUBLE_EQ(empirical_cdf({}, 1.0), 0.0);
}

}  // namespace
}  // namespace sci

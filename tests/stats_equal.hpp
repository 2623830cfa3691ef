#pragma once

// The one run_stats comparator the tests share: every deterministic
// member of run_stats' field list, compared exactly (doubles with ==, so
// bitwise for the finite values the engine produces).  Host timings are
// skipped.  A member added to run_stats and its field list is compared
// with no edit here.

#include <gtest/gtest.h>

#include "core/engine.hpp"

namespace sci {

inline void expect_stats_equal(const run_stats& a, const run_stats& b) {
    for_each_field(
        [](const field_info& f, const auto& x, const auto& y) {
            if (f.deterministic) {
                EXPECT_EQ(x, y) << f.name;
            }
        },
        a, b);
}

}  // namespace sci

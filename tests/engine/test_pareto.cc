#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "engine/pareto.hh"
#include "pareto_test_util.hh"

namespace dronedse {
namespace {

using engine::dominates;
using engine::paretoFrontier;
using pareto_test::oracleFrontier;
using pareto_test::point;

TEST(Pareto, DominanceRequiresStrictImprovementSomewhere)
{
    const DesignResult a = point(20.0, 3.0, 1000.0);
    EXPECT_FALSE(dominates(a, a));

    // Better on one axis, equal elsewhere: dominates.
    EXPECT_TRUE(dominates(point(21.0, 3.0, 1000.0), a));
    EXPECT_TRUE(dominates(point(20.0, 4.0, 1000.0), a));
    EXPECT_TRUE(dominates(point(20.0, 3.0, 900.0), a));

    // A tradeoff (better one axis, worse another) never dominates.
    EXPECT_FALSE(dominates(point(25.0, 1.0, 1000.0), a));
    EXPECT_FALSE(dominates(a, point(25.0, 1.0, 1000.0)));

    // Infeasible points neither dominate nor get dominated.
    EXPECT_FALSE(dominates(point(99.0, 99.0, 1.0, false), a));
    EXPECT_FALSE(dominates(a, point(1.0, 1.0, 9999.0, false)));
}

TEST(Pareto, HandComputedSixPointFrontier)
{
    // Objectives: flight time up, compute power up, weight down.
    const std::vector<DesignResult> points{
        point(20.0, 3.0, 1000.0),        // 0: on frontier
        point(18.0, 20.0, 1200.0),       // 1: on frontier
        point(20.0, 3.0, 1100.0),        // 2: dominated by 0
        point(25.0, 1.0, 900.0),         // 3: on frontier
        point(17.0, 15.0, 1250.0),       // 4: dominated by 1
        point(30.0, 50.0, 500.0, false), // 5: infeasible, excluded
    };
    const std::vector<std::size_t> expected{0, 1, 3};
    EXPECT_EQ(paretoFrontier(points), expected);
}

TEST(Pareto, DuplicatePointsAllStayOnTheFrontier)
{
    const std::vector<DesignResult> points{
        point(20.0, 3.0, 1000.0),
        point(20.0, 3.0, 1000.0),
        point(10.0, 3.0, 1500.0),
    };
    const std::vector<std::size_t> expected{0, 1};
    EXPECT_EQ(paretoFrontier(points), expected);
}

TEST(Pareto, EmptyAndAllInfeasibleInputs)
{
    EXPECT_TRUE(paretoFrontier({}).empty());
    const std::vector<DesignResult> infeasible{
        point(20.0, 3.0, 1000.0, false),
        point(25.0, 5.0, 900.0, false),
    };
    EXPECT_TRUE(paretoFrontier(infeasible).empty());
}

TEST(Pareto, SingleFeasiblePointIsTheFrontier)
{
    const std::vector<DesignResult> points{point(15.0, 2.0, 800.0)};
    const std::vector<std::size_t> expected{0};
    EXPECT_EQ(paretoFrontier(points), expected);
}

TEST(Pareto, NonFiniteObjectivesMatchPairwiseDefinition)
{
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double inf = std::numeric_limits<double>::infinity();

    // NaN compares false against everything: a feasible NaN point is
    // never dominated and never dominates, however good its other
    // objectives are.
    const std::vector<DesignResult> with_nan{
        point(nan, 99.0, 1.0),        // 0: kept, dominates nothing
        point(10.0, 2.0, 500.0),      // 1: kept
        point(9.0, 1.0, 600.0),       // 2: dominated by 1
        point(1.0, nan, 9000.0),      // 3: kept
        point(1.0, 1.0, nan, false),  // 4: infeasible
        point(nan, nan, nan),         // 5: kept
    };
    const std::vector<std::size_t> nan_expected{0, 1, 3, 5};
    EXPECT_EQ(paretoFrontier(with_nan), nan_expected);

    // Signed zeros are equal, so these two tie and both stay; +inf
    // flight time dominates any finite one at equal power and weight.
    const std::vector<DesignResult> zeros_and_infs{
        point(5.0, -0.0, 50.0),      // 0: ties with 1
        point(5.0, 0.0, 50.0),       // 1: ties with 0
        point(inf, 1.0, 100.0),      // 2: kept
        point(7.0, 1.0, 100.0),      // 3: dominated by 2
        point(-inf, 1.0, -inf),      // 4: kept (lightest)
        point(-inf, 1.0, inf),       // 5: dominated by 4
        point(1.0, inf, inf),        // 6: kept (most power)
    };
    const std::vector<std::size_t> zi_expected{0, 1, 2, 4, 6};
    EXPECT_EQ(paretoFrontier(zeros_and_infs), zi_expected);

    // Every combination of special values on every axis, twice, with
    // an infeasible copy of each, in a scrambled order.
    const std::vector<double> values{nan, -inf, -0.0, 0.0,
                                     1.0, 2.0,  inf};
    std::vector<DesignResult> cloud;
    for (double f : values)
        for (double p : values)
            for (double w : values) {
                cloud.push_back(point(f, p, w));
                cloud.push_back(point(w, f, p));
                cloud.push_back(point(p, w, f, false));
            }
    for (std::size_t i = 0; i < cloud.size(); ++i)
        std::swap(cloud[i], cloud[(i * 7919) % cloud.size()]);
    EXPECT_EQ(paretoFrontier(cloud), oracleFrontier(cloud));
    EXPECT_EQ(paretoFrontier(with_nan), oracleFrontier(with_nan));
    EXPECT_EQ(paretoFrontier(zeros_and_infs),
              oracleFrontier(zeros_and_infs));
}

} // namespace
} // namespace dronedse

/**
 * @file
 * Property-based checks of the Pareto frontier against seeded-random
 * point clouds: membership is exactly "no dominator exists", the
 * frontier is invariant under input permutation, and the frontier is
 * a fixed point of itself.  Clouds mix clustered and spread points
 * plus duplicates and infeasibles so ties and boundaries get hit.
 * Two cases compare against the oracle at real sizes: a tie-heavy
 * cloud of thousands of points and a solved Figure 10 class grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <set>
#include <vector>

#include "components/compute_board.hh"
#include "dse/sweep.hh"
#include "engine/pareto.hh"
#include "pareto_test_util.hh"
#include "util/rng.hh"

namespace dronedse {
namespace {

using engine::paretoFrontier;
using pareto_test::oracleFrontier;
using pareto_test::point;
using namespace unit_literals;

/**
 * A random cloud exercising the frontier's edge cases: coarse grids
 * (many exact ties per axis), exact duplicates, and a sprinkling of
 * infeasible points that must never appear or dominate.
 */
std::vector<DesignResult>
randomCloud(Rng &rng, std::size_t n)
{
    std::vector<DesignResult> cloud;
    cloud.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!cloud.empty() && rng.bernoulli(0.1)) {
            cloud.push_back(cloud[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      cloud.size() - 1)))]);
            continue;
        }
        // Snap to a coarse grid so equal coordinates are common.
        const double flight =
            static_cast<double>(rng.uniformInt(5, 40));
        const double power =
            0.5 * static_cast<double>(rng.uniformInt(2, 40));
        const double weight =
            50.0 * static_cast<double>(rng.uniformInt(4, 40));
        cloud.push_back(
            point(flight, power, weight, !rng.bernoulli(0.15)));
    }
    return cloud;
}

/** The frontier as a multiset of coordinate triples, so frontiers of
 * permuted inputs can be compared index-free. */
std::multiset<std::tuple<double, double, double>>
frontierPoints(const std::vector<DesignResult> &cloud,
               const std::vector<std::size_t> &frontier)
{
    std::multiset<std::tuple<double, double, double>> set;
    for (std::size_t idx : frontier) {
        const DesignResult &p = cloud[idx];
        set.insert({p.flightTimeMin.value(), p.computePowerW.value(),
                    p.totalWeightG.value()});
    }
    return set;
}

TEST(ParetoProperties, MembershipIsExactlyNoDominatorExists)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        const auto cloud = randomCloud(
            rng, static_cast<std::size_t>(rng.uniformInt(1, 120)));
        EXPECT_EQ(paretoFrontier(cloud), oracleFrontier(cloud))
            << "seed " << seed;
    }
}

TEST(ParetoProperties, FrontierIsInvariantUnderPermutation)
{
    for (std::uint64_t seed = 100; seed < 110; ++seed) {
        Rng rng(seed);
        auto cloud = randomCloud(rng, 80);
        const auto baseline =
            frontierPoints(cloud, paretoFrontier(cloud));
        for (int round = 0; round < 5; ++round) {
            // Fisher-Yates with the deterministic Rng.
            for (std::size_t i = cloud.size(); i > 1; --i) {
                const auto j = static_cast<std::size_t>(
                    rng.uniformInt(0,
                                   static_cast<std::int64_t>(i) - 1));
                std::swap(cloud[i - 1], cloud[j]);
            }
            EXPECT_EQ(frontierPoints(cloud, paretoFrontier(cloud)),
                      baseline)
                << "seed " << seed << " round " << round;
        }
    }
}

TEST(ParetoProperties, FrontierIsAFixedPointOfItself)
{
    for (std::uint64_t seed = 200; seed < 215; ++seed) {
        Rng rng(seed);
        const auto cloud = randomCloud(rng, 100);
        const auto frontier = paretoFrontier(cloud);
        std::vector<DesignResult> survivors;
        survivors.reserve(frontier.size());
        for (std::size_t idx : frontier)
            survivors.push_back(cloud[idx]);

        std::vector<std::size_t> everything(survivors.size());
        std::iota(everything.begin(), everything.end(), 0u);
        EXPECT_EQ(paretoFrontier(survivors), everything)
            << "seed " << seed;
    }
}

TEST(ParetoProperties, FrontierIndicesAreSortedUniqueAndFeasible)
{
    for (std::uint64_t seed = 300; seed < 310; ++seed) {
        Rng rng(seed);
        const auto cloud = randomCloud(rng, 60);
        const auto frontier = paretoFrontier(cloud);
        EXPECT_TRUE(
            std::is_sorted(frontier.begin(), frontier.end()));
        EXPECT_EQ(std::adjacent_find(frontier.begin(), frontier.end()),
                  frontier.end());
        for (std::size_t idx : frontier) {
            ASSERT_LT(idx, cloud.size());
            EXPECT_TRUE(cloud[idx].feasible);
        }
    }
}

TEST(ParetoProperties, LargeTieHeavyCloudMatchesOracle)
{
    // ~39 distinct powers give the staircase deep tree paths; the
    // cloud's copies put duplicated triples on the frontier.
    Rng rng(401);
    const auto cloud = randomCloud(rng, 6000);
    const auto frontier = paretoFrontier(cloud);
    EXPECT_EQ(frontier, oracleFrontier(cloud));
    const auto kept = frontierPoints(cloud, frontier);
    EXPECT_LT(std::set(kept.begin(), kept.end()).size(), kept.size());

    // Snapped to 6 x 5 x 5 cells, the same cloud walks runs of
    // dozens of equal triples.
    auto coarse = cloud;
    for (DesignResult &p : coarse) {
        p.flightTimeMin = Quantity<Minutes>(
            std::floor((p.flightTimeMin.value() - 5.0) / 6.0));
        p.computePowerW = Quantity<Watts>(
            std::floor((p.computePowerW.value() - 1.0) / 4.0));
        p.totalWeightG = Quantity<Grams>(
            std::floor((p.totalWeightG.value() - 200.0) / 400.0));
    }
    const auto coarse_frontier = paretoFrontier(coarse);
    EXPECT_EQ(coarse_frontier, oracleFrontier(coarse));
    const auto coarse_kept = frontierPoints(coarse, coarse_frontier);
    EXPECT_GE(coarse_kept.size(),
              10 * std::set(coarse_kept.begin(), coarse_kept.end()).size());
}

TEST(ParetoProperties, Figure10ClassGridMatchesOracle)
{
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium),
                                    {1, 2, 3, 4, 5, 6}, 100.0_mah,
                                    basicChip3W());
    spec.boards = {advancedChip20W(), basicChip3W()};
    spec.activities = {FlightActivity::Hovering,
                       FlightActivity::Maneuvering};
    const std::vector<DesignResult> solved = runSweepSerial(spec);
    const auto frontier = paretoFrontier(solved);
    EXPECT_EQ(frontier, oracleFrontier(solved));
    EXPECT_GT(frontier.size(), 1u);
}

} // namespace
} // namespace dronedse

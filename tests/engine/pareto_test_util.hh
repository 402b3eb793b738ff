/**
 * @file
 * Shared helpers of the Pareto test batteries: a point builder and
 * the brute-force oracle, the pairwise definition the fast frontier
 * must reproduce exactly.
 */

#ifndef DRONEDSE_TESTS_ENGINE_PARETO_TEST_UTIL_HH
#define DRONEDSE_TESTS_ENGINE_PARETO_TEST_UTIL_HH

#include <cstddef>
#include <vector>

#include "engine/pareto.hh"

namespace dronedse::pareto_test {

inline DesignResult
point(double flight_min, double compute_w, double weight_g,
      bool feasible = true)
{
    DesignResult res;
    res.feasible = feasible;
    res.flightTimeMin = Quantity<Minutes>(flight_min);
    res.computePowerW = Quantity<Watts>(compute_w);
    res.totalWeightG = Quantity<Grams>(weight_g);
    return res;
}

/** Brute-force oracle: i is on the frontier iff it is feasible and
 * nothing in the cloud dominates it. */
inline std::vector<std::size_t>
oracleFrontier(const std::vector<DesignResult> &cloud)
{
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        if (!cloud[i].feasible)
            continue;
        bool dominated = false;
        for (std::size_t j = 0; j < cloud.size() && !dominated; ++j)
            dominated = j != i && engine::dominates(cloud[j], cloud[i]);
        if (!dominated)
            frontier.push_back(i);
    }
    return frontier;
}

} // namespace dronedse::pareto_test

#endif // DRONEDSE_TESTS_ENGINE_PARETO_TEST_UTIL_HH

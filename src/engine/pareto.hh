/**
 * @file
 * Exact Pareto-frontier extraction over solved design points.
 *
 * The engine's query surface is the paper's central tradeoff: flight
 * time vs onboard compute capability vs all-up weight (Sections 3-4).
 * A design dominates another when it is at least as good on all
 * three objectives — more flight time, more compute power, less
 * weight — and strictly better on at least one.  The frontier is the
 * set of non-dominated feasible points.
 *
 * `paretoFrontier` is exact and O(n log n): it sorts the feasible
 * points by (flight time desc, compute power desc, weight asc, index),
 * so every dominator of a point sorts before it, then walks runs of
 * equal triples against a power -> minimum-weight staircase (a
 * Fenwick tree over descending power ranks).  A run is dominated
 * exactly when an earlier point has power >= and weight <= its own.
 * Tie rules follow `dominates`: equal triples (-0.0 == +0.0
 * included) never dominate each other, and a feasible point with a
 * NaN objective is always kept and never dominates.
 */

#ifndef DRONEDSE_ENGINE_PARETO_HH
#define DRONEDSE_ENGINE_PARETO_HH

#include <cstddef>
#include <vector>

#include "dse/design_point.hh"

namespace dronedse::engine {

/**
 * True when `a` Pareto-dominates `b` on (flight time up, compute
 * power up, all-up weight down).  Equal points do not dominate each
 * other, so duplicates all stay on the frontier.
 */
bool dominates(const DesignResult &a, const DesignResult &b);

/**
 * Indices of the non-dominated feasible points, in input order:
 * exactly the feasible `i` with no `j` such that
 * `dominates(points[j], points[i])`.  Infeasible points are never on
 * the frontier and never dominate.
 */
std::vector<std::size_t>
paretoFrontier(const std::vector<DesignResult> &points);

} // namespace dronedse::engine

#endif // DRONEDSE_ENGINE_PARETO_HH

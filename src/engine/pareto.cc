#include "engine/pareto.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

namespace dronedse::engine {

bool
dominates(const DesignResult &a, const DesignResult &b)
{
    if (!a.feasible || !b.feasible)
        return false;
    const bool no_worse =
        a.flightTimeMin >= b.flightTimeMin &&
        a.computePowerW >= b.computePowerW &&
        a.totalWeightG <= b.totalWeightG;
    if (!no_worse)
        return false;
    return a.flightTimeMin > b.flightTimeMin ||
           a.computePowerW > b.computePowerW ||
           a.totalWeightG < b.totalWeightG;
}

namespace {

/** One feasible point's objectives, 32 bytes instead of the result. */
struct Objectives
{
    double flight;
    double power;
    double weight;
    std::size_t index;

    bool sameTriple(const Objectives &o) const
    {
        return flight == o.flight && power == o.power &&
               weight == o.weight;
    }
};

/**
 * Prefix minimum of weight over descending-power ranks (a Fenwick
 * tree).  Empty slots hold NaN: `std::fmin` skips them and
 * `NaN <= w` is false, so an empty prefix never dominates, not even
 * a point weighing +inf.
 */
class MinWeightByPowerRank
{
  public:
    explicit MinWeightByPowerRank(std::size_t ranks)
        : tree_(ranks + 1, std::numeric_limits<double>::quiet_NaN())
    {
    }

    void insert(std::size_t rank, double weight)
    {
        for (std::size_t k = rank + 1; k < tree_.size(); k += k & -k)
            tree_[k] = std::fmin(tree_[k], weight);
    }

    /** Least weight among points of rank <= `rank` (NaN if none). */
    double minUpTo(std::size_t rank) const
    {
        double best = std::numeric_limits<double>::quiet_NaN();
        for (std::size_t k = rank + 1; k > 0; k -= k & -k)
            best = std::fmin(best, tree_[k]);
        return best;
    }

  private:
    std::vector<double> tree_;
};

} // namespace

std::vector<std::size_t>
paretoFrontier(const std::vector<DesignResult> &points)
{
    // A feasible point with a NaN objective compares false against
    // everything, so it is never dominated and never dominates.  It
    // goes straight to the frontier and stays out of the sort, where
    // NaN would break the comparator's strict weak ordering.
    std::vector<std::size_t> frontier;
    std::vector<Objectives> sorted;
    sorted.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DesignResult &p = points[i];
        if (!p.feasible)
            continue;
        const Objectives o{p.flightTimeMin.value(),
                           p.computePowerW.value(),
                           p.totalWeightG.value(), i};
        if (std::isnan(o.flight) || std::isnan(o.power) ||
            std::isnan(o.weight))
            frontier.push_back(i);
        else
            sorted.push_back(o);
    }

    // Every dominator of a point sorts before it.
    std::sort(sorted.begin(), sorted.end(),
              [](const Objectives &a, const Objectives &b) {
                  if (a.flight != b.flight)
                      return a.flight > b.flight;
                  if (a.power != b.power)
                      return a.power > b.power;
                  if (a.weight != b.weight)
                      return a.weight < b.weight;
                  return a.index < b.index;
              });

    std::vector<double> powers(sorted.size());
    std::transform(sorted.begin(), sorted.end(), powers.begin(),
                   [](const Objectives &o) { return o.power; });
    std::sort(powers.begin(), powers.end(), std::greater<>());
    powers.erase(std::unique(powers.begin(), powers.end()),
                 powers.end());

    // Everything already inserted has at least this run's flight
    // time, so the run is dominated exactly when some inserted point
    // has power >= its power (rank <= its rank) and weight <= its
    // weight.  A run is queried before it is inserted, so equal
    // triples never dominate each other.
    MinWeightByPowerRank staircase(powers.size());
    for (std::size_t begin = 0; begin < sorted.size();) {
        const Objectives &head = sorted[begin];
        std::size_t end = begin + 1;
        while (end < sorted.size() && sorted[end].sameTriple(head))
            ++end;
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(powers.begin(), powers.end(), head.power,
                             std::greater<>()) -
            powers.begin());
        // A dominated run dominates nothing its dominator does not,
        // so only kept runs are inserted.
        if (!(staircase.minUpTo(rank) <= head.weight)) {
            staircase.insert(rank, head.weight);
            for (std::size_t k = begin; k < end; ++k)
                frontier.push_back(sorted[k].index);
        }
        begin = end;
    }

    std::sort(frontier.begin(), frontier.end());
    return frontier;
}

} // namespace dronedse::engine

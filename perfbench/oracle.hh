/**
 * @file
 * Output checks of the benchmark, computed outside every timed
 * window: an independent frontier check, a field-for-field compare
 * against the scalar solver, and expected reply frames built from
 * direct library calls and the shared serializers.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "bench.hh"
#include "dse/design_point.hh"
#include "engine/engine.hh"
#include "serve/request.hh"

namespace perfbench {

/** True when every field of `a` and `b` is identical (doubles bitwise). */
bool sameResult(const dronedse::DesignResult &a,
                const dronedse::DesignResult &b);

/**
 * Check `frontier` against the non-dominance characterisation of the
 * Pareto frontier over `points` (flight time up, compute power up,
 * weight down), without calling `engine::paretoFrontier`:
 *  - indices ascend, are in range and name feasible points;
 *  - no frontier point is dominated by any feasible point;
 *  - every other feasible point is dominated by a frontier point.
 * Returns the first violation, or an empty string.
 */
std::string checkFrontier(const std::vector<dronedse::DesignResult> &points,
                          const std::vector<std::size_t> &frontier);

/** Expected reply to a design request: scalar `solveDesign`. */
std::string expectedDesignReply(std::uint64_t id,
                                const dronedse::DesignInputs &point);

/** An expected reply frame and the work behind it. */
struct Expected
{
    std::string reply;
    /** Design points the query solves (its share of `points_per_s`). */
    std::size_t points = 0;
};

/**
 * Expected reply to a batch-class request, from direct calls into the
 * layer that owns the kind: `runSweepSerial` + `paretoFrontier`
 * (pareto), `AdaptiveDriver` (explore), `FitScatter` +
 * `runRiskQuery` (risk), `CodesignDriver` (codesign), each followed
 * by its shared serializer.  `engine` is a private engine (never the
 * served one).  The layer calls are recorded into `log` under their
 * per-layer metric names.
 */
Expected expectedAnalysisReply(const dronedse::serve::Request &request,
                               dronedse::engine::SweepEngine &engine,
                               ThreadLog &log);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH

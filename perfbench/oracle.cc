#include "oracle.hh"

#include <bit>
#include <cstdint>

#include "codesign/codesign.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "engine/pareto.hh"
#include "explore/driver.hh"
#include "explore/gate.hh"
#include "explore/uncertainty.hh"

namespace perfbench {

using namespace dronedse;
using serve::QueryKind;

namespace {

bool
same(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

template <typename Unit>
bool
same(Quantity<Unit> a, Quantity<Unit> b)
{
    return same(a.value(), b.value());
}

bool
sameInputs(const DesignInputs &a, const DesignInputs &b)
{
    return same(a.wheelbaseMm, b.wheelbaseMm) && a.cells == b.cells &&
           same(a.capacityMah, b.capacityMah) && same(a.twr, b.twr) &&
           same(a.propDiameterIn, b.propDiameterIn) &&
           a.escClass == b.escClass && a.compute.name == b.compute.name &&
           a.compute.boardClass == b.compute.boardClass &&
           same(a.compute.weightG, b.compute.weightG) &&
           same(a.compute.powerW, b.compute.powerW) &&
           same(a.sensorWeightG, b.sensorWeightG) &&
           same(a.sensorPowerW, b.sensorPowerW) &&
           same(a.payloadG, b.payloadG) && a.activity == b.activity;
}

/** Objective triple of one point, in compact form for the scans. */
struct Objectives
{
    double flight;
    double power;
    double weight;
};

/** Independent restatement of Pareto dominance (see oracle.hh). */
bool
beats(const Objectives &a, const Objectives &b)
{
    if (a.flight < b.flight || a.power < b.power || a.weight > b.weight)
        return false;
    return a.flight > b.flight || a.power > b.power ||
           a.weight < b.weight;
}

} // namespace

bool
sameResult(const DesignResult &a, const DesignResult &b)
{
    return a.feasible == b.feasible &&
           a.infeasibleReason == b.infeasibleReason &&
           sameInputs(a.inputs, b.inputs) &&
           same(a.totalWeightG, b.totalWeightG) &&
           same(a.basicWeightG, b.basicWeightG) &&
           same(a.frameWeightG, b.frameWeightG) &&
           same(a.batteryWeightG, b.batteryWeightG) &&
           same(a.motorSetWeightG, b.motorSetWeightG) &&
           same(a.escSetWeightG, b.escSetWeightG) &&
           same(a.propSetWeightG, b.propSetWeightG) &&
           same(a.wiringWeightG, b.wiringWeightG) &&
           a.motor.name == b.motor.name && same(a.motor.kv, b.motor.kv) &&
           same(a.motor.weightG, b.motor.weightG) &&
           same(a.motor.maxCurrentA, b.motor.maxCurrentA) &&
           same(a.motor.maxThrustG, b.motor.maxThrustG) &&
           same(a.motor.propDiameterIn, b.motor.propDiameterIn) &&
           same(a.motorMaxCurrentA, b.motorMaxCurrentA) &&
           a.extremeKv == b.extremeKv && same(a.maxPowerW, b.maxPowerW) &&
           same(a.propulsionPowerW, b.propulsionPowerW) &&
           same(a.computePowerW, b.computePowerW) &&
           same(a.sensorPowerW, b.sensorPowerW) &&
           same(a.avgPowerW, b.avgPowerW) &&
           same(a.usableEnergyWh, b.usableEnergyWh) &&
           same(a.flightTimeMin, b.flightTimeMin) &&
           same(a.computePowerFraction, b.computePowerFraction);
}

std::string
checkFrontier(const std::vector<DesignResult> &points,
              const std::vector<std::size_t> &frontier)
{
    std::vector<Objectives> front;
    std::vector<char> on_front(points.size(), 0);
    for (std::size_t k = 0; k < frontier.size(); ++k) {
        const std::size_t i = frontier[k];
        if (i >= points.size())
            return "frontier index out of range";
        if (k > 0 && i <= frontier[k - 1])
            return "frontier indices not strictly ascending";
        if (!points[i].feasible)
            return "infeasible point on the frontier";
        on_front[i] = 1;
        front.push_back({points[i].flightTimeMin.value(),
                         points[i].computePowerW.value(),
                         points[i].totalWeightG.value()});
    }
    std::vector<Objectives> feasible;
    std::vector<std::size_t> feasible_index;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!points[i].feasible)
            continue;
        feasible.push_back({points[i].flightTimeMin.value(),
                            points[i].computePowerW.value(),
                            points[i].totalWeightG.value()});
        feasible_index.push_back(i);
    }
    for (const Objectives &f : front) {
        for (const Objectives &p : feasible) {
            if (beats(p, f))
                return "a frontier point is dominated";
        }
    }
    for (std::size_t k = 0; k < feasible.size(); ++k) {
        if (on_front[feasible_index[k]])
            continue;
        bool covered = false;
        for (const Objectives &f : front) {
            if (beats(f, feasible[k])) {
                covered = true;
                break;
            }
        }
        if (!covered)
            return "feasible point " +
                   std::to_string(feasible_index[k]) +
                   " is neither on the frontier nor dominated by it";
    }
    return "";
}

std::string
expectedDesignReply(std::uint64_t id, const DesignInputs &point)
{
    return serve::serializeDesignReply(id, solveDesign(point));
}

Expected
expectedAnalysisReply(const serve::Request &request,
                      engine::SweepEngine &engine, ThreadLog &log)
{
    const auto timed = [&](const char *name, double scale, auto &&call) {
        const Clock::time_point a = Clock::now();
        auto value = call();
        log.record(&log.series(name), name, "oracle", a, Clock::now(),
                   request.id, true, scale);
        return value;
    };
    const auto count = [&](const char *name, double value) {
        if (log.enabled())
            log.series(name).push_back(value);
    };

    switch (request.kind) {
    case QueryKind::Pareto: {
        const std::vector<DesignResult> points =
            runSweepSerial(request.spec);
        const std::vector<std::size_t> frontier =
            engine::paretoFrontier(points);
        const std::string reply =
            timed("serve.pareto_serialize_ms", 1e3, [&] {
                return serve::serializeParetoReply(request.id, points,
                                                   frontier);
            });
        count("serve.pareto_reply_bytes", static_cast<double>(reply.size()));
        return {reply, points.size()};
    }
    case QueryKind::Explore: {
        explore::AdaptiveDriver driver(engine, request.explore.options);
        const explore::ExploreResult result =
            timed("explore.driver_ms", 1e3,
                  [&] { return driver.run(request.explore.space); });
        count("explore.evaluations",
              static_cast<double>(result.evaluations()));
        count("explore.frontier_yield",
              static_cast<double>(result.frontier.size()) /
                  static_cast<double>(result.evaluations()));
        return {serve::serializeExploreReply(request.id, result),
                result.evaluations()};
    }
    case QueryKind::Risk: {
        const explore::RiskQuery &query = request.risk;
        const explore::FitScatter scatter =
            timed("risk.scatter_ms", 1e3, [&] {
                return explore::FitScatter::fromCatalogs(
                    query.options.seed, query.options.scatterReplicates);
            });
        const Clock::time_point a = Clock::now();
        const explore::RiskOutcome outcome =
            explore::runRiskQuery(query, scatter);
        const Clock::time_point b = Clock::now();
        log.record(&log.series("risk.mc_ms"), "risk.mc_ms", "oracle", a, b,
                   request.id, true, 1e3);
        count("risk.solves_per_s",
              static_cast<double>(query.options.samples) /
                  secondsBetween(a, b));
        return {serve::serializeRiskReply(request.id, outcome,
                                          query.quantiles),
                query.options.samples};
    }
    case QueryKind::Codesign: {
        const codesign::CodesignDriver driver(engine);
        const codesign::CodesignOutcome outcome =
            timed("codesign.run_ms", 1e3,
                  [&] { return driver.run(request.mission); });
        count("codesign.configs", static_cast<double>(outcome.configCount));
        return {serve::serializeCodesignReply(request.id, outcome),
                outcome.gridPoints};
    }
    default:
        return {expectedDesignReply(request.id, request.point), 1};
    }
}

} // namespace perfbench

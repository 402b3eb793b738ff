/**
 * @file
 * Adaptive exploration study: run the boundary-refinement driver
 * over the 450 mm reference space (or the six-axis wide space),
 * print the recovered Pareto frontier and round ledger, then close
 * out the incumbent with a risk-gated uncertainty report.
 *
 * Usage: explore_study [--jobs N] [--seed S] [--budget N]
 *                      [--sampler NAME] [--wide] [--csv PATH]
 *                      [--rounds-csv PATH] [--samples N]
 *   --jobs N         engine worker threads (default 1)
 *   --seed S         sampler + uncertainty seed (default 17)
 *   --budget N       max solver evaluations (default 10% of grid)
 *   --sampler NAME   grid | uniform | lhs | sobol (default sobol)
 *   --wide           explore the six-axis wide space instead
 *   --csv PATH       write the frontier CSV (byte-stable; CI diffs
 *                    this across --jobs 1/2/8)
 *   --rounds-csv PATH  write the per-round ledger CSV
 *   --samples N      Monte-Carlo samples for the closeout (default
 *                    256)
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "engine/engine.hh"
#include "example_args.hh"
#include "explore/driver.hh"
#include "explore/gate.hh"
#include "explore/sampler.hh"
#include "explore/space.hh"
#include "util/logging.hh"

using namespace dronedse;
using namespace dronedse::explore;
using namespace dronedse::unit_literals;

namespace {

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path);
    if (!f)
        fatal("explore_study: cannot open '" + path +
              "' for writing");
    f << content;
}

} // namespace

int
main(int argc, char **argv)
{
    int jobs = 1;
    std::uint64_t seed = 17;
    std::uint64_t budget = 0; // 0 = 10% of the grid
    std::uint64_t mc_samples = 256;
    std::string sampler_name = "sobol";
    std::string csv_path, rounds_path;
    bool wide = false;

    examples::ExampleArgs args(argc, argv, "explore_study",
                               "[--jobs N] [--seed S] [--budget N] "
                               "[--sampler NAME] [--wide] "
                               "[--csv PATH] [--rounds-csv PATH] "
                               "[--samples N]");
    while (args.next()) {
        if (args.intArg("--jobs", jobs, 1))
            continue;
        if (args.u64Arg("--seed", seed))
            continue;
        if (args.u64Arg("--budget", budget))
            continue;
        if (args.stringArg("--sampler", sampler_name))
            continue;
        if (args.flag("--wide")) {
            wide = true;
            continue;
        }
        if (args.stringArg("--csv", csv_path))
            continue;
        if (args.stringArg("--rounds-csv", rounds_path))
            continue;
        if (args.u64Arg("--samples", mc_samples))
            continue;
        args.unknown();
    }

    ExploreOptions options;
    options.seed = seed;
    if (!parseSamplerKind(sampler_name, options.sampler))
        fatal("explore_study: unknown sampler '" + sampler_name +
              "' (grid | uniform | lhs | sobol)");

    const ExploreSpace space =
        wide ? wideSpace6() : referenceSpace450(100.0_mah);
    options.maxEvaluations =
        budget != 0 ? static_cast<std::size_t>(budget)
                    : space.pointCount() / 10;

    std::printf("=== Adaptive design-space exploration ===\n\n");
    std::printf("space: %zu axes, %zu lattice points\n",
                space.axisCount(), space.pointCount());
    std::printf("budget: %zu evaluations (%s sampler, seed %llu)\n\n",
                options.maxEvaluations,
                samplerKindName(options.sampler),
                static_cast<unsigned long long>(seed));

    engine::SweepEngine engine{
        engine::EngineOptions{.threads = jobs}};
    AdaptiveDriver driver(engine, options);
    const ExploreResult result = driver.run(space);

    std::printf("evaluated %zu of %zu points in %zu rounds "
                "(converged: %s)\n",
                result.evaluations(), result.spacePoints,
                result.rounds.size(),
                result.converged ? "yes" : "no");
    std::printf("frontier: %zu designs\n\n", result.frontier.size());

    const DesignResult &best = result.points[result.incumbent];
    std::printf("incumbent (longest feasible flight):\n"
                "  wheelbase %.0f mm, %d cells, %.0f mAh, twr %.1f, "
                "board %s\n"
                "  flight %.2f min, weight %.1f g, avg power %.1f "
                "W\n\n",
                best.inputs.wheelbaseMm.value(), best.inputs.cells,
                best.inputs.capacityMah.value(), best.inputs.twr,
                best.inputs.compute.name.str().c_str(),
                best.flightTimeMin.value(),
                best.totalWeightG.value(), best.avgPowerW.value());

    // Risk-gated closeout: does the incumbent hold up when the
    // survey-fit coefficients are perturbed within catalog scatter?
    RiskQuery risk;
    risk.point = best.inputs;
    risk.options.seed = seed;
    risk.options.samples = static_cast<std::size_t>(mc_samples);
    risk.gates = {
        GateSpec{GateMetric::FlightTimeMin, GateOp::AtLeast,
                 0.9 * best.flightTimeMin.value(), 0.9},
        GateSpec{GateMetric::TotalWeightG, GateOp::AtMost,
                 1.1 * best.totalWeightG.value(), 0.9},
    };
    const RiskOutcome outcome = runRiskQuery(risk);
    std::printf("%s\n", gateReportText(outcome.report).c_str());

    if (!csv_path.empty())
        writeFile(csv_path, frontierCsv(result));
    if (!rounds_path.empty())
        writeFile(rounds_path, roundsCsv(result));
    return 0;
}

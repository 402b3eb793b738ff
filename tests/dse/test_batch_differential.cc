/**
 * @file
 * Differential battery holding `solveDesignBatch` to the scalar
 * `solveDesign` oracle, byte for byte (DESIGN.md §15):
 *
 *   (a) the full 450 mm reference grid (and the other two Figure 10
 *       size classes, both boards, both activities, cells 1-6);
 *   (b) seeded random design clouds spanning the input space,
 *       including infeasible and non-converging corners;
 *   (c) feasibility-boundary points located by bisection, where a
 *       masked lane sits one ULP-scale step from flipping verdicts
 *       and any drift in the iteration would surface first;
 *   (d) perturbed survey models, a different one in neighbouring
 *       lanes, against `solveDesign(x, model)`.
 */

#include <gtest/gtest.h>

#include <vector>

#include "components/compute_board.hh"
#include "dse/batch_solve.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "batch_test_util.hh"
#include "explore/uncertainty.hh"
#include "util/rng.hh"

using namespace dronedse;
using namespace dronedse::unit_literals;
using batch_test::expectByteIdentical;

namespace {

/** Batch-solve the whole set and compare every element bitwise. */
void
expectBatchMatchesScalar(const std::vector<DesignInputs> &inputs)
{
    const std::vector<DesignResult> batch =
        solveDesignBatch(std::span<const DesignInputs>(inputs));
    ASSERT_EQ(batch.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(solveDesign(inputs[i]), batch[i]);
    }
}

SweepSpec
fullClassSpec(SizeClass cls)
{
    SweepSpec spec = classSweepSpec(classSpec(cls), {1, 2, 3, 4, 5, 6},
                                    100.0_mah, basicChip3W());
    spec.boards = {advancedChip20W(), basicChip3W()};
    spec.activities = {FlightActivity::Hovering,
                       FlightActivity::Maneuvering};
    return spec;
}

} // namespace

TEST(BatchDifferential, Full450mmReferenceGrid)
{
    const std::vector<DesignInputs> grid =
        expandGrid(fullClassSpec(SizeClass::Medium));
    ASSERT_GT(grid.size(), 1000u);
    expectBatchMatchesScalar(grid);
}

TEST(BatchDifferential, SmallAndLargeClassGrids)
{
    for (SizeClass cls : {SizeClass::Small, SizeClass::Large}) {
        SCOPED_TRACE(static_cast<int>(cls));
        expectBatchMatchesScalar(expandGrid(fullClassSpec(cls)));
    }
}

TEST(BatchDifferential, SeededRandomDesignClouds)
{
    // Wide clouds: wheelbases off the class anchors, fractional
    // capacities, hostile TWRs, explicit prop overrides, sensors and
    // payloads — plus corners the validation rejects, so refused
    // lanes sit next to converging ones inside single blocks.
    for (std::uint64_t seed : {11ull, 29ull, 4242ull}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        std::vector<DesignInputs> cloud;
        for (int i = 0; i < 300; ++i) {
            DesignInputs in;
            in.wheelbaseMm =
                Quantity<Millimeters>(rng.uniform(40.0, 1100.0));
            in.cells = static_cast<int>(rng.uniformInt(0, 8));
            in.capacityMah =
                Quantity<MilliampHours>(rng.uniform(-200.0, 12000.0));
            in.twr = rng.uniform(0.5, 6.0);
            if (rng.uniform() < 0.3)
                in.propDiameterIn =
                    Quantity<Inches>(rng.uniform(1.0, 22.0));
            in.escClass = rng.uniform() < 0.5 ? EscClass::LongFlight
                                              : EscClass::ShortFlight;
            in.compute = rng.uniform() < 0.5 ? basicChip3W()
                                             : advancedChip20W();
            in.sensorWeightG = Quantity<Grams>(rng.uniform(0.0, 150.0));
            in.sensorPowerW = Quantity<Watts>(rng.uniform(0.0, 10.0));
            in.payloadG = Quantity<Grams>(rng.uniform(0.0, 500.0));
            in.activity = rng.uniform() < 0.5
                              ? FlightActivity::Hovering
                              : FlightActivity::Maneuvering;
            cloud.push_back(in);
        }
        expectBatchMatchesScalar(cloud);
    }
}

TEST(BatchDifferential, BisectedFeasibilityBoundaryPoints)
{
    // Bisect the battery C-rating feasibility boundary in capacity
    // (the `test_memo_cache.cc` idiom) for each battery family, then
    // solve a tight bracket around every boundary.  These are the
    // inputs where bit drift would first flip a verdict: the scalar
    // and batch paths must agree on *which side* each bracket point
    // lands on, with identical bytes throughout.
    std::vector<DesignInputs> bracket;
    for (int cells = 1; cells <= 6; ++cells) {
        DesignInputs probe;
        probe.cells = cells;
        double lo = 1.0, hi = 3000.0;
        // The boundary may sit outside [lo, hi] for some families;
        // only bisect brackets that actually straddle it.
        probe.capacityMah = Quantity<MilliampHours>(lo);
        const bool lo_feasible = solveDesign(probe).feasible;
        probe.capacityMah = Quantity<MilliampHours>(hi);
        const bool hi_feasible = solveDesign(probe).feasible;
        if (lo_feasible == hi_feasible)
            continue;
        while (hi - lo > 0.001) {
            const double mid = 0.5 * (lo + hi);
            probe.capacityMah = Quantity<MilliampHours>(mid);
            if (solveDesign(probe).feasible == hi_feasible)
                hi = mid;
            else
                lo = mid;
        }
        for (double cap : {lo, hi, lo - 0.0005, hi + 0.0005,
                           0.5 * (lo + hi)}) {
            DesignInputs in = probe;
            in.capacityMah = Quantity<MilliampHours>(cap);
            bracket.push_back(in);
        }
    }
    ASSERT_FALSE(bracket.empty());
    expectBatchMatchesScalar(bracket);
}

TEST(BatchDifferential, SpanAndVectorOverloadsAgree)
{
    const std::vector<DesignInputs> grid =
        expandGrid(fullClassSpec(SizeClass::Medium));
    const std::vector<DesignInputs> subset(grid.begin(),
                                           grid.begin() + 37);
    const std::vector<DesignResult> from_vector =
        solveDesignBatch(std::span<const DesignInputs>(subset));
    std::vector<DesignResult> from_span(subset.size());
    solveDesignBatch(std::span<const DesignInputs>(subset),
                     std::span<DesignResult>(from_span));
    for (std::size_t i = 0; i < subset.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(from_vector[i], from_span[i]);
    }
}

TEST(BatchDifferential, PerturbedSurveyModels)
{
    // 64 models drawn the way the risk Monte-Carlo draws them, over
    // the Medium grid plus edge inputs the grid never hits (rejected
    // cell count, TWR below 1, a wheelbase on the frame ramp).  The
    // lane model rotates with the input, so every block mixes models.
    const explore::FitScatter scatter =
        explore::FitScatter::fromCatalogs(17, 16);
    Rng rng(17);
    std::vector<SurveyModel> models;
    for (int i = 0; i < 64; ++i)
        models.push_back(
            explore::perturbSurveyModel(SurveyModel::paper(), scatter, rng));

    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium),
                                    {1, 2, 3, 4, 5, 6}, 500.0_mah,
                                    basicChip3W());
    spec.boards = {basicChip3W(), advancedChip20W()};
    spec.activities = {FlightActivity::Hovering,
                       FlightActivity::Maneuvering};
    std::vector<DesignInputs> points = expandGrid(spec);
    DesignInputs edge;
    edge.wheelbaseMm = 450.0_mm;
    edge.capacityMah = 5000.0_mah;
    edge.compute = basicChip3W();
    edge.cells = 9;
    points.push_back(edge);
    edge.cells = 3;
    edge.twr = 0.5;
    points.push_back(edge);
    edge.twr = 2.0;
    edge.wheelbaseMm = 120.0_mm;
    points.push_back(edge);

    std::vector<DesignInputs> inputs;
    std::vector<SurveyModel> lane_models;
    for (std::size_t k = 0; k < models.size(); ++k) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            inputs.push_back(points[i]);
            lane_models.push_back(models[(i + k) % models.size()]);
        }
    }
    std::vector<DesignResult> batch(inputs.size());
    solveDesignBatch(std::span<const DesignInputs>(inputs),
                     std::span<const SurveyModel>(lane_models),
                     std::span<DesignResult>(batch));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(solveDesign(inputs[i], lane_models[i]),
                            batch[i]);
    }
}

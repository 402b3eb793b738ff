#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "components/battery.hh"
#include "components/compute_board.hh"
#include "components/frame.hh"
#include "dse/weight_closure.hh"
#include "explore/gate.hh"
#include "explore/uncertainty.hh"

namespace dronedse::explore {
namespace {

using namespace unit_literals;

/** The paper's 450 mm reference point (Section 5 best design). */
DesignInputs
referencePoint()
{
    DesignInputs in;
    in.wheelbaseMm = 450.0_mm;
    in.cells = 3;
    in.capacityMah = 5000.0_mah;
    in.twr = 2.0;
    in.compute = basicChip3W();
    return in;
}

TEST(FitScatter, DerivedScatterIsPositiveAndReproducible)
{
    const FitScatter a = FitScatter::fromCatalogs(17, 16);
    const FitScatter b = FitScatter::fromCatalogs(17, 16);
    for (int i = 0; i < 6; ++i) {
        EXPECT_GT(a.batterySlopeSd[i], 0.0);
        EXPECT_GT(a.batteryInterceptSd[i], 0.0);
        EXPECT_EQ(a.batterySlopeSd[i], b.batterySlopeSd[i]);
        EXPECT_EQ(a.batteryInterceptSd[i], b.batteryInterceptSd[i]);
    }
    for (int i = 0; i < 2; ++i) {
        EXPECT_GT(a.escSlopeSd[i], 0.0);
        EXPECT_GT(a.escInterceptSd[i], 0.0);
    }
    EXPECT_GT(a.frameSlopeSd, 0.0);
    EXPECT_GT(a.frameInterceptSd, 0.0);
    EXPECT_EQ(a.frameSlopeSd, b.frameSlopeSd);

    // The scatter is small relative to the coefficients themselves
    // (the survey pipeline recovers the published fits well).
    EXPECT_LT(a.batterySlopeSd[2], 0.1 * paperBatteryFit(3).slope);
    EXPECT_LT(a.frameSlopeSd, 0.1 * paperFrameFit().slope);
}

TEST(Uncertainty, PropagationIsDeterministicPerSeed)
{
    const DesignInputs point = referencePoint();
    UncertaintyOptions options;
    options.samples = 64;
    options.scatterReplicates = 8;
    const UncertaintyResult a = propagateUncertainty(point, options);
    const UncertaintyResult b = propagateUncertainty(point, options);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.feasibleSamples, b.feasibleSamples);
    ASSERT_FALSE(a.flightTimeMin.empty());
    EXPECT_EQ(a.flightTimeMin.samples(), b.flightTimeMin.samples());
    EXPECT_EQ(a.totalWeightG.samples(), b.totalWeightG.samples());

    options.seed = 18;
    const UncertaintyResult c = propagateUncertainty(point, options);
    ASSERT_FALSE(c.flightTimeMin.empty());
    EXPECT_NE(a.flightTimeMin.samples(), c.flightTimeMin.samples());
}

TEST(Uncertainty, DistributionBracketsTheNominalSolve)
{
    const DesignInputs point = referencePoint();
    UncertaintyOptions options;
    options.samples = 128;
    options.scatterReplicates = 16;
    const UncertaintyResult res = propagateUncertainty(point, options);
    ASSERT_TRUE(res.nominal.feasible);
    EXPECT_EQ(res.samples, 128u);
    EXPECT_GT(res.feasibleFraction(), 0.9);
    ASSERT_FALSE(res.flightTimeMin.empty());
    // Symmetric coefficient perturbations land the nominal solve
    // strictly inside the sampled range.
    EXPECT_LT(res.flightTimeMin.min(),
              res.nominal.flightTimeMin.value());
    EXPECT_GT(res.flightTimeMin.max(),
              res.nominal.flightTimeMin.value());
    EXPECT_LT(res.totalWeightG.min(), res.nominal.totalWeightG.value());
    EXPECT_GT(res.totalWeightG.max(), res.nominal.totalWeightG.value());
}

/** The propagation as a one-sample-at-a-time scalar loop. */
UncertaintyResult
scalarPropagation(const DesignInputs &point,
                  const UncertaintyOptions &options,
                  const FitScatter &scatter)
{
    UncertaintyResult out;
    Rng rng(options.seed);
    std::vector<double> flight, weight;
    for (std::size_t i = 0; i < options.samples; ++i) {
        const SurveyModel model =
            perturbSurveyModel(SurveyModel::paper(), scatter, rng);
        const DesignResult res = solveDesign(point, model);
        if (!res.feasible)
            continue;
        ++out.feasibleSamples;
        flight.push_back(res.flightTimeMin.value());
        weight.push_back(res.totalWeightG.value());
    }
    if (!flight.empty()) {
        out.flightTimeMin = Ecdf(std::move(flight));
        out.totalWeightG = Ecdf(std::move(weight));
    }
    return out;
}

void
expectSameSamples(const Ecdf &scalar, const Ecdf &blocked)
{
    ASSERT_EQ(scalar.size(), blocked.size());
    if (scalar.empty())
        return;
    EXPECT_EQ(std::memcmp(scalar.samples().data(),
                          blocked.samples().data(),
                          scalar.size() * sizeof(double)),
              0);
}

TEST(Uncertainty, BlockedKernelMatchesScalarLoopSampleForSample)
{
    // The Monte-Carlo solves its models through the batch kernel in
    // blocks; a plain draw-then-solveDesign loop must see the same
    // feasible samples with the same bytes.  Counts straddle the
    // lane width and the sample block; the second point sits just
    // below the 3S C-rating boundary, where most draws fail.
    const FitScatter scatter = FitScatter::fromCatalogs(17, 16);
    DesignInputs marginal = referencePoint();
    marginal.capacityMah = 235.0_mah;
    for (const bool most_infeasible : {false, true}) {
        const DesignInputs point =
            most_infeasible ? marginal : referencePoint();
        double fraction = 0.0;
        for (std::size_t samples :
             {std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{9}, kRiskSampleBlock + 1, std::size_t{4096}}) {
            SCOPED_TRACE(std::to_string(point.capacityMah.value()) +
                         " mAh, " + std::to_string(samples) +
                         " samples");
            UncertaintyOptions options;
            options.samples = samples;
            const UncertaintyResult blocked =
                propagateUncertainty(point, options, scatter);
            const UncertaintyResult scalar =
                scalarPropagation(point, options, scatter);
            EXPECT_EQ(blocked.samples, samples);
            EXPECT_EQ(blocked.feasibleSamples, scalar.feasibleSamples);
            expectSameSamples(scalar.flightTimeMin,
                              blocked.flightTimeMin);
            expectSameSamples(scalar.totalWeightG, blocked.totalWeightG);
            fraction = blocked.feasibleFraction();
        }
        // Premise, at 4,096 samples: the two points cover both ends
        // of the verdicts.
        if (most_infeasible) {
            EXPECT_GT(fraction, 0.0);
            EXPECT_LT(fraction, 0.5);
        } else {
            EXPECT_GT(fraction, 0.9);
        }
    }
}

TEST(Gates, NameRoundTrips)
{
    for (GateMetric m :
         {GateMetric::FlightTimeMin, GateMetric::TotalWeightG}) {
        GateMetric parsed;
        ASSERT_TRUE(parseGateMetric(gateMetricName(m), parsed));
        EXPECT_EQ(parsed, m);
    }
    for (GateOp op : {GateOp::AtLeast, GateOp::AtMost}) {
        GateOp parsed;
        ASSERT_TRUE(parseGateOp(gateOpName(op), parsed));
        EXPECT_EQ(parsed, op);
    }
    GateMetric metric;
    EXPECT_FALSE(parseGateMetric("thrust", metric));
    GateOp op;
    EXPECT_FALSE(parseGateOp("exactly", op));
}

TEST(Gates, ProbabilitiesCountInfeasibleSamplesAsMisses)
{
    UncertaintyResult res;
    res.samples = 10;
    res.feasibleSamples = 8;
    res.flightTimeMin =
        Ecdf({10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0});
    res.totalWeightG = Ecdf({900, 910, 920, 930, 940, 950, 960, 970});

    GateSpec floor;
    floor.metric = GateMetric::FlightTimeMin;
    floor.op = GateOp::AtLeast;
    floor.threshold = 12.0; // 6 of 8 feasible meet it, of 10 total
    floor.minProbability = 0.6;
    GateSpec ceiling;
    ceiling.metric = GateMetric::TotalWeightG;
    ceiling.op = GateOp::AtMost;
    ceiling.threshold = 935.0; // 4 of 10
    ceiling.minProbability = 0.5;

    const GateReport report = evaluateGates(res, {floor, ceiling});
    ASSERT_EQ(report.gates.size(), 2u);
    EXPECT_DOUBLE_EQ(report.gates[0].probability, 0.6);
    EXPECT_TRUE(report.gates[0].pass);
    EXPECT_DOUBLE_EQ(report.gates[1].probability, 0.4);
    EXPECT_FALSE(report.gates[1].pass);
    EXPECT_FALSE(report.allPass);
    EXPECT_DOUBLE_EQ(report.feasibleFraction, 0.8);

    // No gates: vacuous pass.
    EXPECT_TRUE(evaluateGates(res, {}).allPass);

    // Renders mention the verdict and stay byte-stable.
    const std::string text = gateReportText(report);
    EXPECT_NE(text.find("FAIL"), std::string::npos);
    EXPECT_EQ(gateReportCsv(report), gateReportCsv(report));
}

TEST(Gates, RiskQueryGatesTheReferenceDesign)
{
    RiskQuery query;
    query.point = referencePoint();
    query.options.samples = 64;
    query.options.scatterReplicates = 8;

    GateSpec feasible_floor;
    feasible_floor.metric = GateMetric::FlightTimeMin;
    feasible_floor.op = GateOp::AtLeast;
    feasible_floor.threshold = 1.0; // trivially met when feasible
    feasible_floor.minProbability = 0.9;
    GateSpec impossible;
    impossible.metric = GateMetric::FlightTimeMin;
    impossible.op = GateOp::AtLeast;
    impossible.threshold = 1.0e6;
    impossible.minProbability = 0.5;
    query.gates = {feasible_floor, impossible};
    query.quantiles = {0.1, 0.5, 0.9};

    const RiskOutcome outcome = runRiskQuery(query);
    ASSERT_EQ(outcome.report.gates.size(), 2u);
    EXPECT_TRUE(outcome.report.gates[0].pass);
    EXPECT_DOUBLE_EQ(outcome.report.gates[1].probability, 0.0);
    EXPECT_FALSE(outcome.report.gates[1].pass);
    EXPECT_FALSE(outcome.report.allPass);

    query.quantiles = {1.5};
    EXPECT_DEATH((void)runRiskQuery(query), "quantile");
}

} // namespace
} // namespace dronedse::explore

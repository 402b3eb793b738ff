#include "inputs.hh"

#include <cmath>

#include "bench.hh"
#include "codesign/codesign.hh"
#include "components/compute_board.hh"

namespace perfbench {

using namespace dronedse;
using serve::QueryClass;
using serve::QueryKind;

namespace {

/** Golden-ratio low-discrepancy sequence in [0, 1), seeded phase. */
double
goldenPoint(double phase, std::size_t i)
{
    const double x = phase + 0.6180339887498949 * static_cast<double>(i);
    return x - std::floor(x);
}

std::vector<FlightActivity>
bothActivities()
{
    return {FlightActivity::Hovering, FlightActivity::Maneuvering};
}

std::vector<int>
allCells()
{
    return {1, 2, 3, 4, 5, 6};
}

/**
 * One point of the interactive lattice (9 wheelbases x 6 cells x
 * 1,401 capacities x 4 TWRs x 10 boards x 2 activities x 801
 * payloads, ~4.8e9 points).  Every coordinate is a multiple of a
 * power-of-two fraction, so the canonical frame round-trips exactly.
 */
DesignInputs
latticePoint(SeedRng &rng)
{
    const auto &boards = computeBoardTable();
    DesignInputs p;
    p.wheelbaseMm =
        Quantity<Millimeters>(250.0 + 50.0 * static_cast<double>(rng.below(9)));
    p.cells = 1 + static_cast<int>(rng.below(6));
    p.capacityMah = Quantity<MilliampHours>(
        1000.0 + 5.0 * static_cast<double>(rng.below(1401)));
    p.twr = 1.5 + 0.5 * static_cast<double>(rng.below(4));
    p.compute = boards[rng.below(boards.size())];
    p.activity = rng.below(2) == 0 ? FlightActivity::Hovering
                                   : FlightActivity::Maneuvering;
    p.payloadG =
        Quantity<Grams>(0.5 * static_cast<double>(rng.below(801)));
    return p;
}

/** One Figure 10 class slice: 10 boards x 2 x 6 x 71 = 8,520 points. */
SweepSpec
classSlice(SizeClass size_class, double twr, double payload_g)
{
    const SizeClassSpec &cs = classSpec(size_class);
    SweepSpec spec;
    spec.airframes = {{cs.wheelbaseMm, cs.propDiameterIn}};
    spec.boards = computeBoardTable();
    spec.activities = bothActivities();
    spec.cells = allCells();
    const double lo = cs.capacityLoMah.value();
    const double step =
        std::floor((cs.capacityHiMah.value() - lo) / 70.0);
    spec.capacityLoMah = Quantity<MilliampHours>(lo);
    spec.capacityStepMah = Quantity<MilliampHours>(step);
    // Half a step of slack keeps the accumulated grid at 71 values.
    spec.capacityHiMah = Quantity<MilliampHours>(lo + 70.5 * step);
    spec.twr = twr;
    spec.payloadG = Quantity<Grams>(payload_g);
    return spec;
}

} // namespace

Variant
variantAt(std::uint64_t seed, std::uint64_t stream, std::size_t i)
{
    SeedRng phase_rng(subSeed(seed, stream));
    const double phase = phase_rng.uniform();
    SeedRng rng(subSeed(subSeed(seed, stream), i + 1));
    Variant v;
    // Payload in [0, 400) g on a 0.25 g grid; capacity offset in
    // [1, 99] mAh, never a multiple of the 100 mAh step.
    v.payloadG = 0.25 * std::floor(goldenPoint(phase, i) * 1600.0);
    v.capacityOffsetMah = 1.0 + static_cast<double>(rng.below(99));
    return v;
}

std::vector<SweepSpec>
variantSpecs(const Variant &v)
{
    const SizeClassSpec &medium = classSpec(SizeClass::Medium);
    std::vector<SweepSpec> specs;
    for (const double twr : {1.5, 2.0, 2.5, 3.0}) {
        SweepSpec spec;
        spec.airframes = {{medium.wheelbaseMm, medium.propDiameterIn}};
        spec.boards = computeBoardTable();
        spec.activities = bothActivities();
        spec.cells = allCells();
        const double lo = 1000.0 + v.capacityOffsetMah;
        spec.capacityLoMah = Quantity<MilliampHours>(lo);
        spec.capacityStepMah = Quantity<MilliampHours>(100.0);
        spec.capacityHiMah = Quantity<MilliampHours>(lo + 7050.0);
        spec.twr = twr;
        spec.payloadG = Quantity<Grams>(v.payloadG);
        specs.push_back(spec);
    }
    return specs;
}

explore::ExploreSpace
variantSpace(const Variant &v)
{
    // The referenceSpace450 construction over the shifted grid.
    explore::ExploreSpace space =
        explore::spaceFromSweepSpec(variantSpecs(v).front());
    space.axes.insert(space.axes.begin(), explore::twrAxis(1.5, 0.5, 4));
    return space;
}

std::string
designFrame(std::uint64_t id, const DesignInputs &point)
{
    Request request;
    request.id = id;
    request.kind = QueryKind::Design;
    request.cls = QueryClass::Interactive;
    request.point = point;
    return serve::serializeRequest(request);
}

DesignPool
makeDesignPool(std::uint64_t seed)
{
    DesignPool pool;
    SeedRng rng(subSeed(seed, 1));
    for (std::size_t k = 0; k < kHotPoolSize; ++k) {
        pool.hot.push_back(latticePoint(rng));
        pool.hotFrames.push_back(designFrame(hotId(k), pool.hot.back()));
    }
    return pool;
}

ClientPlan
makeClientPlan(std::uint64_t seed, std::uint32_t client,
               std::size_t schedule_length, std::size_t cold_count)
{
    // Zipf (s = 1) over the hot pool's ranks.
    std::vector<double> cdf(kHotPoolSize);
    double total = 0.0;
    for (std::size_t k = 0; k < kHotPoolSize; ++k) {
        total += 1.0 / static_cast<double>(k + 1);
        cdf[k] = total;
    }
    for (double &c : cdf)
        c /= total;

    ClientPlan plan;
    SeedRng rng(subSeed(seed, 100 + client));
    plan.schedule.reserve(schedule_length);
    for (std::size_t i = 0; i < schedule_length; ++i) {
        if (rng.uniform() < kColdShare) {
            plan.schedule.push_back(kCold);
            continue;
        }
        const double u = rng.uniform();
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        plan.schedule.push_back(static_cast<std::uint32_t>(
            std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                  kHotPoolSize - 1)));
    }
    SeedRng cold_rng(subSeed(seed, 200 + client));
    plan.cold.reserve(cold_count);
    for (std::size_t j = 0; j < cold_count; ++j)
        plan.cold.push_back(latticePoint(cold_rng));
    return plan;
}

std::vector<DesignInputs>
fillPoints(std::uint64_t seed, std::size_t count)
{
    SeedRng rng(subSeed(seed, 300));
    std::vector<DesignInputs> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        DesignInputs p = latticePoint(rng);
        p.payloadG = p.payloadG + Quantity<Grams>(0.25);
        out.push_back(p);
    }
    return out;
}

std::vector<Request>
makeAnalysisPool(std::uint64_t seed, std::size_t cycles)
{
    static const SizeClass kClasses[] = {SizeClass::Small,
                                         SizeClass::Medium,
                                         SizeClass::Large};
    SeedRng phase_rng(subSeed(seed, 400));
    const double phase = phase_rng.uniform();
    SeedRng risk_rng(subSeed(seed, 401));
    const auto &boards = computeBoardTable();

    std::vector<Request> pool;
    for (std::size_t i = 0; i < cycles; ++i) {
        const double spread = goldenPoint(phase, i);

        // pareto: class x TWR cycle, payload up to a tenth of the
        // class's weight axis.
        Request pareto;
        pareto.id = 100000 + i;
        pareto.kind = QueryKind::Pareto;
        pareto.cls = QueryClass::Batch;
        const SizeClass size_class = kClasses[i % 3];
        const double payload_cap =
            0.1 * classSpec(size_class).weightAxisHiG.value();
        pareto.spec = classSlice(
            size_class, 1.5 + 0.5 * static_cast<double>((i / 3) % 4),
            0.5 * std::floor(spread * payload_cap * 2.0));
        pool.push_back(pareto);

        // explore: a distinct reference variant at a 10% budget.
        Request explore_req;
        explore_req.id = 200000 + i;
        explore_req.kind = QueryKind::Explore;
        explore_req.cls = QueryClass::Batch;
        explore_req.explore.space = variantSpace(variantAt(seed, kExploreStream, i));
        explore_req.explore.options.maxEvaluations = kVariantPoints / 10;
        pool.push_back(explore_req);

        // risk: 4,096 Monte-Carlo samples around a 450 mm design.
        Request risk;
        risk.id = 300000 + i;
        risk.kind = QueryKind::Risk;
        risk.cls = QueryClass::Batch;
        DesignInputs &point = risk.risk.point;
        point.cells = 3 + static_cast<int>(risk_rng.below(2));
        point.capacityMah = Quantity<MilliampHours>(
            2000.0 + 100.0 * static_cast<double>(risk_rng.below(31)));
        point.compute = boards[risk_rng.below(boards.size())];
        point.payloadG = Quantity<Grams>(
            5.0 * static_cast<double>(risk_rng.below(41)));
        // Wire seeds are JSON numbers: keep them within 2^53.
        risk.risk.options.seed = subSeed(seed, 500 + i) >> 11;
        risk.risk.options.samples = 4096;
        risk.risk.gates = {
            {explore::GateMetric::FlightTimeMin, explore::GateOp::AtLeast,
             10.0, 0.9},
            {explore::GateMetric::TotalWeightG, explore::GateOp::AtMost,
             2000.0, 0.9}};
        risk.risk.quantiles = {0.05, 0.5, 0.95};
        pool.push_back(risk);

        for (std::size_t m = 0; m < kCodesignPerCycle; ++m) {
            const std::size_t j = i * kCodesignPerCycle + m;
            Request codesign_req;
            codesign_req.id = 400000 + j;
            codesign_req.kind = QueryKind::Codesign;
            codesign_req.cls = QueryClass::Batch;
            codesign_req.mission =
                codesign::seededMission(subSeed(seed, 600 + j));
            pool.push_back(codesign_req);
        }
    }
    return pool;
}

std::uint64_t
hashRequests(const std::vector<Request> &requests, std::uint64_t h)
{
    for (const Request &r : requests)
        h = fnv1a(serve::serializeRequest(r), h);
    return h;
}

} // namespace perfbench

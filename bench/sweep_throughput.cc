/**
 * @file
 * Sweep-engine throughput bench: serial reference vs `SweepEngine`
 * at 1/2/4/8 threads on the Figure 10 footprint grids (all three
 * size classes, both chips, both activities, cells 1-6), plus a
 * raw batch-vs-scalar row (the SoA `solveDesignBatch` kernel vs a
 * `solveDesign` loop, memo cache bypassed) that measures the
 * raw-compute win the cache would otherwise mask.
 *
 * Emits machine-readable results — points/s, cache hit rates,
 * speedups, a serial-vs-engine CSV identity check, and the span
 * tracer's overhead on cold sweeps of the 34,080-point 450 mm
 * reference grid (runtime-enabled vs disabled; budget <3%) — as
 * `BENCH_sweep.json`.
 *
 * Usage: sweep_throughput [out.json] [--cold]
 *
 * `--cold` re-measures every cold series best-of-3 with
 * `clearCache()` between repetitions, so each rep is a genuinely
 * cold solve; without it a rerun on the same engine would score
 * cache hits and report a warm number as cold.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "components/compute_board.hh"
#include "dse/batch_solve.hh"
#include "dse/export.hh"
#include "dse/sweep.hh"
#include "dse/weight_closure.hh"
#include "engine/engine.hh"
#include "obs/tracer.hh"
#include "util/logging.hh"

using namespace dronedse;
using namespace dronedse::unit_literals;

namespace {

std::vector<SweepSpec>
fig10Grids()
{
    std::vector<SweepSpec> specs;
    for (SizeClass cls :
         {SizeClass::Small, SizeClass::Medium, SizeClass::Large}) {
        SweepSpec spec = classSweepSpec(classSpec(cls),
                                        {1, 2, 3, 4, 5, 6}, 100.0_mah,
                                        basicChip3W());
        spec.boards = {advancedChip20W(), basicChip3W()};
        spec.activities = {FlightActivity::Hovering,
                           FlightActivity::Maneuvering};
        specs.push_back(std::move(spec));
    }
    return specs;
}

/**
 * The 450 mm reference grid (`explore::referenceSpace450` at 100 mAh):
 * every board, both activities, cells 1-6, the Medium class capacity
 * range, at TWR 1.5, 2.0, 2.5 and 3.0 — 34,080 points.
 */
std::vector<SweepSpec>
referenceGrids()
{
    const SizeClassSpec &medium = classSpec(SizeClass::Medium);
    std::vector<SweepSpec> specs;
    for (const double twr : {1.5, 2.0, 2.5, 3.0}) {
        SweepSpec spec = classSweepSpec(medium, {1, 2, 3, 4, 5, 6},
                                        100.0_mah, basicChip3W(),
                                        FlightActivity::Hovering, twr);
        spec.boards = computeBoardTable();
        spec.activities = {FlightActivity::Hovering,
                           FlightActivity::Maneuvering};
        specs.push_back(std::move(spec));
    }
    return specs;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
now_seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Feasible-only CSV of a full solved grid (the serial contract). */
std::string
feasibleCsv(const std::vector<DesignResult> &points)
{
    std::vector<DesignResult> feasible;
    for (const auto &res : points) {
        if (res.feasible)
            feasible.push_back(res);
    }
    return sweepToCsv(feasible).str();
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_sweep.json";
    bool cold_mode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cold")
            cold_mode = true;
        else
            out_path = arg;
    }
    const int cold_reps = cold_mode ? 3 : 1;
    const std::vector<SweepSpec> specs = fig10Grids();

    std::size_t grid_points = 0;
    for (const auto &spec : specs)
        grid_points += spec.pointCount();
    std::printf("=== Sweep engine throughput (Fig 10 grids, %zu "
                "points) ===\n\n",
                grid_points);

    // Serial reference: plain solveDesign over the expanded grids.
    // Every timed region below covers the solves only; the CSV each
    // series is checked against is built after its timer stops.
    const auto serial_start = std::chrono::steady_clock::now();
    std::vector<std::vector<DesignResult>> serial_runs;
    for (const auto &spec : specs)
        serial_runs.push_back(runSweepSerial(spec));
    const double serial_seconds = now_seconds_since(serial_start);
    std::string serial_csv;
    for (const auto &points : serial_runs)
        serial_csv += feasibleCsv(points);
    const double serial_pps =
        static_cast<double>(grid_points) / serial_seconds;
    std::printf("serial          %8.3f s   %9.0f points/s\n",
                serial_seconds, serial_pps);

    std::string json = "{\"bench\": \"sweep_throughput\"";
    json += ", \"grid_points\": " + std::to_string(grid_points);
    json += ", \"serial\": {\"wall_seconds\": " + num(serial_seconds);
    json += ", \"points_per_second\": " + num(serial_pps) + "}";
    json += ", \"engine\": [";

    bool first = true;
    for (int threads : {1, 2, 4, 8}) {
        engine::SweepEngine eng{
            engine::EngineOptions{.threads = threads}};

        // Cold pass: every point is a miss and a real solve.  In
        // --cold mode the pass repeats best-of-N, with clearCache()
        // wiping the memo between reps so rep 2+ stays a real solve
        // instead of an all-hits replay masquerading as cold.
        double cold_seconds = 1e300;
        std::string engine_csv;
        for (int rep = 0; rep < cold_reps; ++rep) {
            if (rep > 0)
                eng.clearCache();
            std::vector<engine::SweepResult> runs;
            const auto cold_start = std::chrono::steady_clock::now();
            for (const auto &spec : specs)
                runs.push_back(eng.run(spec));
            cold_seconds =
                std::min(cold_seconds, now_seconds_since(cold_start));
            engine_csv.clear();
            for (const auto &run : runs)
                engine_csv += feasibleCsv(run.points);
        }
        const engine::CacheCounters cold_cache = eng.cacheCounters();

        // Warm pass: the same grids again; the closure is all hits.
        const auto warm_start = std::chrono::steady_clock::now();
        for (const auto &spec : specs)
            eng.run(spec);
        const double warm_seconds = now_seconds_since(warm_start);
        const engine::CacheCounters total_cache = eng.cacheCounters();
        const std::uint64_t warm_hits =
            total_cache.hits - cold_cache.hits;
        const std::uint64_t warm_misses =
            total_cache.misses - cold_cache.misses;
        const double warm_hit_rate =
            warm_hits + warm_misses == 0
                ? 0.0
                : static_cast<double>(warm_hits) /
                      static_cast<double>(warm_hits + warm_misses);

        const bool identical = engine_csv == serial_csv;
        const double cold_pps =
            static_cast<double>(grid_points) / cold_seconds;
        const double warm_pps =
            static_cast<double>(grid_points) / warm_seconds;
        std::printf("engine %2d thr   %8.3f s   %9.0f points/s cold   "
                    "%8.3f s %9.0f points/s warm   csv %s\n",
                    threads, cold_seconds, cold_pps, warm_seconds,
                    warm_pps, identical ? "identical" : "DIVERGED");

        if (!first)
            json += ", ";
        first = false;
        json += "{\"threads\": " + std::to_string(threads);
        json += ", \"cold\": {\"wall_seconds\": " + num(cold_seconds);
        json += ", \"points_per_second\": " + num(cold_pps);
        json += ", \"cache_hit_rate\": " + num(cold_cache.hitRate()) +
                "}";
        json += ", \"warm\": {\"wall_seconds\": " + num(warm_seconds);
        json += ", \"points_per_second\": " + num(warm_pps);
        json += ", \"cache_hit_rate\": " + num(warm_hit_rate) + "}";
        json += ", \"speedup_vs_serial\": " +
                num(serial_seconds / cold_seconds);
        json += ", \"csv_identical\": ";
        json += identical ? "true" : "false";
        json += "}";
    }
    json += "]";

    // Raw batch-vs-scalar, cold: a `solveDesign` loop against
    // `solveDesignBatch` with the memo cache bypassed outright — no
    // quantization, no lookups, no inserts — so the number is the SoA
    // kernel's compute win, which everything above mixes with cache
    // effects.
    std::printf("\n--- batch vs scalar, cold (best of %d) ---\n",
                cold_reps);
    std::vector<DesignInputs> flat_grid;
    for (const auto &spec : specs) {
        const std::vector<DesignInputs> grid = expandGrid(spec);
        flat_grid.insert(flat_grid.end(), grid.begin(), grid.end());
    }
    std::vector<DesignResult> flat_out(flat_grid.size());
    double raw_scalar = 1e300, raw_batch = 1e300;
    for (int rep = 0; rep < cold_reps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < flat_grid.size(); ++i)
            flat_out[i] = solveDesign(flat_grid[i]);
        raw_scalar = std::min(raw_scalar, now_seconds_since(start));
        start = std::chrono::steady_clock::now();
        solveDesignBatch(std::span<const DesignInputs>(flat_grid),
                         std::span<DesignResult>(flat_out));
        raw_batch = std::min(raw_batch, now_seconds_since(start));
    }
    const double raw_scalar_pps =
        static_cast<double>(flat_grid.size()) / raw_scalar;
    const double raw_batch_pps =
        static_cast<double>(flat_grid.size()) / raw_batch;
    std::printf("raw kernel (no cache)   scalar %9.0f points/s   "
                "batch %9.0f points/s   speedup %.2fx\n",
                raw_scalar_pps, raw_batch_pps, raw_scalar / raw_batch);
    json += ", \"batch_vs_scalar\": {\"cold_cache\": true";
    json += ", \"reps\": " + std::to_string(cold_reps);
    json += ", \"raw_kernel\": {\"scalar_points_per_second\": " +
            num(raw_scalar_pps);
    json += ", \"batch_points_per_second\": " + num(raw_batch_pps);
    json += ", \"batch_speedup\": " + num(raw_scalar / raw_batch) +
            "}}";

    // Tracer overhead: cold sweeps of the 34,080-point reference grid
    // (three per rep, each on a fresh engine so every point is a real
    // solve), tracer runtime-off and runtime-on reps interleaved so
    // slow and fast periods of the host hit both sides.  The overhead
    // is the median of the per-pair on/off ratios; each side's median
    // wall time is reported too.  The Fig 10 grids above are too
    // small (a few ms) for a 3% budget to sit above the noise.  The compiled-out configuration
    // (-DDRONEDSE_TRACING=OFF) is proven by the CI `obs` job; a
    // single binary can only compare runtime states.
    constexpr int kOverheadReps = 15;
    constexpr int kSweepsPerRep = 3;
    constexpr int kOverheadThreads = 4;
    const std::vector<SweepSpec> reference = referenceGrids();
    std::size_t reference_points = 0;
    for (const auto &spec : reference)
        reference_points += spec.pointCount();
    const auto cold_sweep_seconds = [&reference] {
        const auto start = std::chrono::steady_clock::now();
        for (int sweep = 0; sweep < kSweepsPerRep; ++sweep) {
            engine::SweepEngine eng{
                engine::EngineOptions{.threads = kOverheadThreads}};
            for (const auto &spec : reference)
                eng.run(spec);
        }
        return now_seconds_since(start);
    };
    std::vector<double> off_reps, on_reps, ratios;
    std::size_t spans_recorded = 0;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
        obs::tracer().setEnabled(false);
        off_reps.push_back(cold_sweep_seconds());
        obs::tracer().setEnabled(true);
        obs::tracer().clear();
        on_reps.push_back(cold_sweep_seconds());
        spans_recorded = obs::tracer().snapshot().size();
        ratios.push_back(on_reps.back() / off_reps.back());
    }
    obs::tracer().setEnabled(false);
    obs::tracer().clear();
    const double off_seconds = median(off_reps);
    const double on_seconds = median(on_reps);
    const double overhead_pct = 100.0 * (median(ratios) - 1.0);
    const bool compiled_in = DRONEDSE_TRACING != 0;
    std::printf("\ntracer overhead (%zu-point reference grid x %d, %d "
                "thr, %d interleaved pairs): median off %.3f s, on "
                "%.3f s; median pair ratio -> %+.2f%% (%zu spans, "
                "budget <3%%)\n",
                reference_points, kSweepsPerRep, kOverheadThreads,
                kOverheadReps, off_seconds, on_seconds, overhead_pct,
                spans_recorded);

    json += ", \"tracing\": {\"compiled_in\": ";
    json += compiled_in ? "true" : "false";
    json += ", \"grid_points\": " + std::to_string(reference_points);
    json += ", \"threads\": " + std::to_string(kOverheadThreads);
    json += ", \"sweeps_per_rep\": " + std::to_string(kSweepsPerRep);
    json += ", \"reps\": " + std::to_string(kOverheadReps);
    json += ", \"disabled_wall_seconds\": " + num(off_seconds);
    json += ", \"enabled_wall_seconds\": " + num(on_seconds);
    json += ", \"overhead_pct\": " + num(overhead_pct);
    json += ", \"spans_recorded\": " + std::to_string(spans_recorded);
    json += ", \"budget_pct\": 3}";
    json += "}\n";

    std::ofstream out(out_path);
    if (!out)
        fatal("sweep_throughput: cannot write " + out_path);
    out << json;
    out.close();
    std::printf("\nWrote %s\n", out_path.c_str());
    return 0;
}

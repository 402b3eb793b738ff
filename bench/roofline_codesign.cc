/**
 * @file
 * Roofline calibration and co-design search benchmark.
 *
 * Emits `BENCH_roofline.json` — calibration wall time plus search
 * throughput (compute configurations closed per second) at 1/2/4/8
 * engine threads over the paper mission catalog — and two
 * figure-family CSVs:
 *
 *   roofline_boards.csv  per-board roofline plot data (peak,
 *                        bandwidth, ridge, and the five phase
 *                        points with attainable/measured/gap)
 *   codesign_table5.csv  recommended-board-vs-mission table (the
 *                        derived Table 5)
 *
 * Usage: roofline_codesign [--output PATH] [--csv-dir DIR]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "codesign/codesign.hh"
#include "engine/engine.hh"
#include "slam/pipeline.hh"
#include "util/csv.hh"
#include "util/logging.hh"

using namespace dronedse;
using namespace dronedse::codesign;

namespace {

double
now_seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
}

void
writeRooflineCsv(const RooflineModel &model, const std::string &path)
{
    CsvWriter csv({"platform", "peak_ops_per_sec",
                   "bandwidth_bytes_per_sec", "ridge_ops_per_byte",
                   "phase", "intensity_ops_per_byte",
                   "attainable_ops_per_sec", "measured_ops_per_sec",
                   "memory_bound", "gap"});
    for (std::size_t p = 0;
         p < static_cast<std::size_t>(PlatformKind::NumPlatforms);
         ++p) {
        const auto kind = static_cast<PlatformKind>(p);
        const RooflineSpec &roof = model.roofline(kind);
        for (const PhaseRooflineReport &row : model.report(kind)) {
            csv.addRow({platformSpec(kind).name,
                        num(roof.peakOpsPerSec),
                        num(roof.bandwidthBytesPerSec),
                        num(roof.ridgeOpsPerByte()),
                        slamPhaseName(row.phase),
                        num(row.intensityOpsPerByte),
                        num(row.attainableOpsPerSec),
                        num(row.measuredOpsPerSec),
                        row.memoryBound ? "1" : "0",
                        num(row.gap)});
        }
    }
    csv.write(path);
}

void
writeTable5Csv(const std::vector<CodesignOutcome> &outcomes,
               const std::string &path)
{
    CsvWriter csv({"mission", "target_rate_hz", "recommended_board",
                   "platform", "split", "flight_time_min",
                   "total_weight_g", "avg_power_w", "wheelbase_mm",
                   "cells", "capacity_mah"});
    for (const CodesignOutcome &outcome : outcomes) {
        const CodesignChoice &rec = outcome.recommended;
        if (!rec.feasible) {
            csv.addRow({outcome.mission.name,
                        num(outcome.mission.targetRateHz),
                        "infeasible", "", "", "", "", "", "", "",
                        ""});
            continue;
        }
        csv.addRow(
            {outcome.mission.name,
             num(outcome.mission.targetRateHz),
             rec.config.boardName,
             platformSpec(rec.config.platform).name,
             offloadSplitName(rec.config.split),
             num(rec.design.flightTimeMin.value()),
             num(rec.design.totalWeightG.value()),
             num(rec.design.avgPowerW.value()),
             num(rec.design.inputs.wheelbaseMm.value()),
             std::to_string(rec.design.inputs.cells),
             num(rec.design.inputs.capacityMah.value())});
    }
    csv.write(path);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_roofline.json";
    std::string csv_dir = ".";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--csv-dir") == 0 &&
                   i + 1 < argc) {
            csv_dir = argv[++i];
        } else {
            fatal(std::string("roofline_codesign: unknown argument "
                              "'") +
                  argv[i] + "' (usage: roofline_codesign "
                            "[--output PATH] [--csv-dir DIR])");
        }
    }

    std::printf("=== Roofline calibration + co-design search ===\n"
                "\n");

    // Calibration cost: a fresh model runs seven trace-driven
    // characterization kernels (1e6 events each).
    const auto cal_start = std::chrono::steady_clock::now();
    const RooflineModel model;
    const double cal_seconds = now_seconds_since(cal_start);
    std::printf("calibration      %8.3f s  (7 kernels x 1e6 "
                "events)\n",
                cal_seconds);

    const std::vector<MissionSpec> catalog = paperMissionCatalog();

    std::string json = "{\"bench\": \"roofline_codesign\"";
    json += ", \"calibration_seconds\": " + num(cal_seconds);
    json += ", \"missions\": " + std::to_string(catalog.size());
    json += ", \"search\": [";

    std::vector<CodesignOutcome> outcomes;
    bool first = true;
    for (const int threads : {1, 2, 4, 8}) {
        engine::SweepEngine engine{
            engine::EngineOptions{.threads = threads}};
        const CodesignDriver driver{engine, model};

        const auto start = std::chrono::steady_clock::now();
        std::size_t configs = 0;
        std::size_t grid_points = 0;
        std::vector<CodesignOutcome> pass;
        for (const MissionSpec &mission : catalog) {
            CodesignOutcome outcome = driver.run(mission);
            configs += outcome.configCount;
            grid_points += outcome.gridPoints;
            pass.push_back(std::move(outcome));
        }
        const double seconds = now_seconds_since(start);
        const double configs_per_second =
            static_cast<double>(configs) / seconds;
        std::printf("search @%d thr    %8.3f s   %7.1f configs/s "
                    "(%zu configs, %zu grid points)\n",
                    threads, seconds, configs_per_second, configs,
                    grid_points);

        if (!first)
            json += ", ";
        first = false;
        json += "{\"threads\": " + std::to_string(threads);
        json += ", \"wall_seconds\": " + num(seconds);
        json += ", \"configs\": " + std::to_string(configs);
        json += ", \"grid_points\": " + std::to_string(grid_points);
        json += ", \"configs_per_second\": " +
                num(configs_per_second) + "}";

        if (outcomes.empty())
            outcomes = std::move(pass);
    }
    json += "]}";

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out)
        fatal("roofline_codesign: cannot open '" + out_path + "'");
    std::fprintf(out, "%s\n", json.c_str());
    std::fclose(out);

    writeRooflineCsv(model, csv_dir + "/roofline_boards.csv");
    writeTable5Csv(outcomes, csv_dir + "/codesign_table5.csv");

    std::printf("\nwrote %s, %s/roofline_boards.csv, "
                "%s/codesign_table5.csv\n",
                out_path.c_str(), csv_dir.c_str(),
                csv_dir.c_str());
    for (const CodesignOutcome &outcome : outcomes) {
        if (outcome.recommended.feasible) {
            std::printf("  %-18s -> %s\n",
                        outcome.mission.name.c_str(),
                        outcome.recommended.config.boardName
                            .c_str());
        }
    }
    return 0;
}

/**
 * @file
 * The three workloads (sweep_cold, serve_interactive, serve_analysis),
 * the probe that gives every workload a value for every end-to-end
 * metric, and the layer probe of the traced run (see NOTES.md).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench {

/** Known-bad self-tests: each must make the run's checks fail. */
enum class Inject
{
    None,
    /** Drop one index from a computed frontier before checking it. */
    DropFrontier,
    /** Flip one byte of one precomputed expected reply. */
    FlipOracle,
    /** Configure admission so that requests are refused. */
    Refuse,
};

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Inject inject = Inject::None;
};

/** Operations attempted and failed, with the first few failures. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
    }

    void merge(const Tally &other)
    {
        attempted += other.attempted;
        failed += other.failed;
        for (const std::string &e : other.errors) {
            if (errors.size() < 8)
                errors.push_back(e);
        }
    }
};

struct RunResult
{
    Tally tally;
    /** Digest of every generated input of the workload. */
    std::uint64_t inputsHash = 0;
    /** End-to-end metric values (untraced meaning; see NOTES.md). */
    std::map<std::string, double> endToEnd;
    /** Per-layer metric values (traced run only). */
    std::map<std::string, double> perLayer;
    /** Spans of the traced run. */
    std::vector<Span> spans;
};

bool isWorkload(const std::string &name);

RunResult runWorkload(const RunConfig &config);

/**
 * Service set-up of a fresh process: the first `RooflineModel::shared`
 * call (roofline calibration) plus `serve::Service` construction.
 */
double measureServiceSetup();

/** Digest of the workload's generated inputs for `seed`. */
std::uint64_t inputsHash(const std::string &workload, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

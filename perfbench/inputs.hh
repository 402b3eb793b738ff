/**
 * @file
 * Seeded input generation for the three workloads and the probe.  Everything the library receives is built here from the
 * `--seed` argument alone; `inputsHash` digests the generated inputs
 * so two runs can show they saw byte-identical inputs.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dse/sweep.hh"
#include "explore/space.hh"
#include "serve/request.hh"

namespace perfbench {

using dronedse::DesignInputs;
using dronedse::SweepSpec;
using dronedse::serve::Request;

/** Memo-cache cap of every engine the benchmark builds. */
inline constexpr std::size_t kCacheCapacity = 65536;

/** Grid points of one reference-space variant (4 TWR x 8,520). */
inline constexpr std::size_t kVariantPoints = 34080;

/**
 * One variant of the 450 mm reference space (all boards x 2
 * activities x cells 1-6 x 71 capacities x TWR {1.5, 2, 2.5, 3}):
 * same shape, shifted payload and capacity grid, so no two variants
 * share a grid point.
 */
struct Variant
{
    double payloadG = 0.0;
    double capacityOffsetMah = 0.0;
};

/**
 * Variant `i` of stream `stream` of `seed`.  Payloads follow a
 * golden-ratio sequence with a seeded phase, so any prefix of the
 * sequence covers the payload range evenly whatever the seed.
 */
Variant variantAt(std::uint64_t seed, std::uint64_t stream,
                  std::size_t i);

/** Variant stream of sweep_cold (and of the layer probe's variant). */
inline constexpr std::uint64_t kSweepStream = 10;
/** Variant stream of the analysis mix's explore queries. */
inline constexpr std::uint64_t kExploreStream = 2;

/** The variant as four `SweepSpec`s, one per TWR value. */
std::vector<SweepSpec> variantSpecs(const Variant &v);

/** The same variant as an explore space (for `explore` queries). */
dronedse::explore::ExploreSpace variantSpace(const Variant &v);

/** Canonical design request frame (what a client would send). */
std::string designFrame(std::uint64_t id, const DesignInputs &point);

/** Request id of hot-pool entry `k` and cold-stream entry `j`. */
inline std::uint64_t
hotId(std::size_t k)
{
    return 1 + k;
}
inline std::uint64_t
coldId(std::uint32_t client, std::size_t j)
{
    return 1000000ull * (client + 1) + j;
}

/** Shared part of the interactive design traffic. */
struct DesignPool
{
    /** Hot points (Zipf-ranked: entry 0 is the most popular). */
    std::vector<DesignInputs> hot;
    std::vector<std::string> hotFrames;
};

/** Schedule entry meaning "the client's next cold point". */
inline constexpr std::uint32_t kCold = 0xFFFFFFFFu;

/** One client's request sequence (cycled when it runs out). */
struct ClientPlan
{
    /** Hot-pool index per request, or `kCold`. */
    std::vector<std::uint32_t> schedule;
    /** This client's cold stream, consumed in order. */
    std::vector<DesignInputs> cold;
};

inline constexpr std::size_t kHotPoolSize = 4096;
/** Share of requests drawn from the cold stream. */
inline constexpr double kColdShare = 0.10;
/**
 * Cold points per client: a cold point recurs only after this many
 * cold requests of its client, by which time at least this many
 * inserts have pushed it out of a `kCacheCapacity` FIFO cache.
 */
inline constexpr std::size_t kColdPerClient = 65536;

DesignPool makeDesignPool(std::uint64_t seed);
ClientPlan makeClientPlan(std::uint64_t seed, std::uint32_t client,
                          std::size_t schedule_length,
                          std::size_t cold_count);

/**
 * Points that fill a fresh engine's cache before timing: off the
 * hot/cold lattice (quarter-gram payloads), so none of them is ever
 * requested.
 */
std::vector<DesignInputs> fillPoints(std::uint64_t seed,
                                     std::size_t count);

/**
 * Codesign queries per analysis cycle: each costs well under a
 * millisecond, so a cycle carries several to give their per-kind
 * median a sample size that does not hinge on a few missions.
 */
inline constexpr std::size_t kCodesignPerCycle = 16;

/**
 * `cycles` cycles of the batch-class mix, every query distinct: cycle
 * i is pareto i, explore i, risk i, then `kCodesignPerCycle` codesign
 * queries.  Walking the vector cyclically is the workload's fixed mix.
 */
std::vector<Request> makeAnalysisPool(std::uint64_t seed,
                                      std::size_t cycles);

/** FNV-1a digest of canonical serializations of `requests`. */
std::uint64_t hashRequests(const std::vector<Request> &requests,
                           std::uint64_t h);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH

/**
 * @file
 * SweepEngine: the batch query API over the DSE model.
 *
 * Submit a `SweepSpec` (axis ranges, see dse/sweep.hh), get back a
 * `SweepResult`: every grid point solved, the feasible envelope, and
 * the exact Pareto frontier of flight time vs compute capability vs
 * all-up weight, plus a `SweepStats` instrumentation record.
 *
 * Every sweep and point list is solved one way: each work chunk goes
 * to the memo cache whole, and its misses ride the SoA batch kernel
 * (`solveDesignBatch`) together.  The scalar `solveDesign` is the
 * oracle the tests hold the engine to, and the single-point `solve`.
 *
 * Determinism contract: `run(spec).points` is element-wise identical
 * to `runSweepSerial(spec)` at any thread count.  This holds because
 * (1) both paths expand the identical `expandGrid` point sequence,
 * (2) each worker writes its result into the slot indexed by grid
 * position, (3) the kernel is byte-identical to `solveDesign` and
 * blocking-invariant, so chunk boundaries do not matter, and
 * (4) `solveDesign` is a pure function of its inputs, so a memo hit
 * returns exactly what a fresh solve would.
 */

#ifndef DRONEDSE_ENGINE_ENGINE_HH
#define DRONEDSE_ENGINE_ENGINE_HH

#include <cstddef>
#include <span>
#include <vector>

#include "dse/sweep.hh"
#include "engine/memo_cache.hh"
#include "engine/stats.hh"
#include "engine/thread_pool.hh"
#include "util/thread_annotations.hh"

namespace dronedse::engine {

/** Tuning knobs of one engine instance. */
struct EngineOptions
{
    /** Worker count, caller included; 0 = hardware concurrency. */
    int threads = 0;
    /** Total memo-cache entries across shards. */
    std::size_t cacheCapacity = 1 << 20;
    /** Grid indices per work chunk; 0 = ~4 chunks per worker. */
    std::size_t chunkSize = 0;
};

/** Everything `run` produces for one spec. */
struct SweepResult
{
    /** One solved result per grid point, in `expandGrid` order. */
    std::vector<DesignResult> points;
    /** Indices into `points` of the feasible envelope, ascending. */
    std::vector<std::size_t> feasible;
    /** Indices into `points` of the Pareto frontier, ascending. */
    std::vector<std::size_t> frontier;
    /** Throughput / cache / utilization record of this run. */
    SweepStats stats;

    /** The feasible results only, in grid order (the serial
     *  `sweepCapacity` contract). */
    std::vector<DesignResult> feasibleSeries() const;
};

/**
 * The engine: a work-stealing pool plus a memo cache, reusable
 * across many sweeps.  The cache persists between `run` calls, so
 * overlapping specs (the Figure 10 panels re-reading each battery
 * family per weight bucket) pay for each distinct point once.
 *
 * Thread-safe for concurrent `solve` calls.  Concurrent `run`
 * calls are safe too: they serialize on an internal mutex (one
 * sweep at a time per engine), which is the batching hook the
 * serve layer leans on — server workers submit whole coalesced
 * batches from many threads and the engine orders them while the
 * shared memo cache deduplicates their overlapping points.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(EngineOptions options = {});

    /** Solve a whole spec; see the determinism contract above. */
    SweepResult run(const SweepSpec &spec) DDSE_EXCLUDES(runMutex_);

    /** Memoized single-point solve through the engine's cache. */
    DesignResult solve(const DesignInputs &inputs);

    /**
     * Batched solve of an explicit point list (no grid expansion,
     * no frontier pass): `out[i] == solve(points[i])` element-wise,
     * at any thread count.  This is the adaptive explorer's inner
     * loop — each refinement round hands the engine whatever point
     * set it decided to evaluate and the memo cache deduplicates
     * re-visits across rounds and queries.
     */
    std::vector<DesignResult>
    solvePoints(std::span<const DesignInputs> points)
        DDSE_EXCLUDES(runMutex_);

    /**
     * Engine-backed best configuration of a size class: max flight
     * time over cells {1..6} x capacity within the practical
     * envelope.  Identical scan order (and therefore identical
     * tie-breaking) to the serial `bestConfiguration`.
     */
    DesignResult bestConfiguration(
        const SizeClassSpec &spec, const ComputeBoardRecord &compute,
        Quantity<MilliampHours> step = Quantity<MilliampHours>(250.0),
        double twr = 2.0) DDSE_EXCLUDES(runMutex_);

    int threadCount() const { return pool_.threadCount(); }

    /** Lifetime cache counters (across all runs of this engine). */
    CacheCounters cacheCounters() const { return cache_.counters(); }

    /**
     * Drop every memoized entry (lifetime counters are kept).  The
     * cold-cache bench modes reset with this between passes so they
     * measure raw solves, not cache hits.
     */
    void clearCache() { cache_.clear(); }

    /**
     * Stats of the most recent `run`, as one consistent copy taken
     * under the run mutex (a concurrent `run` may be rewriting the
     * stats while a caller reads them).
     */
    SweepStats lastRunStats() const DDSE_EXCLUDES(runMutex_)
    {
        util::MutexLock lock(runMutex_);
        return lastStats_;
    }

  private:
    /** Solve `inputs` into `results` on the pool, chunk by chunk. */
    void solveChunks(std::span<const DesignInputs> inputs,
                     std::span<DesignResult> results)
        DDSE_REQUIRES(runMutex_);

    EngineOptions options_;
    ThreadPool pool_;
    MemoCache cache_;
    /** Serializes `run` (and `lastStats_` updates) across callers. */
    mutable util::Mutex runMutex_;
    SweepStats lastStats_ DDSE_GUARDED_BY(runMutex_);
};

/**
 * Process-wide shared engine (lazy, thread-safe construction) used
 * by the `core` facade so repeated `DroneDesigner` reports and
 * figure benches share one memo cache.
 */
SweepEngine &sharedEngine();

/**
 * The best-configuration scan as a free function over an already
 * solved point list: index of the feasible result with the maximum
 * flight time, optionally restricted to a size class's practical
 * envelope.  Scan order is input order and only a *strictly*
 * greater flight time displaces the incumbent, so running it over
 * an `expandGrid` sequence reproduces the serial search's
 * tie-breaking exactly.  Returns `points.size()` when nothing
 * qualifies.
 */
std::size_t
bestFeasibleIndex(std::span<const DesignResult> points,
                  const SizeClassSpec *practical = nullptr);

} // namespace dronedse::engine

#endif // DRONEDSE_ENGINE_ENGINE_HH

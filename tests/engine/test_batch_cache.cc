/**
 * @file
 * Batch path through the engine layer: `MemoCache::solveBatch`
 * counter reconciliation (hits + misses advance by exactly the batch
 * size, duplicates of a missed key score as replayed hits) and
 * `SweepEngine` sweeps byte-identical to the serial `solveDesign`
 * oracle at every thread count.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "components/compute_board.hh"
#include "engine/engine.hh"
#include "engine/memo_cache.hh"
#include "engine/pareto.hh"

#include "../dse/batch_test_util.hh"

using namespace dronedse;
using namespace dronedse::engine;
using namespace dronedse::unit_literals;
using batch_test::expectByteIdentical;

namespace {

std::vector<DesignInputs>
smallGrid()
{
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium),
                                    {2, 4}, 500.0_mah, basicChip3W());
    return expandGrid(spec);
}

std::vector<DesignResult>
solveBatchThrough(MemoCache &cache,
                  const std::vector<DesignInputs> &inputs)
{
    std::vector<DesignResult> results(inputs.size());
    cache.solveBatch(std::span<const DesignInputs>(inputs),
                     std::span<DesignResult>(results));
    return results;
}

} // namespace

TEST(BatchCache, ColdBatchIsAllMisses)
{
    MemoCache cache;
    const std::vector<DesignInputs> grid = smallGrid();
    const std::vector<DesignResult> batch =
        solveBatchThrough(cache, grid);

    const CacheCounters after = cache.counters();
    EXPECT_EQ(after.hits, 0u);
    EXPECT_EQ(after.misses, grid.size());
    EXPECT_EQ(after.hits + after.misses, grid.size());
    EXPECT_EQ(cache.size(), grid.size());

    // And the results must be what the memoized scalar path returns.
    MemoCache reference;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(reference.solve(grid[i]), batch[i]);
    }
}

TEST(BatchCache, WarmBatchIsAllHits)
{
    MemoCache cache;
    const std::vector<DesignInputs> grid = smallGrid();
    const std::vector<DesignResult> cold =
        solveBatchThrough(cache, grid);
    const std::vector<DesignResult> warm =
        solveBatchThrough(cache, grid);

    const CacheCounters after = cache.counters();
    EXPECT_EQ(after.hits, grid.size());
    EXPECT_EQ(after.misses, grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(cold[i], warm[i]);
    }
}

TEST(BatchCache, IntraBatchDuplicatesScoreAsReplayedHits)
{
    // Tripled grid in one batch: the unique keys miss once each, and
    // every repeat scores the hit it would have scored sequentially
    // against the fresh insert — hits + misses == batch size, exactly
    // as if each point had gone through `solve` one at a time.
    const std::vector<DesignInputs> grid = smallGrid();
    std::vector<DesignInputs> tripled;
    for (int rep = 0; rep < 3; ++rep)
        tripled.insert(tripled.end(), grid.begin(), grid.end());

    MemoCache cache;
    const std::vector<DesignResult> batch =
        solveBatchThrough(cache, tripled);
    const CacheCounters after = cache.counters();
    EXPECT_EQ(after.misses, grid.size());
    EXPECT_EQ(after.hits, 2 * grid.size());
    EXPECT_EQ(after.hits + after.misses, tripled.size());
    EXPECT_EQ(cache.size(), grid.size());

    // A sequential replay of the same stream lands the same counters.
    MemoCache sequential;
    for (const DesignInputs &in : tripled)
        sequential.solve(in);
    const CacheCounters seq = sequential.counters();
    EXPECT_EQ(after.hits, seq.hits);
    EXPECT_EQ(after.misses, seq.misses);
    EXPECT_EQ(after.evictions, seq.evictions);

    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(batch[i], batch[i + grid.size()]);
        expectByteIdentical(batch[i], batch[i + 2 * grid.size()]);
    }
}

TEST(BatchCache, EmptyBatchTouchesNothing)
{
    MemoCache cache;
    std::vector<DesignInputs> none;
    std::vector<DesignResult> out;
    cache.solveBatch(std::span<const DesignInputs>(none),
                     std::span<DesignResult>(out));
    const CacheCounters after = cache.counters();
    EXPECT_EQ(after.hits + after.misses, 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(BatchCache, CountersAdvanceByBatchSizeAcrossMixedStreams)
{
    // Interleave batch and scalar calls over overlapping point sets;
    // the invariant `hits + misses == points submitted` must hold at
    // every step regardless of which path served each point.
    MemoCache cache;
    const std::vector<DesignInputs> grid = smallGrid();
    std::uint64_t submitted = 0;

    const std::vector<DesignInputs> front(grid.begin(),
                                          grid.begin() + 5);
    solveBatchThrough(cache, front);
    submitted += front.size();

    for (std::size_t i = 0; i < 8 && i < grid.size(); ++i) {
        cache.solve(grid[i]);
        ++submitted;
    }

    solveBatchThrough(cache, grid);
    submitted += grid.size();

    const CacheCounters after = cache.counters();
    EXPECT_EQ(after.hits + after.misses, submitted);
}

TEST(BatchEngine, BatchAndScalarEnginesAreByteIdentical)
{
    // The engine's batch path against the scalar serial oracle: every
    // point byte for byte, and the feasible and frontier index lists
    // the oracle's points imply.
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium),
                                    {1, 2, 3, 4, 5, 6}, 250.0_mah,
                                    basicChip3W());
    const std::vector<DesignResult> oracle = runSweepSerial(spec);
    std::vector<std::size_t> oracle_feasible;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        if (oracle[i].feasible)
            oracle_feasible.push_back(i);
    }
    const std::vector<std::size_t> oracle_frontier =
        paretoFrontier(oracle);
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        SweepEngine engine{EngineOptions{.threads = threads}};
        const SweepResult run = engine.run(spec);

        ASSERT_EQ(run.points.size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i) {
            SCOPED_TRACE("index " + std::to_string(i));
            expectByteIdentical(oracle[i], run.points[i]);
        }
        EXPECT_EQ(run.feasible, oracle_feasible);
        EXPECT_EQ(run.frontier, oracle_frontier);

        // The counters account for every grid point.
        const SweepStats &stats = run.stats;
        EXPECT_EQ(stats.cache.hits + stats.cache.misses,
                  stats.gridPoints);
    }
}

TEST(BatchEngine, ThreadCountsAgreeBitwiseOnTheBatchPath)
{
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Small),
                                    {1, 2, 3, 4}, 200.0_mah,
                                    advancedChip20W());
    SweepEngine reference{EngineOptions{.threads = 1}};
    const SweepResult base = reference.run(spec);
    for (int threads : {2, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        SweepEngine engine{EngineOptions{.threads = threads}};
        const SweepResult run = engine.run(spec);
        ASSERT_EQ(run.points.size(), base.points.size());
        for (std::size_t i = 0; i < run.points.size(); ++i) {
            SCOPED_TRACE("index " + std::to_string(i));
            expectByteIdentical(base.points[i], run.points[i]);
        }
    }
}

TEST(BatchEngine, ClearCacheForcesResolve)
{
    SweepSpec spec = classSweepSpec(classSpec(SizeClass::Medium), {4},
                                    500.0_mah, basicChip3W());
    SweepEngine engine{EngineOptions{.threads = 1}};
    const SweepResult first = engine.run(spec);
    EXPECT_EQ(first.stats.cache.hits, 0u);

    // Warm rerun: all hits.  After clearCache, all misses again —
    // that is what makes the bench's --cold series honest.
    const SweepResult warm = engine.run(spec);
    EXPECT_EQ(warm.stats.cache.misses, 0u);
    EXPECT_EQ(warm.stats.cache.hits, warm.stats.gridPoints);

    engine.clearCache();
    const SweepResult cold = engine.run(spec);
    EXPECT_EQ(cold.stats.cache.hits, 0u);
    EXPECT_EQ(cold.stats.cache.misses, cold.stats.gridPoints);
    for (std::size_t i = 0; i < first.points.size(); ++i) {
        SCOPED_TRACE("index " + std::to_string(i));
        expectByteIdentical(first.points[i], cold.points[i]);
    }
}

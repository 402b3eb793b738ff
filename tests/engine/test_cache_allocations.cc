/**
 * @file
 * Heap allocations of a cold `MemoCache::solveBatch` chunk.  This
 * binary replaces the global `operator new` with a counting one, so
 * "no per-point allocation on the cold path" is a regression check
 * rather than a claim.  It lives in its own test binary because the
 * replacement applies to the whole program.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "components/compute_board.hh"
#include "engine/memo_cache.hh"

namespace {

std::atomic<std::size_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dronedse {
namespace {

using engine::MemoCache;

/** `n` distinct design points (board x cells x capacity). */
std::vector<DesignInputs>
coldChunk(std::size_t n, double first_mah)
{
    const auto &boards = computeBoardTable();
    std::vector<DesignInputs> points;
    points.reserve(n);
    DesignInputs in;
    for (std::size_t i = 0; i < n; ++i) {
        in.compute = boards[i % boards.size()];
        in.cells = 1 + static_cast<int>((i / boards.size()) % 6);
        in.capacityMah = Quantity<MilliampHours>(
            first_mah + static_cast<double>(i / (6 * boards.size())));
        points.push_back(in);
    }
    return points;
}

std::size_t
allocationsOfSolveBatch(MemoCache &cache,
                        const std::vector<DesignInputs> &inputs)
{
    std::vector<DesignResult> results(inputs.size());
    const std::size_t before = g_allocations.load();
    cache.solveBatch(inputs, results);
    return g_allocations.load() - before;
}

TEST(BatchCacheAllocations, ColdChunkAllocatesPerShardNotPerPoint)
{
    // A cold chunk allocates its batch scratch, and per shard its
    // index and ring storage blocks (128 slots each): a few dozen
    // allocations for thousands of points.  One allocation per
    // point, or even per 32 points, fails the bound.
    for (const std::size_t n : {1024u, 4096u}) {
        SCOPED_TRACE("chunk of " + std::to_string(n));
        const std::size_t bound = 4 * MemoCache::kShards + n / 32 + 16;
        MemoCache cache(1 << 16);
        const std::vector<DesignInputs> first = coldChunk(n, 1000.0);
        EXPECT_LE(allocationsOfSolveBatch(cache, first), bound);
        // A second cold chunk grows every shard again, still in a
        // few steps per shard.
        const std::vector<DesignInputs> second = coldChunk(n, 9000.0);
        EXPECT_LE(allocationsOfSolveBatch(cache, second), bound);
        EXPECT_EQ(cache.counters().misses, 2 * n);
        EXPECT_EQ(cache.size(), 2 * n);
    }
}

} // namespace
} // namespace dronedse

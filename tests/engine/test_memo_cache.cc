#include <gtest/gtest.h>

#include <deque>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "components/compute_board.hh"
#include "dse/weight_closure.hh"
#include "engine/memo_cache.hh"

namespace dronedse {
namespace {

using namespace unit_literals;
using engine::CacheCounters;
using engine::DesignKey;
using engine::MemoCache;
using engine::quantizeInputs;

DesignInputs
mediumInputs()
{
    DesignInputs in;
    in.wheelbaseMm = 450.0_mm;
    in.cells = 3;
    in.capacityMah = 3000.0_mah;
    return in;
}

TEST(MemoCache, HitReturnsTheExactCachedResult)
{
    MemoCache cache;
    const DesignInputs in = mediumInputs();

    const DesignResult first = cache.solve(in);
    CacheCounters counters = cache.counters();
    EXPECT_EQ(counters.hits, 0u);
    EXPECT_EQ(counters.misses, 1u);

    const DesignResult second = cache.solve(in);
    counters = cache.counters();
    EXPECT_EQ(counters.hits, 1u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(second.feasible, first.feasible);
    EXPECT_EQ(second.totalWeightG, first.totalWeightG);
    EXPECT_EQ(second.flightTimeMin, first.flightTimeMin);
    EXPECT_EQ(second.avgPowerW, first.avgPowerW);
}

TEST(MemoCache, HitBypassesTheSolverEntirely)
{
    // Plant a sentinel result under a key: a later lookup must hand
    // back that exact object, proving hits never re-solve.
    MemoCache cache;
    const DesignInputs in = mediumInputs();
    const DesignKey key = quantizeInputs(in);

    DesignResult sentinel = solveDesign(in);
    sentinel.totalWeightG = Quantity<Grams>(-12345.0);
    cache.insert(key, sentinel);

    const auto found = cache.lookup(key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->totalWeightG, Quantity<Grams>(-12345.0));
    const DesignResult solved = cache.solve(in);
    EXPECT_EQ(solved.totalWeightG, Quantity<Grams>(-12345.0));
}

TEST(MemoCache, SubQuantumJitterSharesAKey)
{
    // Inputs closer than the 1e-6 quantum are deliberately treated
    // as the same design point.
    DesignInputs a = mediumInputs();
    DesignInputs b = mediumInputs();
    b.capacityMah = a.capacityMah + Quantity<MilliampHours>(1e-8);
    EXPECT_EQ(quantizeInputs(a), quantizeInputs(b));
}

TEST(MemoCache, QuantizationNeverAliasesAcrossFeasibilityBoundary)
{
    // Bisect the capacity axis down to millimAh resolution to find
    // an adjacent feasible/infeasible pair (the battery C-rating
    // boundary), then assert the two sides quantize to different
    // keys and each side returns its own result through the cache.
    DesignInputs in = mediumInputs();
    in.cells = 6;
    const auto feasibleAt = [&in](double cap_mah) {
        DesignInputs probe = in;
        probe.capacityMah = Quantity<MilliampHours>(cap_mah);
        return solveDesign(probe).feasible;
    };
    double lo = 1.0, hi = 3000.0;
    ASSERT_FALSE(feasibleAt(lo));
    ASSERT_TRUE(feasibleAt(hi));
    while (hi - lo > 0.001) {
        const double mid = 0.5 * (lo + hi);
        (feasibleAt(mid) ? hi : lo) = mid;
    }

    DesignInputs feas = in;
    feas.capacityMah = Quantity<MilliampHours>(hi);
    DesignInputs infeas = in;
    infeas.capacityMah = Quantity<MilliampHours>(lo);
    ASSERT_NE(quantizeInputs(feas), quantizeInputs(infeas));

    MemoCache cache;
    EXPECT_TRUE(cache.solve(feas).feasible);
    EXPECT_FALSE(cache.solve(infeas).feasible);
    // Both sides cached independently; replay preserves each.
    EXPECT_TRUE(cache.solve(feas).feasible);
    EXPECT_FALSE(cache.solve(infeas).feasible);
    EXPECT_EQ(cache.counters().hits, 2u);
}

TEST(MemoCache, DistinctBoardNamesDoNotShareAnEntry)
{
    // Two boards with identical physics still differ in the echoed
    // inputs, so the cache must keep them apart.
    DesignInputs a = mediumInputs();
    a.compute = {"Board A", BoardClass::Basic, 20.0, 3.0};
    DesignInputs b = a;
    b.compute.name = "Board B";
    EXPECT_NE(quantizeInputs(a), quantizeInputs(b));

    MemoCache cache;
    EXPECT_EQ(cache.solve(a).inputs.compute.name, "Board A");
    EXPECT_EQ(cache.solve(b).inputs.compute.name, "Board B");
    EXPECT_EQ(cache.solve(a).inputs.compute.name, "Board A");
}

TEST(MemoCache, EqualHashesStillCompareWholeKeys)
{
    // Keys whose hashes collide share a shard and a probe run; a
    // lookup must still tell them apart, including after the older
    // one is evicted out from under the run.
    DesignInputs a = mediumInputs();
    DesignInputs b = mediumInputs();
    b.capacityMah = 3100.0_mah;
    DesignInputs c = mediumInputs();
    c.capacityMah = 3200.0_mah;
    const DesignKey key_a = quantizeInputs(a);
    DesignKey key_b = quantizeInputs(b);
    DesignKey key_c = quantizeInputs(c);
    key_b.hash = key_a.hash;
    key_c.hash = key_a.hash;

    MemoCache cache(MemoCache::kShards * 2);
    cache.insert(key_a, solveDesign(a));
    EXPECT_FALSE(cache.lookup(key_b).has_value());
    cache.insert(key_b, solveDesign(b));
    EXPECT_EQ(cache.lookup(key_a)->inputs.capacityMah, a.capacityMah);
    EXPECT_EQ(cache.lookup(key_b)->inputs.capacityMah, b.capacityMah);

    // A third colliding key evicts the oldest (a) from the shard.
    cache.insert(key_c, solveDesign(c));
    EXPECT_EQ(cache.counters().evictions, 1u);
    EXPECT_FALSE(cache.lookup(key_a).has_value());
    EXPECT_EQ(cache.lookup(key_b)->inputs.capacityMah, b.capacityMah);
    EXPECT_EQ(cache.lookup(key_c)->inputs.capacityMah, c.capacityMah);
}

TEST(MemoCache, EvictsOldestWhenOverCapacity)
{
    // Tiny cache: one entry per shard.
    MemoCache cache(MemoCache::kShards);
    DesignInputs in = mediumInputs();
    for (int i = 0; i < 100; ++i) {
        in.capacityMah = Quantity<MilliampHours>(1000.0 + 10.0 * i);
        cache.solve(in);
    }
    EXPECT_LE(cache.size(), MemoCache::kShards);
    const CacheCounters counters = cache.counters();
    EXPECT_EQ(counters.misses, 100u);
    EXPECT_GT(counters.evictions, 0u);
}

TEST(MemoCache, ConcurrentSolvesAccountEveryCall)
{
    MemoCache cache;
    constexpr int kThreads = 8;
    constexpr int kCallsPerThread = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache] {
            DesignInputs in = mediumInputs();
            for (int i = 0; i < kCallsPerThread; ++i) {
                // 20 distinct points, hammered from every thread.
                in.capacityMah =
                    Quantity<MilliampHours>(2000.0 + 100.0 * (i % 20));
                const DesignResult res = cache.solve(in);
                ASSERT_TRUE(res.feasible);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    const CacheCounters counters = cache.counters();
    EXPECT_EQ(counters.hits + counters.misses,
              static_cast<std::uint64_t>(kThreads) * kCallsPerThread);
    EXPECT_GE(counters.hits,
              static_cast<std::uint64_t>(kThreads) * kCallsPerThread -
                  8 * 20);
}

TEST(MemoCache, EvictionStressReconcilesAndReSolvesIdentically)
{
    // Small capacity + more distinct keys than slots + 8 threads:
    // constant eviction under contention (run under TSan in CI).
    MemoCache cache(MemoCache::kShards * 2);
    const std::uint64_t capacity = MemoCache::kShards * 2;

    // Solve one probe point first and snapshot its result; by the
    // end of the stress it will have been evicted and must re-solve
    // to the bitwise-identical answer.
    DesignInputs probe = mediumInputs();
    probe.capacityMah = Quantity<MilliampHours>(1234.0);
    const DesignResult first = cache.solve(probe);

    constexpr int kThreads = 8;
    constexpr int kCallsPerThread = 400;
    constexpr int kDistinctPoints = 160;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            DesignInputs in = mediumInputs();
            for (int i = 0; i < kCallsPerThread; ++i) {
                const int point = (i + 37 * t) % kDistinctPoints;
                in.capacityMah = Quantity<MilliampHours>(
                    2000.0 + 10.0 * point);
                cache.solve(in);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    // Counters reconcile exactly even while evicting.
    const CacheCounters counters = cache.counters();
    EXPECT_EQ(counters.hits + counters.misses,
              static_cast<std::uint64_t>(kThreads) * kCallsPerThread +
                  1u);
    EXPECT_GT(counters.evictions, 0u);
    EXPECT_LE(cache.size(), capacity);
    // Every resident entry and every eviction came from a miss that
    // inserted (concurrent duplicate inserts are no-ops).
    EXPECT_LE(cache.size() + counters.evictions, counters.misses);

    // Flood with fresh keys until the probe's shard has evicted it,
    // then re-solve: the evicted key must come back as a miss with
    // the exact result.
    DesignInputs flood = mediumInputs();
    for (int i = 0; i < 4096; ++i) {
        if (!cache.lookup(quantizeInputs(probe)).has_value())
            break;
        flood.capacityMah =
            Quantity<MilliampHours>(9000.0 + 10.0 * i);
        cache.solve(flood);
    }
    ASSERT_FALSE(cache.lookup(quantizeInputs(probe)).has_value());

    const std::uint64_t misses_before = cache.counters().misses;
    const DesignResult again = cache.solve(probe);
    EXPECT_EQ(cache.counters().misses, misses_before + 1);
    EXPECT_EQ(again.feasible, first.feasible);
    EXPECT_EQ(again.totalWeightG, first.totalWeightG);
    EXPECT_EQ(again.flightTimeMin, first.flightTimeMin);
    EXPECT_EQ(again.avgPowerW, first.avgPowerW);
    EXPECT_EQ(again.computePowerW, first.computePowerW);
}

// The cache, the batch kernel and the engine copy these by value;
// none of them may own heap memory.
static_assert(std::is_trivially_copyable_v<DesignInputs>);
static_assert(std::is_trivially_copyable_v<DesignResult>);
static_assert(std::is_trivially_copyable_v<DesignKey>);

/**
 * Reference model of the cache's eviction policy: one FIFO of keys
 * per shard, capped at the per-shard capacity; re-inserting a
 * resident key changes nothing.
 */
class FifoModel
{
  public:
    explicit FifoModel(std::size_t shard_capacity)
        : capacity_(shard_capacity), shards_(MemoCache::kShards)
    {
    }

    void insert(const DesignKey &key)
    {
        std::deque<DesignKey> &fifo = shards_[MemoCache::shardOf(key.hash)];
        for (const DesignKey &resident : fifo) {
            if (resident == key)
                return;
        }
        fifo.push_back(key);
        if (fifo.size() > capacity_) {
            fifo.pop_front();
            ++evictions_;
        }
    }

    bool holds(const DesignKey &key) const
    {
        for (const DesignKey &resident :
             shards_[MemoCache::shardOf(key.hash)]) {
            if (resident == key)
                return true;
        }
        return false;
    }

    std::size_t size() const
    {
        std::size_t total = 0;
        for (const auto &fifo : shards_)
            total += fifo.size();
        return total;
    }

    std::uint64_t evictions() const { return evictions_; }

    void clear()
    {
        for (auto &fifo : shards_)
            fifo.clear();
    }

  private:
    std::size_t capacity_;
    std::vector<std::deque<DesignKey>> shards_;
    std::uint64_t evictions_ = 0;
};

/** `count` distinct points, one per capacity step. */
std::vector<DesignInputs>
distinctPoints(std::size_t count, double first_mah)
{
    std::vector<DesignInputs> points;
    DesignInputs in = mediumInputs();
    for (std::size_t i = 0; i < count; ++i) {
        in.capacityMah = Quantity<MilliampHours>(
            first_mah + 10.0 * static_cast<double>(i));
        points.push_back(in);
    }
    return points;
}

/**
 * Check residency against the model key by key.  Each probe is a
 * counted lookup, so the expected counter movement is returned.
 */
void
expectMatchesModel(MemoCache &cache, const FifoModel &model,
                   const std::vector<DesignInputs> &points)
{
    ASSERT_EQ(cache.size(), model.size());
    for (const DesignInputs &in : points) {
        const DesignKey key = quantizeInputs(in);
        const auto found = cache.lookup(key);
        ASSERT_EQ(found.has_value(), model.holds(key))
            << "capacity " << in.capacityMah.value();
        if (found) {
            EXPECT_EQ(found->inputs.capacityMah, in.capacityMah);
            EXPECT_EQ(found->totalWeightG, solveDesign(in).totalWeightG);
        }
    }
}

TEST(MemoCache, RingWrapsKeepFifoOrderAndCounters)
{
    // Four entries per shard and ~25 distinct keys per shard: every
    // shard's ring wraps several times.  Scalar and batch inserts
    // are interleaved, and resident keys are re-inserted (a no-op
    // that must not refresh their age).
    constexpr std::size_t kPerShard = 4;
    MemoCache cache(MemoCache::kShards * kPerShard);
    FifoModel model(kPerShard);
    const std::vector<DesignInputs> points = distinctPoints(400, 1000.0);

    std::uint64_t misses = 0, hits = 0;
    for (std::size_t begin = 0; begin < points.size(); begin += 40) {
        // 20 scalar solves, then a 20-point batch.
        for (std::size_t i = begin; i < begin + 20; ++i) {
            const bool resident = model.holds(quantizeInputs(points[i]));
            cache.solve(points[i]);
            model.insert(quantizeInputs(points[i]));
            (resident ? hits : misses) += 1;
        }
        const std::span<const DesignInputs> batch(points.data() + begin + 20,
                                                  20);
        std::vector<DesignResult> out(batch.size());
        cache.solveBatch(batch, out);
        for (const DesignInputs &in : batch) {
            model.insert(quantizeInputs(in));
            ++misses;
        }
        // Re-solving the newest key is a hit and leaves order alone.
        cache.solve(points[begin + 39]);
        ++hits;
    }
    CacheCounters counters = cache.counters();
    EXPECT_EQ(counters.misses, misses);
    EXPECT_EQ(counters.hits, hits);
    EXPECT_EQ(counters.evictions, model.evictions());
    EXPECT_GE(model.evictions(), 5 * MemoCache::kShards * kPerShard);
    expectMatchesModel(cache, model, points);
}

TEST(MemoCache, ClearThenReuseStartsFromAnEmptyRing)
{
    constexpr std::size_t kPerShard = 3;
    MemoCache cache(MemoCache::kShards * kPerShard);
    FifoModel model(kPerShard);
    const std::vector<DesignInputs> first = distinctPoints(200, 1000.0);
    for (const DesignInputs &in : first) {
        cache.solve(in);
        model.insert(quantizeInputs(in));
    }
    const CacheCounters before = cache.counters();

    cache.clear();
    model.clear();
    const std::uint64_t model_evictions = model.evictions();
    EXPECT_EQ(cache.size(), 0u);
    // Counters are monotonic: clear() keeps them.
    const CacheCounters cleared = cache.counters();
    EXPECT_EQ(cleared.hits, before.hits);
    EXPECT_EQ(cleared.misses, before.misses);
    EXPECT_EQ(cleared.evictions, before.evictions);
    for (const DesignInputs &in : first)
        EXPECT_FALSE(cache.lookup(quantizeInputs(in)).has_value());

    // Refill past capacity with a mix of old and new keys, as a
    // batch: eviction order restarts from the empty ring.
    std::vector<DesignInputs> second = distinctPoints(150, 5000.0);
    second.insert(second.end(), first.begin(), first.begin() + 50);
    std::vector<DesignResult> out(second.size());
    cache.solveBatch(second, out);
    for (const DesignInputs &in : second)
        model.insert(quantizeInputs(in));
    EXPECT_EQ(cache.counters().evictions - cleared.evictions,
              model.evictions() - model_evictions);
    for (std::size_t i = 0; i < second.size(); ++i)
        EXPECT_EQ(out[i].totalWeightG, solveDesign(second[i]).totalWeightG);
    second.insert(second.end(), first.begin(), first.end());
    expectMatchesModel(cache, model, second);
}

} // namespace
} // namespace dronedse

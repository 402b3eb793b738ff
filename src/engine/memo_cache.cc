#include "engine/memo_cache.hh"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

#include "dse/batch_solve.hh"
#include "dse/weight_closure.hh"
#include "util/logging.hh"

namespace dronedse::engine {

namespace {

/**
 * Quantization grid: 1e-6 of the field's own unit.  Sweep axes step
 * in whole mAh/mm/grams, so distinct grid points sit ~1e6 quanta
 * apart — aliasing across a feasibility boundary would need two
 * inputs closer than any sweep ever generates.
 */
constexpr double kQuantaPerUnit = 1e6;

std::int64_t
quantize(double value)
{
    return static_cast<std::int64_t>(
        std::llround(value * kQuantaPerUnit));
}

/** The key's cached hash, or a fresh one for a hand-built key. */
std::size_t
hashOf(const DesignKey &key)
{
    return key.hash != 0 ? key.hash : hashKey(key);
}

/** Smallest index a shard allocates once its first entry arrives. */
constexpr std::size_t kMinIndexBuckets = 32;

/** Smallest power of two that is at least `n`. */
std::size_t
powerOfTwoAtLeast(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p *= 2;
    return p;
}

} // namespace

DesignKey
quantizeInputs(const DesignInputs &inputs)
{
    DesignKey key;
    key.wheelbaseUm = quantize(inputs.wheelbaseMm.value());
    key.propDiameterUin = quantize(inputs.propDiameterIn.value());
    key.capacityUmah = quantize(inputs.capacityMah.value());
    key.twrMicro = quantize(inputs.twr);
    key.boardWeightUg = quantize(inputs.compute.weightG);
    key.boardPowerUw = quantize(inputs.compute.powerW);
    key.sensorWeightUg = quantize(inputs.sensorWeightG.value());
    key.sensorPowerUw = quantize(inputs.sensorPowerW.value());
    key.payloadUg = quantize(inputs.payloadG.value());
    key.cells = inputs.cells;
    key.escClass = static_cast<int>(inputs.escClass);
    key.boardClass = static_cast<int>(inputs.compute.boardClass);
    key.activity = static_cast<int>(inputs.activity);
    key.boardName = inputs.compute.name;
    key.hash = hashKey(key);
    return key;
}

std::size_t
hashKey(const DesignKey &key)
{
    // Word-wise FNV-1a (one xor-multiply per 64-bit field instead of
    // eight byte steps), the four small enums packed into a single
    // word, then a splitmix64-style finalizer so the high bits that
    // pick the shard avalanche even when inputs differ only in low
    // bits.  ~10x cheaper than the byte-at-a-time mix this replaces
    // — the hash ran once per map probe before it was cached in the
    // key, so it sat squarely on the cold path.
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(key.wheelbaseUm));
    mix(static_cast<std::uint64_t>(key.propDiameterUin));
    mix(static_cast<std::uint64_t>(key.capacityUmah));
    mix(static_cast<std::uint64_t>(key.twrMicro));
    mix(static_cast<std::uint64_t>(key.boardWeightUg));
    mix(static_cast<std::uint64_t>(key.boardPowerUw));
    mix(static_cast<std::uint64_t>(key.sensorWeightUg));
    mix(static_cast<std::uint64_t>(key.sensorPowerUw));
    mix(static_cast<std::uint64_t>(key.payloadUg));
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(
             key.cells))
         << 32) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
             key.escClass))
         << 16) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
             key.boardClass))
         << 8) ^
        static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(key.activity)));
    mix(std::hash<std::string_view>{}(key.boardName.view()));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
}

MemoCache::MemoCache(std::size_t capacity)
{
    if (capacity < kShards)
        capacity = kShards;
    shardCapacity_ = capacity / kShards;
    // Ring positions are 32-bit with one value reserved as `kEmpty`.
    if (shardCapacity_ >= kEmpty)
        fatal("MemoCache: capacity too large");
}

std::size_t
MemoCache::shardOf(std::size_t hash)
{
    // The low bits pick the index bucket; pick the shard from the
    // high bits so the two selections stay independent.
    return (hash >> 48) % kShards;
}

const MemoCache::Slot *
MemoCache::Shard::find(const DesignKey &key, std::size_t hash)
{
    if (index.empty())
        return nullptr;
    const std::size_t mask = index.size() - 1;
    const auto h = static_cast<std::uint32_t>(hash);
    for (std::size_t b = h & mask;; b = (b + 1) & mask) {
        const IndexEntry &e = index[b];
        if (e.pos == kEmpty)
            return nullptr;
        if (e.hash != h)
            continue;
        if (slot(e.pos).key == key)
            return &slot(e.pos);
    }
}

void
MemoCache::Shard::growIndex(std::size_t needed, std::size_t capacity)
{
    const std::size_t entries = std::min(needed, capacity);
    if (2 * entries <= index.size())
        return;
    const std::vector<IndexEntry> old = std::move(index);
    index.assign(std::max({powerOfTwoAtLeast(2 * entries), 2 * old.size(),
                           kMinIndexBuckets}),
                 IndexEntry{kEmpty, 0});
    for (const IndexEntry &e : old) {
        if (e.pos != kEmpty)
            indexInsert(e.pos, e.hash);
    }
}

void
MemoCache::Shard::insert(const DesignKey &key, std::size_t hash,
                         const DesignResult &result,
                         std::size_t capacity)
{
    if (find(key, hash))
        return;
    std::uint32_t pos = static_cast<std::uint32_t>(head);
    if (size < capacity) {
        growIndex(size + 1, capacity);
        pos = static_cast<std::uint32_t>(size++);
        const std::size_t block = pos >> kBlockShift;
        if (block == blocks.size()) {
            blocks.emplace_back();
            blocks.back().reserve(std::min(kBlockSlots, capacity - pos));
        }
        blocks[block].push_back(Slot{key, result});
    } else {
        // Full: the oldest entry, at `head`, gives up its slot (FIFO
        // eviction).
        indexErase(pos, static_cast<std::uint32_t>(slot(pos).key.hash));
        slot(pos) = Slot{key, result};
        head = (head + 1) % capacity;
        ++counters.evictions;
    }
    slot(pos).key.hash = hash;
    indexInsert(pos, static_cast<std::uint32_t>(hash));
}

void
MemoCache::Shard::indexInsert(std::uint32_t pos, std::uint32_t hash)
{
    const std::size_t mask = index.size() - 1;
    std::size_t b = hash & mask;
    while (index[b].pos != kEmpty)
        b = (b + 1) & mask;
    index[b] = {pos, hash};
}

void
MemoCache::Shard::indexErase(std::uint32_t pos, std::uint32_t hash)
{
    const std::size_t mask = index.size() - 1;
    std::size_t hole = hash & mask;
    while (index[hole].pos != pos)
        hole = (hole + 1) & mask;
    // Backward-shift deletion: pull each later entry of the probe
    // run into the hole unless that would move it before its home
    // bucket, so every remaining entry stays reachable.
    for (std::size_t b = (hole + 1) & mask; index[b].pos != kEmpty;
         b = (b + 1) & mask) {
        const std::size_t home = index[b].hash & mask;
        if (((b - home) & mask) >= ((b - hole) & mask)) {
            index[hole] = index[b];
            hole = b;
        }
    }
    index[hole] = {kEmpty, 0};
}

std::optional<DesignResult>
MemoCache::lookup(const DesignKey &key)
{
    DesignResult out;
    if (!lookup(key, out))
        return std::nullopt;
    return out;
}

bool
MemoCache::lookup(const DesignKey &key, DesignResult &out)
{
    const std::size_t hash = hashOf(key);
    Shard &shard = shards_[shardOf(hash)];
    util::MutexLock lock(shard.mutex);
    const Slot *slot = shard.find(key, hash);
    if (!slot) {
        ++shard.counters.misses;
        return false;
    }
    ++shard.counters.hits;
    out = slot->result;
    return true;
}

void
MemoCache::insert(const DesignKey &key, const DesignResult &result)
{
    const std::size_t hash = hashOf(key);
    Shard &shard = shards_[shardOf(hash)];
    util::MutexLock lock(shard.mutex);
    shard.insert(key, hash, result, shardCapacity_);
}

DesignResult
MemoCache::solve(const DesignInputs &inputs)
{
    const DesignKey key = quantizeInputs(inputs);
    DesignResult result;
    if (lookup(key, result))
        return result;
    result = solveDesign(inputs);
    insert(key, result);
    return result;
}

void
MemoCache::solveBatch(std::span<const DesignInputs> inputs,
                      std::span<DesignResult> results)
{
    if (inputs.size() != results.size())
        fatal("MemoCache::solveBatch: inputs/results size mismatch");
    const std::size_t n = inputs.size();
    if (n == 0)
        return;
    if (n >= kEmpty)
        fatal("MemoCache::solveBatch: batch too large");

    // Pass 1: quantize, then find each key's first occurrence in the
    // batch through a flat linear-probing table over the precomputed
    // hashes.  A repeat of an earlier key is not looked up: if that
    // key misses, solving it twice would both waste the solve and
    // double-count the miss the sequential path scores only once.
    std::vector<DesignKey> keys;
    keys.reserve(n);
    for (const DesignInputs &in : inputs)
        keys.push_back(quantizeInputs(in));
    std::vector<std::uint32_t> first(n);
    {
        std::vector<std::uint32_t> table(powerOfTwoAtLeast(2 * n),
                                         kEmpty);
        const std::size_t mask = table.size() - 1;
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t b = keys[i].hash & mask;
            while (table[b] != kEmpty &&
                   (keys[table[b]].hash != keys[i].hash ||
                    !(keys[table[b]] == keys[i])))
                b = (b + 1) & mask;
            if (table[b] == kEmpty)
                table[b] = static_cast<std::uint32_t>(i);
            first[i] = table[b];
        }
    }

    // Group the batch by shard (a stable counting sort, so each
    // shard sees its keys in batch order) and take each shard lock
    // once per pass instead of once per point.
    std::array<std::size_t, kShards + 1> bounds{};
    for (std::size_t i = 0; i < n; ++i)
        ++bounds[shardOf(keys[i].hash) + 1];
    for (std::size_t s = 0; s < kShards; ++s)
        bounds[s + 1] += bounds[s];
    std::vector<std::uint32_t> by_shard(n);
    {
        std::array<std::size_t, kShards> fill{};
        std::copy_n(bounds.begin(), kShards, fill.begin());
        for (std::size_t i = 0; i < n; ++i)
            by_shard[fill[shardOf(keys[i].hash)]++] =
                static_cast<std::uint32_t>(i);
    }

    // Pass 2: look the first occurrences up; hits land in the
    // caller's slot directly.  A repeat replays the hit the
    // sequential path would score, against the cached entry or the
    // fresh insert of its first occurrence alike.
    std::vector<unsigned char> missed(n, 0);
    std::size_t miss_count = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
        if (bounds[s] == bounds[s + 1])
            continue;
        Shard &shard = shards_[s];
        util::MutexLock lock(shard.mutex);
        for (std::size_t k = bounds[s]; k < bounds[s + 1]; ++k) {
            const std::uint32_t i = by_shard[k];
            if (first[i] != i) {
                ++shard.counters.hits;
                continue;
            }
            if (const Slot *slot = shard.find(keys[i], keys[i].hash)) {
                ++shard.counters.hits;
                results[i] = slot->result;
            } else {
                ++shard.counters.misses;
                missed[i] = 1;
                ++miss_count;
            }
        }
    }

    // Pass 3: the misses ride the SoA kernel together — the whole
    // point of chunk-level batching (DESIGN.md §15).  All-miss,
    // no-duplicate batches — every cold chunk of a real sweep — skip
    // the gather: the kernel reads and writes the caller's storage.
    if (miss_count == n) {
        solveDesignBatch(inputs, results);
    } else if (miss_count > 0) {
        std::vector<DesignInputs> miss_inputs;
        miss_inputs.reserve(miss_count);
        for (std::size_t i = 0; i < n; ++i) {
            if (missed[i])
                miss_inputs.push_back(inputs[i]);
        }
        std::vector<DesignResult> miss_results(miss_count);
        solveDesignBatch(std::span<const DesignInputs>(miss_inputs),
                         std::span<DesignResult>(miss_results));
        for (std::size_t i = 0, k = 0; i < n; ++i) {
            if (missed[i])
                results[i] = miss_results[k++];
        }
    }

    // Pass 4: insert each shard's misses in batch order — the FIFO
    // eviction order a sequential replay would produce — after
    // sizing its index once for all of them.
    for (std::size_t s = 0; miss_count > 0 && s < kShards; ++s) {
        std::size_t shard_misses = 0;
        for (std::size_t k = bounds[s]; k < bounds[s + 1]; ++k)
            shard_misses += missed[by_shard[k]];
        if (shard_misses == 0)
            continue;
        Shard &shard = shards_[s];
        util::MutexLock lock(shard.mutex);
        shard.growIndex(shard.size + shard_misses, shardCapacity_);
        for (std::size_t k = bounds[s]; k < bounds[s + 1]; ++k) {
            const std::uint32_t i = by_shard[k];
            if (missed[i])
                shard.insert(keys[i], keys[i].hash, results[i],
                             shardCapacity_);
        }
    }

    // Repeats copy their first occurrence's result.
    for (std::size_t i = 0; i < n; ++i) {
        if (first[i] != i)
            results[i] = results[first[i]];
    }
}

CacheCounters
MemoCache::counters() const DDSE_NO_THREAD_SAFETY_ANALYSIS
{
    // Hold every shard lock at once (ascending index, so concurrent
    // snapshots cannot deadlock) and sum: the triple is a single
    // consistent cut across the cache, not three racing reads.
    // Analysis opt-out: the lock set is a loop over an array, which
    // the capability checker cannot model; the ascending-acquire /
    // descending-release pairing below is the whole discipline.
    for (std::size_t i = 0; i < kShards; ++i)
        shards_[i].mutex.lock();
    CacheCounters out;
    for (const auto &shard : shards_) {
        out.hits += shard.counters.hits;
        out.misses += shard.counters.misses;
        out.evictions += shard.counters.evictions;
    }
    for (std::size_t i = kShards; i-- > 0;)
        shards_[i].mutex.unlock();
    return out;
}

std::size_t
MemoCache::size() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        util::MutexLock lock(shard.mutex);
        total += shard.size;
    }
    return total;
}

void
MemoCache::clear()
{
    // Storage stays reserved: a cleared cache refills without
    // regrowing.  Counters are monotonic and survive.
    for (auto &shard : shards_) {
        util::MutexLock lock(shard.mutex);
        for (std::vector<Slot> &block : shard.blocks)
            block.clear();
        shard.size = 0;
        shard.head = 0;
        std::fill(shard.index.begin(), shard.index.end(),
                  IndexEntry{kEmpty, 0});
    }
}

} // namespace dronedse::engine

/**
 * @file
 * Sharded, thread-safe memo cache for `solveDesign`.
 *
 * The Equation 1-2 weight-closure fixed point dominates every sweep
 * (`bench/kernels_micro`), and the figure generators re-solve the
 * same series repeatedly — Figure 10 alone resolves each battery
 * family once per weight bucket.  The cache keys on a *quantized*
 * `DesignInputs` (every dimensioned field rounded to a fixed 1e-6
 * grid in its own unit) so bitwise-jittery but physically identical
 * inputs hit, while any two grid points of a real sweep — whose axes
 * step far coarser than the quantum — can never alias.
 *
 * Sharding: the key hash picks one of `kShards` independently locked
 * shards, so concurrent workers rarely contend.  Each shard is flat
 * storage: a FIFO ring of `{key, result}` slots, held in fixed-size
 * blocks allocated as it fills, that overwrites its oldest slot once
 * it holds the shard's capacity, plus an open-addressing index from
 * key hash to ring position.  Keys and results are trivially
 * copyable, so an insert is one plain copy and a hit another — no
 * per-entry heap node, and nothing is reserved for the full capacity
 * until entries arrive.
 * Hit/miss/eviction counters live per shard under the shard mutex;
 * `counters()` locks every shard at once, so the triple it returns is
 * one consistent snapshot — a hit recorded concurrently can never
 * appear without the insert that preceded it (no torn counter
 * triples).
 */

#ifndef DRONEDSE_ENGINE_MEMO_CACHE_HH
#define DRONEDSE_ENGINE_MEMO_CACHE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "dse/design_point.hh"
#include "util/thread_annotations.hh"

namespace dronedse::engine {

/**
 * A `DesignInputs` rounded onto the cache's quantization grid.
 * Dimensioned fields are stored as integer multiples of 1e-6 of
 * their own unit (micro-grams, micro-mAh, ...), enums as integers,
 * and the board name verbatim (two boards with equal physics but
 * different names must not share a cached result echo).  Trivially
 * copyable: the name is stored inline, so keys copy into the cache
 * ring and the per-batch key array without touching the heap.
 */
struct DesignKey
{
    std::int64_t wheelbaseUm = 0;
    std::int64_t propDiameterUin = 0;
    std::int64_t capacityUmah = 0;
    std::int64_t twrMicro = 0;
    std::int64_t boardWeightUg = 0;
    std::int64_t boardPowerUw = 0;
    std::int64_t sensorWeightUg = 0;
    std::int64_t sensorPowerUw = 0;
    std::int64_t payloadUg = 0;
    int cells = 0;
    int escClass = 0;
    int boardClass = 0;
    int activity = 0;
    BoardName boardName;
    /**
     * Hash of the fields above, computed once by `quantizeInputs`.
     * Every index probe, shard pick, and batch-duplicate check reuses
     * it instead of re-hashing the key (the cold path hashes each
     * key exactly once per batch).  Not part of the key's identity.
     */
    std::size_t hash = 0;

    bool operator==(const DesignKey &other) const
    {
        return wheelbaseUm == other.wheelbaseUm &&
               propDiameterUin == other.propDiameterUin &&
               capacityUmah == other.capacityUmah &&
               twrMicro == other.twrMicro &&
               boardWeightUg == other.boardWeightUg &&
               boardPowerUw == other.boardPowerUw &&
               sensorWeightUg == other.sensorWeightUg &&
               sensorPowerUw == other.sensorPowerUw &&
               payloadUg == other.payloadUg && cells == other.cells &&
               escClass == other.escClass &&
               boardClass == other.boardClass &&
               activity == other.activity &&
               boardName == other.boardName;
    }
};

static_assert(std::is_trivially_copyable_v<DesignKey>);

/** Quantize a full input set onto the cache grid (fills `hash`). */
DesignKey quantizeInputs(const DesignInputs &inputs);

/** Word-wise FNV-1a over the key fields, avalanche-finalized. */
std::size_t hashKey(const DesignKey &key);

/** Monotonic hit/miss/eviction counters of one cache. */
struct CacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    double hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * The cache itself.  `lookup` and `insert` are safe from any number
 * of threads; a hit returns a copy of the exact `DesignResult` that
 * was inserted (including its echoed inputs).
 */
class MemoCache
{
  public:
    static constexpr std::size_t kShards = 16;

    /** Capacity is total entries across all shards. */
    explicit MemoCache(std::size_t capacity = 1 << 20);

    std::optional<DesignResult> lookup(const DesignKey &key);
    /**
     * Hit-path variant without the optional: on a hit, copies the
     * cached result straight into `out` (one copy, no intermediate)
     * and returns true; on a miss leaves `out` alone.  Counters
     * advance exactly as with the optional overload.
     */
    bool lookup(const DesignKey &key, DesignResult &out);
    void insert(const DesignKey &key, const DesignResult &result);

    /** Memoized `solveDesign`: lookup, else solve and insert. */
    DesignResult solve(const DesignInputs &inputs);

    /**
     * Memoized batch solve: look every input up, run the misses
     * through the SoA kernel (`solveDesignBatch`) in one pass, and
     * insert them in batch order.  `results[i]` is byte-identical to
     * what `solve(inputs[i])` would have produced, and the counters
     * advance by exactly `inputs.size()` hits-plus-misses: repeats
     * of a missed key within one batch are solved once and the
     * repeats recorded as the hits the sequential path would have
     * scored against the fresh insert.  (Only under a pathological
     * capacity — smaller than one batch's unique-key footprint in a
     * single shard — can the hit/miss split differ from a strictly
     * sequential replay, because the sequential path may re-miss a
     * key it evicted mid-batch.)  Lookups and inserts take each
     * shard's lock once per batch, and a cold batch allocates
     * per shard and per batch, never per point.
     */
    void solveBatch(std::span<const DesignInputs> inputs,
                    std::span<DesignResult> results);

    /**
     * One consistent snapshot (all shards locked together).  Locks
     * a variable set of mutexes in a loop — a pattern capability
     * analysis cannot express, hence the explicit opt-out on the
     * definition.
     */
    CacheCounters counters() const;
    std::size_t size() const;
    /**
     * Drop every entry; storage stays allocated for the refill and
     * the counters (monotonic) are kept.
     */
    void clear();

    /** The shard a key with this hash lives in (FIFO is per shard). */
    static std::size_t shardOf(std::size_t hash);

  private:
    /** One cached entry: the key it was solved for and its result. */
    struct Slot
    {
        DesignKey key;
        DesignResult result;
    };

    /**
     * One bucket of the shard index: the ring position of an entry
     * and the low 32 bits of its key hash (its home bucket, and a
     * cheap reject before the full key compare).
     */
    struct IndexEntry
    {
        std::uint32_t pos;
        std::uint32_t hash;
    };
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    /**
     * Ring slots per storage block (~66 KB).  Blocks are allocated
     * as the ring fills and never move, so growing a shard copies
     * no entries.
     */
    static constexpr std::size_t kBlockShift = 7;
    static constexpr std::size_t kBlockSlots = std::size_t{1}
                                               << kBlockShift;

    struct Shard
    {
        mutable util::Mutex mutex;
        /**
         * The FIFO ring: position `p` lives in
         * `blocks[p / kBlockSlots][p % kBlockSlots]`.  Positions fill
         * in insertion order; once all `capacity` are taken, `head`
         * is the oldest entry and the next insert overwrites it.
         */
        std::vector<std::vector<Slot>> blocks DDSE_GUARDED_BY(mutex);
        std::size_t size DDSE_GUARDED_BY(mutex) = 0;
        std::size_t head DDSE_GUARDED_BY(mutex) = 0;
        /**
         * Linear-probing index over the ring: a power of two at
         * least twice the entry count, `kEmpty` buckets free.
         * Eviction deletes by backward shift (no tombstones).
         */
        std::vector<IndexEntry> index DDSE_GUARDED_BY(mutex);
        /** Counters of this shard. */
        CacheCounters counters DDSE_GUARDED_BY(mutex);

        Slot &slot(std::size_t pos) DDSE_REQUIRES(mutex)
        {
            return blocks[pos >> kBlockShift][pos & (kBlockSlots - 1)];
        }
        const Slot *find(const DesignKey &key, std::size_t hash)
            DDSE_REQUIRES(mutex);
        /**
         * Insert unless present, evicting the oldest entry when the
         * ring already holds `capacity` entries.
         */
        void insert(const DesignKey &key, std::size_t hash,
                    const DesignResult &result, std::size_t capacity)
            DDSE_REQUIRES(mutex);
        /**
         * Size the index for `needed` entries (capped at `capacity`)
         * in one step, at least doubling when it grows.
         */
        void growIndex(std::size_t needed, std::size_t capacity)
            DDSE_REQUIRES(mutex);
        void indexInsert(std::uint32_t pos, std::uint32_t hash)
            DDSE_REQUIRES(mutex);
        void indexErase(std::uint32_t pos, std::uint32_t hash)
            DDSE_REQUIRES(mutex);
    };


    /** Per-shard entry cap; set once in the ctor, then read-only. */
    std::size_t shardCapacity_;
    std::array<Shard, kShards> shards_;
};

} // namespace dronedse::engine

#endif // DRONEDSE_ENGINE_MEMO_CACHE_HH

/**
 * @file
 * Shared plumbing of the in-process benchmark program: clocks, the
 * seeded input generator, order statistics, hashing, and the
 * in-memory span log of the traced run.
 *
 * perfbench times calls into the library's public entry points from
 * its own code only; nothing here reaches into library internals.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * SplitMix64: the benchmark's own generator, so generated inputs
 * depend only on the seed and never on the library's RNG or the
 * standard library's distribution implementations.
 */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1) with 53 random bits. */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** Independent stream `stream` of `seed` (for per-purpose inputs). */
inline std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    SeedRng rng(seed ^ (stream * 0xD1B54A32D192ED03ull));
    rng.next();
    return rng.next();
}

/** Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty set. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    const std::size_t k = rank == 0 ? 0 : rank - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k),
                     v.end());
    return v[k];
}

/** Median, averaging the two middle values of an even-sized set. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid),
                     v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    return (hi + *std::max_element(v.begin(),
                                   v.begin() + static_cast<long>(mid))) /
           2.0;
}

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

/** FNV-1a 64 over `bytes`, continuing from `h`. */
inline std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

/** One recorded span (chrome://tracing complete event). */
struct Span
{
    const char *name = "";
    const char *cat = "";
    std::uint32_t tid = 0;
    double startUs = 0.0;
    double durUs = 0.0;
    /** Request / variant id shared by every span of one operation. */
    std::uint64_t id = 0;
};

/**
 * Per-thread record of the traced run: spans kept in memory (written
 * as chrome://tracing JSON at the end) and named duration samples
 * the per-layer metrics are medians of.  Each client thread owns one;
 * they are merged after the threads join.  Disabled logs record
 * nothing, so the untraced run pays one branch per call site.
 */
class ThreadLog
{
  public:
    ThreadLog(bool enabled, std::uint32_t tid, Clock::time_point epoch)
        : enabled_(enabled), tid_(tid), epoch_(epoch)
    {
    }

    bool enabled() const { return enabled_; }

    /**
     * Record [a, b) as a span (when `keep`) and as a sample of the
     * series `series` in `scale` units per second.
     */
    void record(std::vector<double> *series, const char *name,
                const char *cat, Clock::time_point a,
                Clock::time_point b, std::uint64_t id, bool keep,
                double scale)
    {
        if (!enabled_)
            return;
        const double dur_s = secondsBetween(a, b);
        if (series)
            series->push_back(dur_s * scale);
        if (keep && spans_.size() < kMaxSpans)
            spans_.push_back(Span{name, cat, tid_,
                                  secondsBetween(epoch_, a) * 1e6,
                                  dur_s * 1e6, id});
    }

    /** The named sample series (created on first use). */
    std::vector<double> &series(const std::string &name)
    {
        return samples_[name];
    }

    void merge(ThreadLog &other)
    {
        spans_.insert(spans_.end(), other.spans_.begin(),
                      other.spans_.end());
        for (auto &[name, values] : other.samples_) {
            auto &dst = samples_[name];
            dst.insert(dst.end(), values.begin(), values.end());
        }
        other.spans_.clear();
        other.samples_.clear();
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::map<std::string, std::vector<double>> &samples() const
    {
        return samples_;
    }

  private:
    /** Bound on kept spans per thread (the trace stays small). */
    static constexpr std::size_t kMaxSpans = 200000;

    bool enabled_;
    std::uint32_t tid_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::map<std::string, std::vector<double>> samples_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH

/**
 * @file
 * Clang capability-analysis annotations and annotation-aware lock
 * types for every concurrent subsystem (DESIGN.md §13).
 *
 * Under clang the `DDSE_*` macros expand to the thread-safety
 * attributes that `-Wthread-safety -Wthread-safety-beta` checks at
 * compile time: a `DDSE_GUARDED_BY(mu)` member touched without `mu`
 * held, or a `DDSE_REQUIRES(mu)` function called unlocked, is a
 * build error under the clang presets (and the `analysis` CI job).
 * Under other compilers the macros expand to nothing and the wrapper
 * types below are plain `std::mutex` plumbing — zero overhead, no
 * behavior change.
 *
 * The wrappers exist because the analysis only understands lock
 * types that carry the capability attributes; `std::mutex` and
 * `std::lock_guard` are invisible to it.  Repo rule (enforced by the
 * `locks` pass of tools/analyze.py): the concurrent subsystems
 * (src/engine, src/serve, src/obs, util/logging.cc) use `Mutex`,
 * `MutexLock`, and `CondVar` — never raw `std::mutex` /
 * `std::lock_guard` / `std::condition_variable`.
 *
 * Condition waits: `CondVar` wraps `std::condition_variable_any` so
 * it can block on the annotated `Mutex` directly.  Predicates that
 * read guarded members belong in an explicit `while (!cond) wait()`
 * loop in the annotated function body (where the analysis can see
 * the capability is held), not in a lambda — lambdas are analyzed as
 * separate unannotated functions and would warn.
 */

#ifndef DRONEDSE_UTIL_THREAD_ANNOTATIONS_HH
#define DRONEDSE_UTIL_THREAD_ANNOTATIONS_HH

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__SANITIZE_THREAD__)
#define DDSE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DDSE_TSAN 1
#endif
#endif
#if defined(DDSE_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__clang__)
#define DDSE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DDSE_THREAD_ANNOTATION(x)
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define DDSE_CAPABILITY(x) DDSE_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires in its ctor, releases in dtor. */
#define DDSE_SCOPED_CAPABILITY DDSE_THREAD_ANNOTATION(scoped_lockable)

/** Member data that may only be touched while `x` is held. */
#define DDSE_GUARDED_BY(x) DDSE_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose *pointee* is protected by `x`. */
#define DDSE_PT_GUARDED_BY(x) DDSE_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function that may only be called with the capabilities held. */
#define DDSE_REQUIRES(...) \
    DDSE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function that acquires the capabilities and holds them on exit. */
#define DDSE_ACQUIRE(...) \
    DDSE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function that releases the capabilities. */
#define DDSE_RELEASE(...) \
    DDSE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function that acquires only when it returns `result`. */
#define DDSE_TRY_ACQUIRE(result, ...) \
    DDSE_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))

/** Function the caller must NOT hold the capabilities around. */
#define DDSE_EXCLUDES(...) \
    DDSE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returning a reference to the named capability. */
#define DDSE_RETURN_CAPABILITY(x) \
    DDSE_THREAD_ANNOTATION(lock_returned(x))

/**
 * Escape hatch for lock patterns the analysis cannot express (e.g.
 * locking a whole array of shard mutexes in a loop).  Every use
 * needs a comment justifying why the discipline holds anyway.
 */
#define DDSE_NO_THREAD_SAFETY_ANALYSIS \
    DDSE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dronedse::util {

/**
 * Annotation-aware mutex: `std::mutex` plus the capability
 * attribute.  Satisfies Lockable, so it also works with std
 * facilities that only need lock()/unlock().
 */
class DDSE_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
#if defined(DDSE_TSAN)
    // std::mutex's destructor is trivial, so TSan would never learn
    // that this mutex died, and a later one at the same address
    // would inherit its lock-order history (false inversions).
    ~Mutex() { __tsan_mutex_destroy(&mutex_, 0); }
#endif
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() DDSE_ACQUIRE() { mutex_.lock(); }
    void unlock() DDSE_RELEASE() { mutex_.unlock(); }
    bool try_lock() DDSE_TRY_ACQUIRE(true) // NOLINT: Lockable name
    {
        return mutex_.try_lock();
    }

  private:
    std::mutex mutex_;
};

/**
 * Annotation-aware `lock_guard`: acquires `mu` for the enclosing
 * scope.  The analysis treats construction as acquire and
 * destruction as release.
 */
class DDSE_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) DDSE_ACQUIRE(mu) : mutex_(mu)
    {
        mutex_.lock();
    }
    ~MutexLock() DDSE_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

/**
 * Condition variable that waits on the annotated `Mutex`.  All wait
 * overloads require the mutex held on entry and return with it held
 * (`condition_variable_any` releases and reacquires internally; the
 * net capability state is unchanged, which is what `DDSE_REQUIRES`
 * expresses).
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

    /** One blocking wait; use inside a `while (!cond)` loop. */
    void wait(Mutex &mu) DDSE_REQUIRES(mu) { cv_.wait(mu); }

    /**
     * Timed wait with predicate; returns the predicate's value.
     * Only pass predicates over state NOT guarded by `mu` (atomics,
     * self-locking calls) — guarded reads belong in an explicit
     * wait loop in the annotated caller (see file comment).
     */
    template <class Rep, class Period, class Predicate>
    bool waitFor(Mutex &mu,
                 std::chrono::duration<Rep, Period> timeout,
                 Predicate pred) DDSE_REQUIRES(mu)
    {
        return cv_.wait_for(mu, timeout, std::move(pred));
    }

  private:
    std::condition_variable_any cv_;
};

} // namespace dronedse::util

#endif // DRONEDSE_UTIL_THREAD_ANNOTATIONS_HH

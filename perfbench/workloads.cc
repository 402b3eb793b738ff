#include "workloads.hh"

#include <algorithm>
#include <barrier>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "codesign/roofline.hh"
#include "dse/batch_solve.hh"
#include "dse/export.hh"
#include "dse/weight_closure.hh"
#include "engine/pareto.hh"
#include "explore/driver.hh"
#include "inputs.hh"
#include "oracle.hh"
#include "serve/service.hh"

namespace perfbench {

using namespace dronedse;
using serve::QueryKind;

namespace {

/**
 * Distinct cycles in serve_analysis's pool: 8 pareto slices alone
 * insert 68,160 points, so a query recurs only after its points left
 * the 65,536-entry cache.
 */
constexpr std::size_t kAnalysisCycles = 8;
/** Probe: distinct analysis cycles of its pool. */
constexpr std::size_t kProbeCycles = 4;
/** Probe and layer probe: design warm-up requests, timed seconds. */
constexpr std::size_t kProbeWarmup = 5000;
constexpr double kProbeDesignS = 0.25;
/** serve_interactive: design traffic between two probe segments. */
constexpr double kInteractiveSegmentS = 1.5;
/** Cold-stream points timed one by one for `dse.scalar_us`. */
constexpr std::size_t kScalarProbePoints = 4096;
/** Scheduled requests per client before the schedule repeats. */
constexpr std::size_t kScheduleLength = 1 << 18;
/** Sampled points compared with scalar `solveDesign` per variant. */
constexpr std::size_t kScalarSamples = 64;
/** Window of the design streams' statistics (see Context::windows). */
constexpr double kDesignWindowS = 0.25;
/** Every n-th design request keeps its spans in the trace. */
constexpr std::uint64_t kSpanEvery = 64;

/** Admission rates no run can reach: a healthy run refuses nothing. */
constexpr serve::TokenBucketConfig kUnlimited{1e12, 1e12};

serve::ServiceOptions
serviceOptions(int engine_threads, Inject inject)
{
    serve::ServiceOptions options;
    options.engine.threads = engine_threads;
    options.engine.cacheCapacity = kCacheCapacity;
    options.admission.interactive = kUnlimited;
    options.admission.batch = kUnlimited;
    if (inject == Inject::Refuse) {
        // One token, never refilled: every later request is refused.
        options.admission.interactive = {0.0, 1.0};
        options.admission.batch = {0.0, 1.0};
    }
    return options;
}

engine::EngineOptions
engineOptions(int threads)
{
    engine::EngineOptions options;
    options.threads = threads;
    options.cacheCapacity = kCacheCapacity;
    return options;
}

/** Peak resident set of this process so far (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::vector<DesignInputs>
expandVariant(const Variant &v)
{
    std::vector<DesignInputs> inputs;
    inputs.reserve(kVariantPoints);
    for (const SweepSpec &spec : variantSpecs(v)) {
        std::vector<DesignInputs> grid = expandGrid(spec);
        inputs.insert(inputs.end(), std::make_move_iterator(grid.begin()),
                      std::make_move_iterator(grid.end()));
    }
    return inputs;
}

/**
 * One reply slot per client.  Two clients sharing a Service each
 * ingest a frame and then process one queued item, which may be the
 * other client's; the reply then goes to its owner here, exactly as
 * a transport routes replies by connection.
 */
class Mailbox
{
  public:
    explicit Mailbox(std::size_t clients) : slots_(clients) {}

    void deliver(std::uint64_t to, std::string reply)
    {
        Slot &slot = slots_[to];
        {
            std::lock_guard<std::mutex> lock(slot.mutex);
            slot.reply = std::move(reply);
            slot.full = true;
        }
        slot.cv.notify_one();
    }

    std::string take(std::uint64_t me)
    {
        Slot &slot = slots_[me];
        std::unique_lock<std::mutex> lock(slot.mutex);
        slot.cv.wait(lock, [&] { return slot.full; });
        slot.full = false;
        return std::move(slot.reply);
    }

  private:
    struct Slot
    {
        std::mutex mutex;
        std::condition_variable cv;
        bool full = false;
        std::string reply;
    };
    std::vector<Slot> slots_;
};

/**
 * Hands `reply` (computed for client `owner`) to its owner and
 * returns client `me`'s own reply.
 */
std::string
route(Mailbox &mailbox, std::uint64_t owner, std::uint32_t me,
      std::string reply)
{
    if (owner == me)
        return reply;
    mailbox.deliver(owner, std::move(reply));
    return mailbox.take(me);
}

/** Precomputed replies of the design traffic. */
struct DesignOracle
{
    std::vector<std::string> hotReplies;
    /** FNV-1a of each client's cold-stream replies. */
    std::vector<std::vector<std::uint64_t>> coldHashes;
};

/** Where each client is in its plan; kept across stream segments. */
struct ClientCursor
{
    std::size_t pos = 0;
    std::size_t coldNext = 0;
    std::uint64_t seq = 0;
};

/** A Service with design traffic set up on it. */
struct DesignBench
{
    std::unique_ptr<serve::Service> service;
    DesignPool pool;
    std::vector<ClientPlan> plans;
    std::vector<ClientCursor> cursors;
    DesignOracle oracle;
};

/** Samples of one decomposed request's pipeline stages. */
struct StageSeries
{
    std::vector<double> *parse = nullptr;
    std::vector<double> *validate = nullptr;
    std::vector<double> *admit = nullptr;
    std::vector<double> *execute = nullptr;
    std::vector<double> *serialize = nullptr;
    std::vector<double> *stageSum = nullptr;
    std::vector<double> *replyBytes = nullptr;
};

/**
 * The synchronous pipeline of `Service::handleFrame`, one public call
 * per stage so each is timed: parse, planner validation, admission
 * (submit + pop), engine solve, reply serialization.
 */
std::string
decomposedDesign(serve::Service &service, Mailbox &mailbox,
                 const std::string &frame, std::uint32_t me, double t,
                 ThreadLog &log, const StageSeries &s, std::uint64_t span_id,
                 bool keep)
{
    const Clock::time_point p0 = Clock::now();
    serve::Request request;
    serve::ErrorReply err;
    const bool parsed = serve::parseRequest(frame, request, err);
    const Clock::time_point p1 = Clock::now();
    log.record(s.parse, "serve.parse", "serve", p0, p1, span_id, keep, 1e6);
    if (!parsed)
        return serve::serializeErrorReply(request.id, err);
    const bool valid = service.planner().validate(request, err);
    const Clock::time_point p2 = Clock::now();
    log.record(s.validate, "serve.validate", "serve", p1, p2, span_id, keep,
               1e6);
    if (!valid)
        return serve::serializeErrorReply(request.id, err);
    const serve::AdmitDecision decision = service.admission().submit(
        serve::QueuedItem{me, request, t}, t);
    if (decision != serve::AdmitDecision::Admit)
        return serve::serializeErrorReply(request.id,
                                          serve::admitError(decision));
    serve::QueuedItem item;
    service.admission().pop(t, item);
    const Clock::time_point p3 = Clock::now();
    log.record(s.admit, "serve.admit", "serve", p2, p3, span_id, keep, 1e6);
    const DesignResult result = service.engine().solve(item.request.point);
    const Clock::time_point p4 = Clock::now();
    log.record(s.execute, "serve.execute", "serve", p3, p4, span_id, keep,
               1e6);
    std::string reply = serve::serializeDesignReply(item.request.id, result);
    const Clock::time_point p5 = Clock::now();
    log.record(s.serialize, "serve.serialize", "serve", p4, p5, span_id, keep,
               1e6);
    log.record(s.stageSum, "serve.pipeline", "serve", p0, p5, span_id, false,
               1e6);
    if (log.enabled() && keep)
        s.replyBytes->push_back(static_cast<double>(reply.size()));
    return route(mailbox, item.conn, me, std::move(reply));
}

/** How long a design stream segment runs and what it records. */
struct StreamShape
{
    std::uint32_t clients = 1;
    /** Untimed requests per client before timing starts. */
    std::size_t warmup = 0;
    /** Timed seconds. */
    double seconds = 0.0;
    /** Record the workload-level series (handle, stages, cache). */
    bool primary = true;
};

/** Per-window statistics of a design stream segment (see Context::windows). */
struct StreamWindows
{
    std::vector<double> medianMs;
    std::vector<double> p99Ms;
    std::vector<double> qps;
};

/** Everything one run accumulates. */
struct Context
{
    explicit Context(const RunConfig &c)
        : config(c), epoch(Clock::now()), log(c.trace, 0, epoch)
    {
    }

    const RunConfig &config;
    Clock::time_point epoch;
    Tally tally;
    /** The main thread's log; client logs merge into it. */
    ThreadLog log;
    std::uint32_t nextTid = 1;
    std::map<std::string, double> e2e;
    /**
     * Per-window values of the end-to-end timings.  A run is cut into
     * windows (one variant, one execution of an analysis query, one
     * pass over the analysis pool for its rates, or a quarter second
     * of design traffic), each statistic is taken per window, and the
     * run reports the median of the window values.  Windows keep the
     * memory a run needs independent of its length and speed, so
     * `peak_rss_mb` does not move with throughput.
     */
    std::map<std::string, std::vector<double>> windows;
    /** Analysis passes run so far (span ids). */
    std::uint64_t passes = 0;
    bool calibrated = false;
    /** The Service that carried design traffic (two-client probe). */
    std::unique_ptr<DesignBench> design;
};

/** First `RooflineModel::shared` call, timed (roofline calibration). */
double
calibrate(Context &ctx)
{
    const Clock::time_point a = Clock::now();
    codesign::RooflineModel::shared();
    const Clock::time_point b = Clock::now();
    ctx.calibrated = true;
    ctx.log.record(&ctx.log.series("codesign.calibrate_s"),
                   "codesign.calibrate", "codesign", a, b, 0, true, 1.0);
    return secondsBetween(a, b);
}

/** Service construction; includes calibration on first use. */
std::unique_ptr<serve::Service>
makeService(Context &ctx, int engine_threads, double *setup_s)
{
    const double calibrate_s = ctx.calibrated ? 0.0 : calibrate(ctx);
    const Clock::time_point a = Clock::now();
    auto service = std::make_unique<serve::Service>(
        serviceOptions(engine_threads, ctx.config.inject));
    const Clock::time_point b = Clock::now();
    ctx.log.record(nullptr, "serve.setup", "serve", a, b, 0, true, 1.0);
    if (setup_s)
        *setup_s = calibrate_s + secondsBetween(a, b);
    return service;
}

DesignOracle
makeDesignOracle(const DesignPool &pool, const std::vector<ClientPlan> &plans,
                 Inject inject)
{
    DesignOracle oracle;
    oracle.coldHashes.resize(plans.size());
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < plans.size(); ++c) {
        workers.emplace_back([&, c] {
            const ClientPlan &plan = plans[c];
            std::vector<std::uint64_t> &hashes = oracle.coldHashes[c];
            hashes.reserve(plan.cold.size());
            for (std::size_t j = 0; j < plan.cold.size(); ++j)
                hashes.push_back(fnv1a(expectedDesignReply(
                    coldId(static_cast<std::uint32_t>(c), j), plan.cold[j])));
        });
    }
    for (std::size_t k = 0; k < pool.hot.size(); ++k)
        oracle.hotReplies.push_back(expectedDesignReply(hotId(k), pool.hot[k]));
    for (std::thread &w : workers)
        w.join();
    if (inject == Inject::FlipOracle)
        oracle.hotReplies[0][10] ^= 1;
    return oracle;
}

/**
 * Build a Service with design traffic for `clients` clients: cache
 * filled to capacity from off-lattice points before any request, so
 * it is evicting from the first cold request on.
 */
std::unique_ptr<DesignBench>
makeDesignBench(Context &ctx, std::uint32_t clients,
                int engine_threads, double *setup_s)
{
    auto bench = std::make_unique<DesignBench>();
    bench->service = makeService(ctx, engine_threads, setup_s);
    bench->pool = makeDesignPool(ctx.config.seed);
    for (std::uint32_t c = 0; c < clients; ++c)
        bench->plans.push_back(
            makeClientPlan(ctx.config.seed, c, kScheduleLength,
                           kColdPerClient));
    bench->cursors.resize(clients);
    bench->oracle =
        makeDesignOracle(bench->pool, bench->plans, ctx.config.inject);
    const std::vector<DesignInputs> fill =
        fillPoints(ctx.config.seed, kCacheCapacity);
    bench->service->engine().solvePoints(fill);
    return bench;
}

/**
 * Closed-loop design traffic: each client sends its next request
 * when the previous reply is in, and checks every reply against the
 * oracle outside its timed window.  One client calls
 * `Service::handleFrame`; several clients drive `ingest` +
 * `processOne` and route replies by connection, because concurrent
 * `handleFrame` callers can pop each other's queued request.  In the
 * traced run every other request goes through the decomposed
 * pipeline instead, so stage times and whole-call times come from the
 * same traffic.
 */
StreamWindows
runDesignStream(Context &ctx, DesignBench &bench, const StreamShape &shape)
{
    serve::Service &service = *bench.service;
    const std::uint32_t clients = shape.clients;
    Mailbox mailbox(clients);
    std::barrier sync(static_cast<std::ptrdiff_t>(clients));
    std::vector<std::unique_ptr<ThreadLog>> logs;
    std::vector<Tally> tallies(clients);
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::vector<double>> end_times(clients);
    std::vector<Clock::time_point> starts(clients), ends(clients);
    for (std::uint32_t c = 0; c < clients; ++c)
        logs.push_back(std::make_unique<ThreadLog>(ctx.config.trace,
                                                   ctx.nextTid++, ctx.epoch));
    const std::string handle_name =
        clients == 1 ? "serve.handle_us.1c" : "serve.handle_us.2c";
    const engine::CacheCounters before = service.engine().cacheCounters();

    const auto client = [&](std::uint32_t c) {
        ThreadLog &log = *logs[c];
        Tally &tally = tallies[c];
        std::vector<double> &lat = latencies[c];
        const ClientPlan &plan = bench.plans[c];
        StageSeries stages;
        std::vector<double> discard;
        std::vector<double> *handle = nullptr;
        std::vector<double> *handle_n = nullptr;
        if (log.enabled()) {
            handle_n = &log.series(handle_name);
            if (shape.primary) {
                stages = {&log.series("serve.parse_us"),
                          &log.series("serve.validate_us"),
                          &log.series("serve.admit_us"),
                          &log.series("serve.execute_us"),
                          &log.series("serve.serialize_us"),
                          &log.series("serve.stage_sum_us"),
                          &log.series("serve.design_reply_bytes")};
                handle = &log.series("serve.handle_us");
            } else {
                // Stage samples of a secondary stream are discarded.
                stages = {&discard, &discard, &discard, &discard,
                          &discard, &discard, &discard};
            }
        }
        std::size_t &pos = bench.cursors[c].pos;
        std::size_t &cold_next = bench.cursors[c].coldNext;
        std::uint64_t &seq = bench.cursors[c].seq;
        const auto one = [&](bool timed) {
            const std::uint32_t entry =
                plan.schedule[pos++ % plan.schedule.size()];
            std::string cold_frame;
            const std::string *frame;
            std::size_t j = 0;
            if (entry == kCold) {
                j = cold_next++ % plan.cold.size();
                cold_frame = designFrame(coldId(c, j), plan.cold[j]);
                frame = &cold_frame;
            } else {
                frame = &bench.pool.hotFrames[entry];
            }
            const std::uint64_t span_id = (std::uint64_t{c + 1} << 40) | seq;
            const bool keep = timed && seq % kSpanEvery == 0;
            const bool decomposed = log.enabled() && seq % 2 == 0;
            ++seq;
            std::string reply;
            const Clock::time_point t0 = Clock::now();
            const double t = secondsBetween(ctx.epoch, t0);
            if (decomposed) {
                reply = decomposedDesign(service, mailbox, *frame, c, t, log,
                                         stages, span_id, keep);
            } else if (clients == 1) {
                reply = service.handleFrame(*frame, t);
            } else {
                serve::IngestOutcome in = service.ingest(*frame, c, t);
                if (in.queued) {
                    auto popped = service.processOne(t);
                    reply = popped ? route(mailbox, popped->first, c,
                                           std::move(popped->second))
                                   : std::string();
                } else {
                    reply = std::move(in.reply);
                }
            }
            const Clock::time_point t1 = Clock::now();
            if (timed) {
                lat.push_back(secondsBetween(t0, t1));
                end_times[c].push_back(secondsBetween(ctx.epoch, t1));
                log.record(nullptr, "serve.request", "serve", t0, t1, span_id,
                           keep, 1e6);
                if (!decomposed) {
                    log.record(handle, "serve.handle", "serve", t0, t1,
                               span_id, false, 1e6);
                    log.record(handle_n, "serve.handle", "serve", t0, t1,
                               span_id, false, 1e6);
                }
            }
            ++tally.attempted;
            const bool ok =
                entry == kCold
                    ? fnv1a(reply) == bench.oracle.coldHashes[c][j]
                    : reply == bench.oracle.hotReplies[entry];
            if (!ok)
                tally.fail("design reply mismatch: " + reply.substr(0, 96));
        };
        for (std::size_t i = 0; i < shape.warmup; ++i)
            one(false);
        sync.arrive_and_wait();
        starts[c] = Clock::now();
        const Clock::time_point deadline =
            starts[c] + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(shape.seconds));
        do {
            one(true);
        } while (Clock::now() < deadline);
        ends[c] = Clock::now();
    };

    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < clients; ++c)
        threads.emplace_back(client, c);
    for (std::thread &t : threads)
        t.join();

    // Bucket every timed request by completion time into fixed
    // windows; a last window cut short by the end of the run is dropped.
    const double start =
        secondsBetween(ctx.epoch, *std::min_element(starts.begin(), starts.end()));
    const double end =
        secondsBetween(ctx.epoch, *std::max_element(ends.begin(), ends.end()));
    const auto full = static_cast<std::size_t>((end - start) / kDesignWindowS);
    std::vector<std::vector<double>> buckets(std::max<std::size_t>(full, 1));
    for (std::uint32_t c = 0; c < clients; ++c) {
        ctx.tally.merge(tallies[c]);
        ctx.log.merge(*logs[c]);
        for (std::size_t i = 0; i < latencies[c].size(); ++i) {
            const auto w = static_cast<std::size_t>(
                (end_times[c][i] - start) / kDesignWindowS);
            if (w < buckets.size())
                buckets[w].push_back(latencies[c][i]);
        }
    }
    StreamWindows out;
    for (const std::vector<double> &b : buckets) {
        if (b.empty())
            continue;
        out.medianMs.push_back(median(b) * 1e3);
        out.p99Ms.push_back(quantile(b, 0.99) * 1e3);
        out.qps.push_back(static_cast<double>(b.size()) /
                          std::min(kDesignWindowS, end - start));
    }
    if (ctx.log.enabled()) {
        if (shape.primary) {
            const engine::CacheCounters after =
                service.engine().cacheCounters();
            const double hits = static_cast<double>(after.hits - before.hits);
            const double misses =
                static_cast<double>(after.misses - before.misses);
            ctx.log.series("engine.cache_hit_rate")
                .push_back(hits / (hits + misses));
            ctx.log.series("engine.cache_evictions")
                .push_back(static_cast<double>(after.evictions -
                                               before.evictions));
        }
    }
    return out;
}

/** Timing of one sweep variant. */
struct VariantTiming
{
    double setupS = 0.0;
    double latencyS = 0.0;
};

/**
 * Solve and frontier one variant on a fresh 2-thread engine: expand
 * the grid, solve every point, extract the Pareto frontier and export
 * it as CSV.  The checks run after the timed window.  In the traced
 * run, variants with `traced` false record only their wall time, so
 * stage sums reconcile against untraced variants of the same run.
 */
VariantTiming
runVariant(Context &ctx, const Variant &v, std::uint64_t id, bool drop,
           bool traced)
{
    ThreadLog untraced_log(false, 0, ctx.epoch);
    ThreadLog &log = traced ? ctx.log : untraced_log;
    const Clock::time_point s0 = Clock::now();
    auto eng = std::make_unique<engine::SweepEngine>(engineOptions(2));
    const Clock::time_point s1 = Clock::now();

    const Clock::time_point a = Clock::now();
    const std::vector<DesignInputs> inputs = expandVariant(v);
    const Clock::time_point b = Clock::now();
    const std::vector<DesignResult> points = eng->solvePoints(inputs);
    const Clock::time_point c = Clock::now();
    std::vector<std::size_t> frontier = engine::paretoFrontier(points);
    const Clock::time_point d = Clock::now();
    std::vector<DesignResult> series;
    series.reserve(frontier.size());
    for (const std::size_t i : frontier)
        series.push_back(points[i]);
    const std::string csv_text = sweepToCsv(series).str();
    const Clock::time_point e = Clock::now();

    const std::uint64_t span_id = (std::uint64_t{1} << 50) | id;
    log.record(nullptr, "engine.setup", "engine", s0, s1, span_id, true, 1e3);
    log.record(&log.series("dse.expand_ms"), "dse.expand", "dse", a, b,
               span_id, true, 1e3);
    log.record(&log.series("engine.solve_ms"), "engine.solve", "engine", b, c,
               span_id, true, 1e3);
    log.record(&log.series("engine.frontier_ms"), "engine.frontier", "engine",
               c, d, span_id, true, 1e3);
    log.record(&log.series("dse.export_ms"), "dse.export", "dse", d, e,
               span_id, true, 1e3);
    log.record(nullptr, "sweep.variant", "sweep", a, e, span_id, true, 1e3);
    if (!traced && ctx.log.enabled())
        ctx.log.series("sweep.untraced_ms").push_back(secondsBetween(a, e) * 1e3);

    ++ctx.tally.attempted;
    std::string error;
    if (inputs.size() != kVariantPoints || points.size() != inputs.size())
        error = "variant expanded to " + std::to_string(inputs.size()) +
                " points";
    // The export is a header line plus one line per frontier point.
    if (error.empty() &&
        static_cast<std::size_t>(std::count(csv_text.begin(), csv_text.end(),
                                            '\n')) != frontier.size() + 1)
        error = "exported CSV lines differ from the frontier";
    if (drop && !frontier.empty())
        frontier.erase(frontier.begin() +
                       static_cast<long>(frontier.size() / 2));
    if (error.empty())
        error = checkFrontier(points, frontier);
    SeedRng rng(subSeed(ctx.config.seed, 900 + id));
    for (std::size_t k = 0; error.empty() && k < kScalarSamples; ++k) {
        const std::size_t i = rng.below(inputs.size());
        if (!sameResult(solveDesign(inputs[i]), points[i]))
            error = "engine result " + std::to_string(i) +
                    " differs from scalar solveDesign";
    }
    if (!error.empty())
        ctx.tally.fail("variant " + std::to_string(id) + ": " + error);
    if (log.enabled() && id == 0) {
        std::size_t feasible = 0;
        for (const DesignResult &r : points)
            feasible += r.feasible ? 1 : 0;
        log.series("engine.frontier_points")
            .push_back(static_cast<double>(frontier.size()));
        log.series("engine.feasible_points")
            .push_back(static_cast<double>(feasible));
    }
    return {secondsBetween(s0, s1), secondsBetween(a, e)};
}

/** Precomputed replies and frames of an analysis pool. */
struct AnalysisBench
{
    std::vector<serve::Request> pool;
    std::vector<std::string> frames;
    std::vector<Expected> expected;
    /** Latency of each query (ms), one entry per pass. */
    std::vector<std::vector<double>> queryMs;
};

AnalysisBench
makeAnalysisBench(Context &ctx, std::size_t cycles)
{
    AnalysisBench bench;
    bench.pool = makeAnalysisPool(ctx.config.seed, cycles);
    engine::SweepEngine oracle_engine(engineOptions(2));
    for (const serve::Request &r : bench.pool) {
        bench.frames.push_back(serve::serializeRequest(r));
        bench.expected.push_back(
            expectedAnalysisReply(r, oracle_engine, ctx.log));
    }
    if (ctx.config.inject == Inject::FlipOracle)
        bench.expected[0].reply[10] ^= 1;
    return bench;
}

const char *
kindMetric(QueryKind kind)
{
    switch (kind) {
    case QueryKind::Pareto:
        return "pareto_ms";
    case QueryKind::Explore:
        return "explore_ms";
    case QueryKind::Risk:
        return "risk_ms";
    default:
        return "codesign_ms";
    }
}

const char *
kindSpan(QueryKind kind)
{
    switch (kind) {
    case QueryKind::Pareto:
        return "serve.pareto";
    case QueryKind::Explore:
        return "serve.explore";
    case QueryKind::Risk:
        return "serve.risk";
    default:
        return "serve.codesign";
    }
}

/**
 * One pass of the batch-class mix: one client sends every query of
 * the pool once, in order, through `handleFrame`.  Each query's
 * latency is kept per pass (see summarizeAnalysis); with `whole`, the
 * pass is also one window of serve_analysis's rates.  With `cold`,
 * the engine cache is cleared first so every pass does the same work.
 */
void
runAnalysisPass(Context &ctx, serve::Service &service, AnalysisBench &bench,
                bool whole, bool cold)
{
    if (cold)
        service.engine().clearCache();
    bench.queryMs.resize(bench.pool.size());
    double points = 0.0;
    const std::uint64_t pass = ctx.passes++;
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t q = 0; q < bench.pool.size(); ++q) {
        const QueryKind kind = bench.pool[q].kind;
        const Clock::time_point t0 = Clock::now();
        const std::string reply = service.handleFrame(
            bench.frames[q], secondsBetween(ctx.epoch, t0));
        const Clock::time_point t1 = Clock::now();
        bench.queryMs[q].push_back(secondsBetween(t0, t1) * 1e3);
        ctx.log.record(nullptr, kindSpan(kind), "serve", t0, t1,
                       (std::uint64_t{3} << 50) | (pass << 20) | q, true,
                       1e3);
        ++ctx.tally.attempted;
        points += static_cast<double>(bench.expected[q].points);
        if (reply != bench.expected[q].reply)
            ctx.tally.fail(std::string(kindSpan(kind)) +
                           " reply mismatch: " + reply.substr(0, 96));
    }
    if (whole) {
        const double wall = secondsBetween(pass_start, Clock::now());
        ctx.windows["throughput_qps"].push_back(
            static_cast<double>(bench.pool.size()) / wall);
        ctx.windows["points_per_s"].push_back(points / wall);
    }
}

/**
 * Per-kind metrics of an analysis pool: each query's executions are
 * its windows (see Context::windows), and a kind reports the median over
 * its distinct queries of their median latencies.  With `whole`, also
 * serve_analysis's cycle latency: the median over cycles of the sum
 * of their queries' median latencies.
 */
void
summarizeAnalysis(Context &ctx, const AnalysisBench &bench, bool whole)
{
    std::map<std::string, std::vector<double>> by_kind;
    std::vector<double> cycles;
    for (std::size_t q = 0; q < bench.pool.size(); ++q) {
        const QueryKind kind = bench.pool[q].kind;
        const double typical = median(bench.queryMs[q]);
        by_kind[kindMetric(kind)].push_back(typical);
        if (kind == QueryKind::Pareto)
            cycles.push_back(0.0);
        cycles.back() += typical;
    }
    for (const auto &[name, values] : by_kind)
        ctx.e2e[name] = median(values);
    if (whole)
        ctx.e2e["latency_ms"] = median(cycles);
}

Clock::time_point
deadlineAfter(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/**
 * The probe: a short seeded share of the traffic a workload does not
 * carry itself, on its own Service, run between segments of the
 * workload's own traffic so it sees the same machine conditions.  It
 * gives every workload a value for every end-to-end name: design
 * traffic gives `p99_ms`, cold passes of a small analysis pool give
 * the per-kind medians.
 */
struct Probe
{
    std::unique_ptr<serve::Service> analysisService;
    AnalysisBench analysis;
    bool warmed = false;
};

Probe
makeProbe(Context &ctx)
{
    Probe probe;
    const std::string &w = ctx.config.workload;
    if (w != "serve_interactive")
        ctx.design = makeDesignBench(ctx, 1, 2, nullptr);
    if (w != "serve_analysis") {
        probe.analysisService = makeService(ctx, 2, nullptr);
        probe.analysis = makeAnalysisBench(ctx, kProbeCycles);
    }
    return probe;
}

void
runProbe(Context &ctx, Probe &probe)
{
    if (probe.analysisService)
        runAnalysisPass(ctx, *probe.analysisService, probe.analysis, false,
                        true);
    if (ctx.config.workload != "serve_interactive") {
        StreamShape shape;
        shape.warmup = probe.warmed ? 0 : kProbeWarmup;
        shape.seconds = kProbeDesignS;
        probe.warmed = true;
        const StreamWindows out = runDesignStream(ctx, *ctx.design, shape);
        auto &p99 = ctx.windows["p99_ms"];
        p99.insert(p99.end(), out.p99Ms.begin(), out.p99Ms.end());
    }
}

/** sweep_cold: a seeded sequence of cold reference variants. */
void
sweepCold(Context &ctx, Probe &probe)
{
    std::vector<double> setup;
    const Clock::time_point deadline = deadlineAfter(ctx.config.seconds);
    std::size_t i = 0;
    do {
        for (int k = 0; k < 2; ++k, ++i) {
            const VariantTiming t = runVariant(
                ctx, variantAt(ctx.config.seed, kSweepStream, i), i,
                ctx.config.inject == Inject::DropFrontier && i == 0,
                i % 2 == 0);
            setup.push_back(t.setupS);
            // One window per variant (see Context::windows).
            ctx.windows["latency_ms"].push_back(t.latencyS * 1e3);
            ctx.windows["throughput_qps"].push_back(1.0 / t.latencyS);
            ctx.windows["points_per_s"].push_back(
                static_cast<double>(kVariantPoints) / t.latencyS);
        }
        runProbe(ctx, probe);
    } while (Clock::now() < deadline);
    ctx.e2e["setup_s"] = median(setup);
}

/** serve_interactive: 2 clients of design traffic on a full cache. */
void
serveInteractive(Context &ctx, Probe &probe)
{
    StreamShape shape;
    shape.clients = 2;
    shape.warmup = 20000;
    shape.seconds = kInteractiveSegmentS;
    const Clock::time_point deadline = deadlineAfter(ctx.config.seconds);
    do {
        const StreamWindows out = runDesignStream(ctx, *ctx.design, shape);
        shape.warmup = 0;
        for (const auto &[name, values] :
             {std::pair{"latency_ms", &out.medianMs},
              std::pair{"p99_ms", &out.p99Ms},
              std::pair{"throughput_qps", &out.qps},
              std::pair{"points_per_s", &out.qps}}) {
            auto &dst = ctx.windows[name];
            dst.insert(dst.end(), values->begin(), values->end());
        }
        runProbe(ctx, probe);
    } while (Clock::now() < deadline);
}

/** serve_analysis: 1 client of the batch-class mix. */
void
serveAnalysis(Context &ctx, Probe &probe, serve::Service &service)
{
    AnalysisBench bench = makeAnalysisBench(ctx, kAnalysisCycles);
    // Fill the cache to capacity before timing, as in serve_interactive.
    service.engine().solvePoints(fillPoints(ctx.config.seed, kCacheCapacity));
    const Clock::time_point deadline = deadlineAfter(ctx.config.seconds);
    do {
        runAnalysisPass(ctx, service, bench, true, false);
        runProbe(ctx, probe);
    } while (Clock::now() < deadline);
    summarizeAnalysis(ctx, bench, true);
}

/** Time `reps` runs of `call` into the series `name` (ms). */
template <typename Fn>
void
timeReps(ThreadLog &log, const char *name, int reps, double scale, Fn &&call)
{
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point a = Clock::now();
        call();
        log.record(&log.series(name), name, "probe", a, Clock::now(), 0, true,
                   scale);
    }
}

/** Design-point identity used to match frontiers across runs. */
std::string
pointKey(const DesignResult &r)
{
    return designFrame(0, r.inputs);
}

/**
 * The layer probe of the traced run: each layer's public functions on
 * the workload's seeded reference variant, off the blocking path.
 * Series the main loop already filled are not re-measured.
 */
void
layerProbe(Context &ctx)
{
    ThreadLog &log = ctx.log;
    const Variant v0 = variantAt(ctx.config.seed, kSweepStream, 0);
    if (log.series("sweep.untraced_ms").empty()) {
        for (std::size_t i = 0; i < 4; ++i)
            runVariant(ctx, variantAt(ctx.config.seed, kSweepStream, i), i,
                       false, i % 2 == 0);
    }
    const std::vector<DesignInputs> inputs = expandVariant(v0);

    std::vector<DesignResult> results(inputs.size());
    timeReps(log, "dse.kernel_ms", 3, 1e3,
             [&] { solveDesignBatch(inputs, results); });

    for (const int threads : {1, 2}) {
        const char *name =
            threads == 1 ? "engine.solve_1t_ms" : "engine.solve_2t_ms";
        for (int r = 0; r < 3; ++r) {
            engine::SweepEngine eng(engineOptions(threads));
            timeReps(log, name, 1, 1e3, [&] { eng.solvePoints(inputs); });
            if (threads == 2 && r == 0) {
                // Every point is now cached: memo hits only.
                const std::size_t hits = 4096;
                for (int rep = 0; rep < 5; ++rep) {
                    const Clock::time_point a = Clock::now();
                    for (std::size_t i = 0; i < hits; ++i)
                        eng.solve(inputs[i * 8]);
                    log.series("engine.hit_us")
                        .push_back(secondsBetween(a, Clock::now()) * 1e6 /
                                   static_cast<double>(hits));
                }
            }
        }
    }

    const ClientPlan plan =
        makeClientPlan(ctx.config.seed, 0, 1, kScalarProbePoints);
    for (int rep = 0; rep < 5; ++rep) {
        const Clock::time_point a = Clock::now();
        for (const DesignInputs &p : plan.cold)
            solveDesign(p);
        log.series("dse.scalar_us")
            .push_back(secondsBetween(a, Clock::now()) * 1e6 /
                       static_cast<double>(plan.cold.size()));
    }

    // Adaptive vs exhaustive on the first explore query's space.
    const Variant ve = variantAt(ctx.config.seed, kExploreStream, 0);
    std::set<std::string> exhaustive_front;
    {
        engine::SweepEngine eng(engineOptions(2));
        const Clock::time_point a = Clock::now();
        const std::vector<DesignResult> all = eng.solvePoints(expandVariant(ve));
        const std::vector<std::size_t> front = engine::paretoFrontier(all);
        log.record(&log.series("explore.exhaustive_ms"), "explore.exhaustive",
                   "probe", a, Clock::now(), 0, true, 1e3);
        for (const std::size_t i : front)
            exhaustive_front.insert(pointKey(all[i]));
    }
    {
        engine::SweepEngine eng(engineOptions(2));
        explore::ExploreOptions options;
        options.maxEvaluations = kVariantPoints / 10;
        explore::AdaptiveDriver driver(eng, options);
        const explore::ExploreResult result = driver.run(variantSpace(ve));
        std::size_t matched = 0;
        for (const std::size_t i : result.frontier)
            matched += exhaustive_front.count(pointKey(result.points[i]));
        log.series("explore.fidelity")
            .push_back(static_cast<double>(matched) /
                       static_cast<double>(exhaustive_front.size()));
    }

    // Lock contention: the design stream at the client count the
    // workload's own design traffic did not use.
    const bool have_1c = !log.series("serve.handle_us.1c").empty();
    StreamShape shape;
    shape.clients = have_1c ? 2 : 1;
    shape.warmup = kProbeWarmup;
    shape.seconds = kInteractiveSegmentS;
    shape.primary = false;
    if (ctx.design->plans.size() < shape.clients) {
        ctx.design->plans.push_back(makeClientPlan(
            ctx.config.seed, 1, kScheduleLength, kColdPerClient));
        ctx.design->cursors.resize(2);
        ctx.design->oracle = makeDesignOracle(
            ctx.design->pool, ctx.design->plans, ctx.config.inject);
    }
    runDesignStream(ctx, *ctx.design, shape);
}

double
med(const ThreadLog &log, const std::string &name)
{
    const auto it = log.samples().find(name);
    return it == log.samples().end() ? 0.0 : median(it->second);
}

/** Per-layer metrics from the traced run's samples. */
std::map<std::string, double>
perLayer(const ThreadLog &log)
{
    std::map<std::string, double> m;
    for (const char *name :
         {"dse.expand_ms", "dse.kernel_ms", "dse.scalar_us", "dse.export_ms",
          "engine.solve_ms", "engine.frontier_ms", "engine.frontier_points",
          "engine.feasible_points", "engine.hit_us", "engine.cache_hit_rate",
          "engine.cache_evictions", "serve.parse_us", "serve.validate_us",
          "serve.admit_us", "serve.execute_us", "serve.serialize_us",
          "serve.handle_us", "serve.pareto_serialize_ms",
          "serve.design_reply_bytes", "serve.pareto_reply_bytes",
          "explore.driver_ms", "explore.evaluations", "explore.frontier_yield",
          "explore.exhaustive_ms", "explore.fidelity", "risk.scatter_ms",
          "risk.mc_ms", "risk.solves_per_s", "codesign.calibrate_s",
          "codesign.run_ms", "codesign.configs"})
        m[name] = med(log, name);
    m["obs.sweep_stage_sum_ratio"] =
        (m["dse.expand_ms"] + m["engine.solve_ms"] + m["engine.frontier_ms"] +
         m["dse.export_ms"]) /
        med(log, "sweep.untraced_ms");
    const double kernel_ms = m["dse.kernel_ms"];
    const double solve_1t = med(log, "engine.solve_1t_ms");
    const double solve_2t = med(log, "engine.solve_2t_ms");
    m["dse.kernel_mpts_per_s"] =
        static_cast<double>(kVariantPoints) / (kernel_ms * 1e3);
    m["engine.kernel_share"] = kernel_ms / (2.0 * solve_2t);
    m["engine.scaling_2t"] = solve_1t / solve_2t;
    m["serve.stage_sum_ratio"] =
        med(log, "serve.stage_sum_us") / m["serve.handle_us"];
    m["serve.two_client_slowdown"] =
        med(log, "serve.handle_us.2c") / med(log, "serve.handle_us.1c");
    return m;
}

} // namespace

bool
isWorkload(const std::string &name)
{
    return name == "sweep_cold" || name == "serve_interactive" ||
           name == "serve_analysis";
}

RunResult
runWorkload(const RunConfig &config)
{
    Context ctx(config);
    // The workload's own Service comes first, so its set-up includes
    // the process's roofline calibration.
    double setup_s = 0.0;
    std::unique_ptr<serve::Service> analysis_service;
    if (config.workload == "serve_interactive")
        ctx.design = makeDesignBench(ctx, 2, 1, &setup_s);
    else if (config.workload == "serve_analysis")
        analysis_service = makeService(ctx, 2, &setup_s);
    Probe probe = makeProbe(ctx);
    if (config.workload == "sweep_cold") {
        sweepCold(ctx, probe);
    } else {
        ctx.e2e["setup_s"] = setup_s;
        if (config.workload == "serve_interactive")
            serveInteractive(ctx, probe);
        else
            serveAnalysis(ctx, probe, *analysis_service);
    }
    if (probe.analysisService)
        summarizeAnalysis(ctx, probe.analysis, false);
    ctx.e2e["peak_rss_mb"] = peakRssMb();
    for (const auto &[name, values] : ctx.windows)
        ctx.e2e[name] = median(values);
    RunResult result;
    if (config.trace) {
        layerProbe(ctx);
        result.perLayer = perLayer(ctx.log);
        result.spans = ctx.log.spans();
    }
    result.tally = ctx.tally;
    result.endToEnd = ctx.e2e;
    result.inputsHash = inputsHash(config.workload, config.seed);
    return result;
}

double
measureServiceSetup()
{
    RunConfig config;
    Context ctx(config);
    double setup_s = 0.0;
    makeService(ctx, 2, &setup_s);
    return setup_s;
}

std::uint64_t
inputsHash(const std::string &workload, std::uint64_t seed)
{
    std::uint64_t h = fnv1a(workload);
    const auto add_design = [&](std::uint32_t clients) {
        const DesignPool pool = makeDesignPool(seed);
        for (const std::string &f : pool.hotFrames)
            h = fnv1a(f, h);
        for (std::uint32_t c = 0; c < clients; ++c) {
            const ClientPlan plan =
                makeClientPlan(seed, c, kScheduleLength, kColdPerClient);
            h = fnv1a(std::string_view(
                          reinterpret_cast<const char *>(plan.schedule.data()),
                          plan.schedule.size() * sizeof(std::uint32_t)),
                      h);
            for (std::size_t j = 0; j < plan.cold.size(); ++j)
                h = fnv1a(designFrame(coldId(c, j), plan.cold[j]), h);
        }
        for (const DesignInputs &p : fillPoints(seed, kCacheCapacity))
            h = fnv1a(designFrame(0, p), h);
    };
    if (workload == "sweep_cold") {
        for (std::size_t i = 0; i < 64; ++i) {
            for (const SweepSpec &spec :
                 variantSpecs(variantAt(seed, kSweepStream, i))) {
                serve::Request r;
                r.kind = QueryKind::Sweep;
                r.spec = spec;
                h = fnv1a(serve::serializeRequest(r), h);
            }
        }
        add_design(1);
        h = hashRequests(makeAnalysisPool(seed, kProbeCycles), h);
    } else if (workload == "serve_interactive") {
        add_design(2);
        h = hashRequests(makeAnalysisPool(seed, kProbeCycles), h);
    } else {
        h = hashRequests(makeAnalysisPool(seed, kAnalysisCycles), h);
        add_design(1);
    }
    return h;
}

} // namespace perfbench

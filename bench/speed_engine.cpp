/**
 * @file
 * SPEED-ENGINE: event-core and end-to-end engine speed harness.
 *
 * Two measurements back the hot-path engine refactor:
 *
 *  1. Event-core microbenchmark. A faithful replica of the
 *     pre-refactor engine (shared_ptr<EventRecord> records and
 *     std::function callbacks in a std::priority_queue) and the slab
 *     engine run the *identical* deterministic schedule/cancel/
 *     reschedule workload; the ratio of their simulated-seconds-per-
 *     wall-second is the refactor's speedup on the event core. In a
 *     Release build (NDEBUG, no sanitizers) the harness fails unless
 *     the slab engine is at least 5x faster.
 *
 *  2. FIG-01 end-to-end points. The paper's operating point runs in
 *     per-user mode, in fluid mode at the same population (for a
 *     like-for-like speed comparison) and in fluid mode at a far
 *     larger population (the "100x bigger runs" target), each
 *     reporting simulated-seconds-per-wall-second and events/sec.
 *
 * Emits BENCH_speed_engine.json: the FIG-01 runs are the points, the
 * engine-core comparison and the per-point speed numbers are tables.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/table.hh"
#include "common.hh"
#include "core/experiment.hh"
#include "sim/simulation.hh"

using namespace microscale;

namespace
{

/**
 * Replica of the pre-refactor event engine, kept verbatim-equivalent
 * so the microbenchmark compares against what the code base actually
 * shipped: one shared_ptr allocation per event, a type-erased
 * std::function callback (heap-allocated once the capture outgrows
 * the small-buffer), and a priority_queue of entries holding another
 * shared_ptr copy.
 */
class LegacyEngine
{
  public:
    struct Record
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::function<void()> fn;
        bool cancelled = false;
    };

    class Handle
    {
      public:
        Handle() = default;
        explicit Handle(std::shared_ptr<Record> rec)
            : rec_(std::move(rec))
        {
        }
        void cancel()
        {
            if (rec_)
                rec_->cancelled = true;
            rec_.reset();
        }

      private:
        std::shared_ptr<Record> rec_;
    };

    Tick now() const { return now_; }
    std::uint64_t eventsProcessed() const { return events_processed_; }

    Handle scheduleAt(Tick when, std::function<void()> fn)
    {
        auto rec = std::make_shared<Record>();
        rec->when = when;
        rec->seq = next_seq_++;
        rec->fn = std::move(fn);
        ++pending_;
        queue_.push(Entry{rec->when, rec->seq, rec});
        return Handle(rec);
    }

    Handle scheduleAfter(Tick delay, std::function<void()> fn)
    {
        return scheduleAt(now_ + delay, std::move(fn));
    }

    Tick run()
    {
        while (pending_ > 0 && step()) {
        }
        return now_;
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::shared_ptr<Record> rec;
    };
    struct Later
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    bool step()
    {
        while (!queue_.empty()) {
            Entry top = queue_.top();
            queue_.pop();
            --pending_;
            if (top.rec->cancelled)
                continue;
            now_ = top.when;
            ++events_processed_;
            auto fn = std::move(top.rec->fn);
            top.rec->fn = nullptr;
            fn();
            return true;
        }
        return false;
    }

    std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t events_processed_ = 0;
    std::uint64_t pending_ = 0;
};

template <typename Engine>
struct HandleOf
{
    using type = typename Engine::Handle;
};
template <>
struct HandleOf<sim::Simulation>
{
    using type = sim::EventHandle;
};

/**
 * The deterministic churn workload both engines execute. A fixed set
 * of actors reschedule themselves from a shared pre-drawn delay table
 * (so neither engine pays RNG cost); each firing models one request
 * crossing the service mesh: it arms one guard timeout per hop
 * (cancelling the previous request's timeouts first), the way the
 * resilient mesh arms per-hop deadlines that are almost always
 * cancelled when the response returns, and the drivers cancel pending
 * think events. Cancelled timeouts are where the engines diverge: the
 * legacy queue carries every cancelled shell until its distant expiry
 * - two heap allocations at arm time, a full deep-heap pop when the
 * shell surfaces - while the slab engine frees the slot at cancel in
 * O(1) and compacts shells out in bulk. That asymmetry is exactly the
 * hot-path win being measured. The callback captures (this, index,
 * tick) mirror the real call sites: 24 bytes, beyond std::function's
 * small-buffer but inside EventFn's inline 48.
 */
template <typename Engine>
class Churn
{
  public:
    explicit Churn(std::uint64_t target) : target_(target)
    {
        Rng rng(42, "bench.speed_engine.delays");
        delays_.resize(4096);
        for (Tick &d : delays_)
            d = kMicrosecond * (1 + rng.uniformInt(0, 999));
        decoys_.resize(kActors * kHops);
    }

    /** Run to completion; returns wall seconds spent inside run(). */
    double run()
    {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < kActors; ++i) {
            const Tick at = nextDelay();
            eng_.scheduleAt(at, [this, i, at] { tick(i, at); });
        }
        eng_.run();
        const auto elapsed = std::chrono::steady_clock::now() - t0;
        return std::chrono::duration<double>(elapsed).count();
    }

    Tick simNow() const { return eng_.now(); }
    std::uint64_t events() const { return eng_.eventsProcessed(); }

  private:
    static constexpr std::size_t kActors = 512;
    /** Guard timeouts armed (and later cancelled) per request. */
    static constexpr std::size_t kHops = 8;

    Tick nextDelay()
    {
        return delays_[cursor_++ & (delays_.size() - 1)];
    }

    void tick(std::size_t i, Tick scheduled_at)
    {
        (void)scheduled_at;
        if (++fired_ >= target_)
            return;
        for (std::size_t h = 0; h < kHops; ++h) {
            auto &guard = decoys_[i * kHops + h];
            guard.cancel();
            guard = eng_.scheduleAfter((h + 1) * 20 * kMillisecond,
                                       [this, i] { decoyFire(i); });
        }
        const Tick at = eng_.now() + nextDelay();
        eng_.scheduleAt(at, [this, i, at] { tick(i, at); });
    }

    void decoyFire(std::size_t i)
    {
        (void)i;
        ++decoy_fired_;
    }

    Engine eng_;
    std::vector<Tick> delays_;
    std::vector<typename HandleOf<Engine>::type> decoys_;
    std::uint64_t target_;
    std::uint64_t fired_ = 0;
    std::uint64_t decoy_fired_ = 0;
    std::size_t cursor_ = 0;
};

struct EngineScore
{
    std::uint64_t events = 0;
    double wallSeconds = 0.0;
    double simSeconds = 0.0;
    double simPerWall() const
    {
        return wallSeconds > 0 ? simSeconds / wallSeconds : 0.0;
    }
    double eventsPerSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(events) / wallSeconds
                   : 0.0;
    }
};

template <typename Engine>
EngineScore
scoreEngine(std::uint64_t target)
{
    // One untimed warm-up pass heats the allocator and caches so the
    // first-timed engine is not penalized; then the best of two timed
    // repetitions, since scheduler or page-cache noise only ever
    // inflates wall time.
    { Churn<Engine> warm(target / 8 + 1); warm.run(); }
    EngineScore best;
    for (int rep = 0; rep < 2; ++rep) {
        Churn<Engine> churn(target);
        EngineScore s;
        s.wallSeconds = churn.run();
        s.events = churn.events();
        s.simSeconds = ticksToSeconds(churn.simNow());
        if (rep == 0 || s.wallSeconds < best.wallSeconds)
            best = s;
    }
    return best;
}

/** One FIG-01-scenario run with wall-clock instrumentation. */
struct TimedRun
{
    std::string label;
    unsigned users = 0;
    core::RunResult result;
    double wallSeconds = 0.0;
    double simSeconds = 0.0;
};

TimedRun
timedRun(const std::string &label, const core::ExperimentConfig &config)
{
    inform("running ", label, " (", config.load.users, " users)");
    TimedRun t;
    t.label = label;
    t.users = config.load.users;
    const auto t0 = std::chrono::steady_clock::now();
    t.result = core::runExperiment(config);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    t.wallSeconds = std::chrono::duration<double>(elapsed).count();
    t.simSeconds = ticksToSeconds(config.warmup + config.measure);
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    benchx::init(argc, argv);

    const bool fast = benchx::fastMode();
    const core::ExperimentConfig reference = benchx::paperConfig();
    benchx::SeriesReporter rep(
        "SPEED-ENGINE", "speed_engine",
        "engine-core speedup and FIG-01 simulated-seconds-per-wall-second",
        reference);

    // --- Part 1: event-core microbenchmark, legacy vs slab. ---
    const std::uint64_t target = fast ? 300'000 : 3'000'000;
    const EngineScore legacy = scoreEngine<LegacyEngine>(target);
    const EngineScore slab = scoreEngine<sim::Simulation>(target);
    if (legacy.events != slab.events) {
        fatal("engines diverged on the identical workload: legacy ran ",
              legacy.events, " events, slab ran ", slab.events);
    }
    const double speedup =
        legacy.simPerWall() > 0 ? slab.simPerWall() / legacy.simPerWall()
                                : 0.0;

    TextTable core_table({"engine", "events", "wall (s)", "sim (s)",
                          "sim-s/wall-s", "events/s"});
    core_table.row()
        .cell("legacy (shared_ptr+std::function)")
        .cell(legacy.events)
        .cell(legacy.wallSeconds, 3)
        .cell(legacy.simSeconds, 3)
        .cell(legacy.simPerWall(), 1)
        .cell(legacy.eventsPerSec(), 0);
    core_table.row()
        .cell("slab (arena+EventFn)")
        .cell(slab.events)
        .cell(slab.wallSeconds, 3)
        .cell(slab.simSeconds, 3)
        .cell(slab.simPerWall(), 1)
        .cell(slab.eventsPerSec(), 0);
    core_table.row()
        .cell("speedup")
        .cell("")
        .cell("")
        .cell("")
        .cell(speedup, 2)
        .cell("");
    rep.table(core_table, "event-core microbenchmark (identical "
                          "schedule/cancel/reschedule workload)");

#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
    if (speedup < 5.0) {
        fatal("slab engine is only ", speedup,
              "x the legacy engine on the event core; the refactor "
              "promises >= 5x in Release builds");
    }
    inform("event-core speedup ", speedup, "x (>= 5x required): ok");
#else
    inform("event-core speedup ", speedup,
           "x (5x floor not enforced without NDEBUG / with sanitizers)");
#endif

    // --- Part 2: FIG-01 end-to-end, per-user vs fluid. ---
    core::ExperimentConfig per_user = benchx::paperConfig();
    core::ExperimentConfig fluid = per_user;
    fluid.load.fluidThreshold = 1; // force fluid mode at any size
    core::ExperimentConfig fluid_big = fluid;
    fluid_big.load.users = fast ? 30'000 : 300'000;

    std::vector<TimedRun> runs;
    runs.push_back(timedRun("per-user/3000", per_user));
    runs.push_back(timedRun("fluid/3000", fluid));
    runs.push_back(timedRun(
        "fluid/" + std::to_string(fluid_big.load.users), fluid_big));

    TextTable fig_table({"point", "users", "events", "wall (s)",
                         "sim-s/wall-s", "events/s"});
    for (const TimedRun &t : runs) {
        rep.add(t.label, t.result);
        const double spw =
            t.wallSeconds > 0 ? t.simSeconds / t.wallSeconds : 0.0;
        const double evps =
            t.wallSeconds > 0
                ? static_cast<double>(t.result.eventsProcessed) /
                      t.wallSeconds
                : 0.0;
        fig_table.row()
            .cell(t.label)
            .cell(t.users)
            .cell(t.result.eventsProcessed)
            .cell(t.wallSeconds, 2)
            .cell(spw, 2)
            .cell(evps, 0);
    }
    rep.table(fig_table, "FIG-01 scenario speed (per-user vs fluid)");

    rep.printSummaries();
    rep.finish();
    return 0;
}

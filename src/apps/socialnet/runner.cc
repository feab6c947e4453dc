#include "apps/socialnet/runner.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "base/logging.hh"
#include "core/harness.hh"

namespace microscale::socialnet
{

namespace
{

const char *
socialnetOpName(unsigned op)
{
    return opName(static_cast<OpType>(op));
}

} // namespace

core::RunResult
runSocialnet(const core::ExperimentConfig &config, const RunOptions &opts)
{
    if (config.openLoopRps <= 0.0)
        fatal("socialnet runner requires open-loop load "
              "(config.openLoopRps > 0)");

    // Base policy from the config, plus hedging on the wide fan-out
    // edges: the timeline mget legs are idempotent reads, the textbook
    // hedge candidates.
    svc::ResilienceConfig rc = config.resilience;
    if (opts.hedge) {
        rc.hedgeBudgetRatio = opts.hedgeBudget;
        svc::EdgePolicy hp;
        hp.hedge.delay = opts.hedgeDelay;
        hp.hedge.delayQuantile = opts.hedgeQuantile;
        hp.hedge.maxHedges = opts.maxHedges;
        rc.edges.push_back(
            {names::kHomeTimeline, names::kPostStorage, hp});
        rc.edges.push_back(
            {names::kUserTimeline, names::kPostStorage, hp});
    }

    // Declared before the world, so completions still in flight when
    // it is torn down never outlive what they record into.
    loadgen::Measurement measurement(kNumOps);
    measurement.setWindow(config.warmup, config.warmup + config.measure);
    Rng rng(config.seed, "socialnet.load");
    bool stopped = false;

    core::World world(config, rc);
    App app(world.mesh, opts.app, config.seed);

    // Plant the gray straggler in the fan-out tier: the last
    // post-storage replica computes slower but keeps answering, so
    // round-robin keeps routing ~1/replicas of the mget legs into it.
    if (opts.stragglerFactor > 1.0 && opts.app.storage.replicas >= 2) {
        world.mesh.service(names::kPostStorage)
            .setReplicaSlow(opts.app.storage.replicas - 1,
                            opts.stragglerFactor);
    }
    world.armFaults();

    // Self-scheduling Poisson arrivals.
    sim::Simulation &sim = world.sim;
    const double mean_gap_ns =
        static_cast<double>(kSecond) / config.openLoopRps;
    std::function<void()> arrive = [&] {
        if (stopped)
            return;
        const OpType op = app.sampleOp(rng);
        svc::Payload req = app.sampleRequest(op, rng);
        const Tick t0 = sim.now();
        world.mesh.callExternalS(
            names::kFrontend, opName(op), std::move(req),
            [&measurement, &sim, t0, op](const svc::Payload &resp,
                                         svc::Status st) {
                measurement.record(static_cast<unsigned>(op), t0,
                                   sim.now(), st, resp.degraded);
            });
        const double gap = rng.exponential(mean_gap_ns);
        sim.scheduleAfter(
            std::max<Tick>(1, static_cast<Tick>(std::llround(gap))),
            [&arrive] { arrive(); });
    };

    world.kernel.start();
    app.start();
    sim.scheduleAfter(1, [&arrive] { arrive(); });

    world.runWindows(app.services());
    stopped = true;

    core::RunResult result = world.harvest(
        measurement, socialnetOpName, names::kFrontend, false);

    constexpr double kMs = static_cast<double>(kMillisecond);
    core::FanoutSummary &fo = result.fanout;
    fo.active = true;
    fo.app = "socialnet";
    fo.depth = opts.app.depth;
    fo.services = app.serviceCount();
    fo.fanWidth = opts.app.fanWidth;
    fo.hedged = opts.hedge;
    fo.hedgeDelayMs = static_cast<double>(opts.hedgeDelay) / kMs;
    fo.hedgeQuantile = opts.hedgeQuantile;
    fo.hedgeBudgetRatio = opts.hedge ? opts.hedgeBudget : 0.0;
    const svc::HedgeStats &hs = world.mesh.hedgeStats();
    fo.firstAttempts = hs.firstAttempts;
    fo.hedgesLaunched = hs.launched;
    fo.hedgeWins = hs.wins;
    fo.hedgesDenied = hs.budgetDenied;
    fo.hedgesCancelled = hs.cancelled;
    fo.hedgeShare = hs.firstAttempts > 0
                        ? static_cast<double>(hs.launched) /
                              static_cast<double>(hs.firstAttempts)
                        : 0.0;
    // Tail amplification is read off the fan-out read path, not the
    // overall mix: the write/compose ops have their own latency modes
    // that would mask the synchronization tail.
    const QuantileHistogram &read =
        measurement.latencyNsFor(static_cast<unsigned>(OpType::ReadHome));
    fo.p50Ms = read.p50() / kMs;
    fo.p99Ms = read.p99() / kMs;
    fo.amplification = fo.p50Ms > 0.0 ? fo.p99Ms / fo.p50Ms : 0.0;

    app.stop();
    return result;
}

} // namespace microscale::socialnet

/**
 * @file
 * End-to-end runner for the socialnet application graph.
 *
 * Runs in the shared core::World with the same window protocol and
 * harvest as the TeaStore runners (trace attribution rooted at the
 * socialnet frontend). The loadgen drivers are typed on TeaStore, so
 * socialnet brings its own open-loop Poisson arrivals on a dedicated
 * RNG stream, recording into a loadgen::Measurement, and adds the
 * `fanout` summary block.
 */

#ifndef MICROSCALE_APPS_SOCIALNET_RUNNER_HH
#define MICROSCALE_APPS_SOCIALNET_RUNNER_HH

#include "apps/socialnet/app.hh"
#include "core/experiment.hh"

namespace microscale::socialnet
{

/** Socialnet-specific run options (graph shape, hedging, straggler). */
struct RunOptions
{
    AppParams app;

    /** Hedge the wide fan-out edges (timeline -> post-storage). */
    bool hedge = false;
    /** Fixed hedge delay (used until the quantile trigger warms up). */
    Tick hedgeDelay = 0;
    /** Hedge after this observed-latency quantile (0 = fixed only). */
    double hedgeQuantile = 0.0;
    /** Hedge tokens accrued per first attempt (see ResilienceConfig). */
    double hedgeBudget = 0.2;
    /** Extra legs beyond the first per call. */
    unsigned maxHedges = 1;

    /**
     * Plant a straggler: the last post-storage replica runs its
     * compute this many times slower (a gray replica in the fan-out
     * tier — the pathology hedging exists for). 1.0 disables.
     */
    double stragglerFactor = 6.0;
};

/**
 * Run the socialnet graph under open-loop Poisson load. Uses
 * config.machine/cores/smt/seed/warmup/measure/openLoopRps/net/rpc/
 * sched/overload/trace/faults and config.resilience as the base mesh
 * policy (hedge edges are appended per `opts`); fatal() when
 * config.openLoopRps <= 0.
 */
core::RunResult runSocialnet(const core::ExperimentConfig &config,
                             const RunOptions &opts);

} // namespace microscale::socialnet

#endif // MICROSCALE_APPS_SOCIALNET_RUNNER_HH

#include "autoscale/elastic.hh"

#include "base/logging.hh"
#include "core/harness.hh"

namespace microscale::autoscale
{

loadgen::LoadSchedule
makeSchedule(const std::string &name, double baseRps, double peakRps,
             Tick warmup, Tick measure)
{
    if (name == "constant")
        return loadgen::LoadSchedule::constant(baseRps);
    if (name == "spike") {
        return loadgen::LoadSchedule::spike(
            baseRps, peakRps, warmup + measure / 3, measure / 12,
            measure / 6, measure / 24);
    }
    if (name == "diurnal") {
        return loadgen::LoadSchedule::diurnal(
            baseRps, peakRps - baseRps, measure / 2,
            warmup + 2 * measure);
    }
    fatal("unknown load schedule '", name,
          "' (try constant, spike, diurnal)");
}

core::RunResult
runElastic(const ElasticConfig &config, AutoscalerTelemetry *telemetryOut)
{
    if (config.schedule.empty())
        fatal("runElastic needs a non-empty load schedule");
    // Checked here: a zero open-loop rate would select the closed loop.
    if (config.schedule.peakRate() <= 0.0)
        fatal("open-loop schedule needs a positive peak rate");
    core::ExperimentConfig base = config.base;
    base.openLoopRps = config.schedule.peakRate();
    base.loadSchedule = config.schedule;
    core::TeaStoreRun run(base, config.initialCores);

    AutoscalerParams as_params = config.autoscaler;
    if (!config.autoscale)
        as_params.policy = PolicyKind::Static;
    Autoscaler autoscaler(run.app, run.world.machine, run.world.budget,
                          run.plan, as_params);
    autoscaler.setAccountingWindow(base.warmup, base.warmup + base.measure);
    autoscaler.recordTimeline(config.recordTimeline);

    run.start();
    autoscaler.start();
    run.startLoad();
    core::RunResult &result = run.measure();

    const AutoscalerTelemetry &t = autoscaler.telemetry();
    core::ElasticSummary &es = result.elastic;
    es.active = true;
    es.schedule = config.schedule.name();
    es.policy = policyName(as_params.policy);
    es.placer = placerName(as_params.placer);
    es.offeredMeanRps =
        config.schedule.meanRate(base.warmup, base.warmup + base.measure);
    es.offeredPeakRps = config.schedule.peakRate();
    es.sloP99Ms = as_params.sloP99Ms;
    es.sloViolationSeconds = t.sloViolationSeconds;
    es.coreSecondsGranted = t.coreSecondsGranted;
    es.steadyStateCpus = t.steadyStateCpus;
    es.scaleOuts = t.scaleOuts;
    es.scaleIns = t.scaleIns;
    if (!t.scaleOutLagMs.empty()) {
        double sum = 0.0;
        for (double v : t.scaleOutLagMs)
            sum += v;
        es.scaleOutLagMeanMs =
            sum / static_cast<double>(t.scaleOutLagMs.size());
    }
    es.peakReplicas = t.peakReplicas;
    if (telemetryOut)
        *telemetryOut = t;

    core::RunResult out = run.finish();
    autoscaler.stop();
    return out;
}

} // namespace microscale::autoscale

#include "core/experiment.hh"

#include <sstream>

#include "core/harness.hh"

namespace microscale::core
{

RunResult
runExperiment(const ExperimentConfig &config)
{
    TeaStoreRun run(config);
    run.start();
    run.startLoad();
    run.measure();
    return run.finish();
}

DemandShares
measureDemand(ExperimentConfig config)
{
    config.placement = PlacementKind::OsDefault;
    config.warmup = 300 * kMillisecond;
    config.measure = 700 * kMillisecond;
    return demandFromRun(runExperiment(config));
}

DemandShares
demandFromRun(const RunResult &result)
{
    DemandShares d;
    d.webui =
        result.servicePerf.at(teastore::names::kWebui).utilizationCpus;
    d.auth =
        result.servicePerf.at(teastore::names::kAuth).utilizationCpus;
    d.persistence = result.servicePerf.at(teastore::names::kPersistence)
                        .utilizationCpus;
    d.recommender = result.servicePerf.at(teastore::names::kRecommender)
                        .utilizationCpus;
    d.image =
        result.servicePerf.at(teastore::names::kImage).utilizationCpus;
    d.normalize();
    return d;
}

RunResult
runRefined(const ExperimentConfig &config, unsigned rounds,
           RefineTrace *trace)
{
    // One working copy for all rounds; only the demand shares change
    // between runs.
    ExperimentConfig work = config;
    if (trace) {
        trace->perRound.clear();
        trace->perRound.push_back(work.demand);
    }
    RunResult result = runExperiment(work);
    for (unsigned i = 0; i < rounds; ++i) {
        work.demand = demandFromRun(result);
        if (trace)
            trace->perRound.push_back(work.demand);
        result = runExperiment(work);
    }
    if (trace)
        trace->final = demandFromRun(result);
    return result;
}

std::string
summarize(const RunResult &r)
{
    std::ostringstream os;
    os << "tput=" << formatDouble(r.throughputRps, 0) << " req/s"
       << "  p50=" << formatDouble(r.latency.p50Ms, 2) << "ms"
       << "  p95=" << formatDouble(r.latency.p95Ms, 2) << "ms"
       << "  p99=" << formatDouble(r.latency.p99Ms, 2) << "ms"
       << "  util=" << formatDouble(r.cpuUtilization * 100.0, 1) << "%"
       << "  freq=" << formatDouble(r.avgFreqGhz, 2) << "GHz";
    return os.str();
}

} // namespace microscale::core

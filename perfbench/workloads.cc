#include "workloads.hh"

#include <sstream>

#include "apps/socialnet/runner.hh"
#include "autoscale/elastic.hh"
#include "common.hh"
#include "core/placement.hh"
#include "core/sweep.hh"
#include "net/network.hh"
#include "teastore/chaos.hh"
#include "topo/machine.hh"

namespace perfbench
{

namespace ms = microscale;
using ms::kMicrosecond;
using ms::kMillisecond;
using ms::kSecond;

namespace
{

/** Both windows of a set-up call: 1 ms simulated in total. */
constexpr Tick kTinyWindow = 500 * kMicrosecond;

/** Config fields every workload shares, as canonical text. */
std::string
baseText(const ms::core::ExperimentConfig &c)
{
    std::ostringstream os;
    os << "machine=" << ms::topo::Machine(c.machine).describe()
       << " cores=" << c.cores << " smt=" << c.smt
       << " placement=" << ms::core::placementName(c.placement)
       << " warmup_ns=" << c.warmup << " measure_ns=" << c.measure
       << " trace=" << c.trace.enabled << "/" << c.trace.sampleRate;
    return os.str();
}

void
setWindows(ms::core::ExperimentConfig &c, bool tiny, Tick warmup,
           Tick measure)
{
    c.warmup = tiny ? kTinyWindow : warmup;
    c.measure = tiny ? kTinyWindow : measure;
}

/** FIG-01's operating point: 3000 closed-loop users, OS placement. */
void
teastoreSaturated(std::uint64_t seed, bool tiny, Workload &w)
{
    ms::core::ExperimentConfig c = ms::benchx::paperConfig(3000);
    setWindows(c, tiny, 1 * kSecond, 2 * kSecond);
    c.seed = seed;
    w.hooked = true;
    w.configText = "runner=runExperiment " + baseText(c) +
                   " users=" + std::to_string(c.load.users) +
                   " think_ns=" + std::to_string(c.load.meanThink) +
                   " mix=browse";
    w.config = c;
    w.runner = [](const ms::core::ExperimentConfig &cfg) {
        return ms::core::runExperiment(cfg);
    };
}

/** FIG-13's reactive arm on the spike schedule, with resilience. */
void
teastoreSpikeAutoscale(std::uint64_t seed, bool tiny, Workload &w)
{
    ms::core::ExperimentConfig base = ms::benchx::paperConfig();
    setWindows(base, tiny, 2 * kSecond, 12 * kSecond);
    base.placement = ms::core::PlacementKind::CcxAware;
    base.resilience = ms::teastore::resilientPolicy();
    base.seed = seed;

    ms::autoscale::ElasticConfig ec;
    ec.schedule = ms::autoscale::makeSchedule("spike", 600.0, 5000.0,
                                              base.warmup, base.measure);
    ec.initialCores = 28;
    ec.autoscale = true;
    ms::autoscale::AutoscalerParams &as = ec.autoscaler;
    as.policy = ms::autoscale::PolicyKind::Threshold;
    as.placer = ms::autoscale::PlacerKind::TopologyAware;
    as.period = 250 * kMillisecond;
    as.warmup.registrationDelay = 1 * kSecond;
    as.warmup.coldWindow = 2 * kSecond;
    as.scaleOutCooldown = 500 * kMillisecond;
    as.scaleInCooldown = 1 * kSecond;
    as.minReplicas = 1;
    as.maxReplicas = 6;
    as.policyParams.scaleOutStep = 2;
    as.policyParams.horizon =
        as.warmup.registrationDelay + as.warmup.coldWindow / 2;

    w.hooked = false;
    w.configText = "runner=runElastic " + baseText(base) +
                   " schedule=spike/600/5000 initial_cores=28"
                   " policy=threshold placer=topology-aware"
                   " period_ns=" + std::to_string(as.period) +
                   " replicas=1..6 step=2 resilience=resilientPolicy";
    w.config = base;
    w.runner = [ec](const ms::core::ExperimentConfig &cfg) {
        ms::autoscale::ElasticConfig e = ec;
        e.base = cfg;
        return ms::autoscale::runElastic(e);
    };
}

/** FIG-19's deep hedged arm: depth 5, width 4, x10 straggler. */
void
socialnetHedged(std::uint64_t seed, bool tiny, Workload &w)
{
    ms::core::ExperimentConfig c;
    setWindows(c, tiny, 1 * kSecond, 8 * kSecond);
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    c.openLoopRps = 600.0;
    c.seed = seed;

    ms::socialnet::RunOptions opts;
    opts.app.depth = 5;
    opts.app.fanWidth = 4;
    opts.stragglerFactor = 10.0;
    opts.hedge = true;
    opts.hedgeQuantile = 0.0;
    opts.hedgeDelay = 1200 * kMicrosecond;
    opts.hedgeBudget = 0.5;
    opts.maxHedges = 1;

    w.hooked = false;
    w.configText = "runner=runSocialnet " + baseText(c) +
                   " open_loop_rps=600 depth=5 width=4 straggler=10"
                   " hedge_delay_ns=1200000 hedge_budget=0.5";
    w.config = c;
    w.runner = [opts](const ms::core::ExperimentConfig &cfg) {
        return ms::socialnet::runSocialnet(cfg, opts);
    };
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "teastore-saturated", "teastore-spike-autoscale",
        "socialnet-hedged"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny,
             Workload &out)
{
    out = Workload{};
    out.name = name;
    if (name == "teastore-saturated")
        teastoreSaturated(seed, tiny, out);
    else if (name == "teastore-spike-autoscale")
        teastoreSpikeAutoscale(seed, tiny, out);
    else if (name == "socialnet-hedged")
        socialnetHedged(seed, tiny, out);
    else
        return false;
    out.simSeconds = ms::ticksToSeconds(out.config.warmup +
                                        out.config.measure);
    out.measureSeconds = ms::ticksToSeconds(out.config.measure);
    return true;
}

CallOutcome
runOnce(const Workload &w)
{
    ms::core::SweepOptions so;
    so.jobs = 1;
    so.progress = false;
    const ms::core::SweepRunner sweep(so);

    ms::core::SweepPoint point;
    point.label = w.name;
    point.config = w.config;
    point.runner = w.runner;
    const std::vector<ms::core::SweepPoint> points{point};

    CallOutcome out;
    out.start = Clock::now();
    std::vector<ms::core::SweepOutcome> outcomes = sweep.run(points);
    out.end = Clock::now();
    out.ok = outcomes.front().ok;
    out.error = outcomes.front().error;
    out.result = std::move(outcomes.front().result);
    return out;
}

void
Probe::attach(ms::core::ExperimentConfig &config)
{
    config.postBuild = [this](ms::sim::Simulation &sim, ms::svc::Mesh &mesh,
                              ms::teastore::App &) {
        post_build_ = Clock::now();
        sim_ = &sim;
        network_ = &mesh.network();
        sampler_.start(sim, period_, [this] { onSlice(); });
    };
    config.harvestExtra = [this](ms::sim::Simulation &sim,
                                 ms::svc::Mesh &mesh, ms::teastore::App &,
                                 ms::core::RunResult &result) {
        // Stop while the simulation is alive: the sampler's pending
        // event must not outlive it.
        sampler_.stop();
        harvest_ = Clock::now();
        harvested_ = true;
        slab_slots_ = sim.slabSlots();
        messages_at_end_ = mesh.network().stats().messages;
        result.eventsProcessed -= samplerEvents();
    };
}

void
Probe::onSlice()
{
    const Tick now = sim_->now();
    stamps_.push_back(Stamp{now, Clock::now()});
    if (now == warmup_)
        messages_at_warmup_ = network_->stats().messages;
}

} // namespace perfbench

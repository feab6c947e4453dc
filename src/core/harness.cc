#include "core/harness.hh"

#include "base/logging.hh"

namespace microscale::core
{

namespace
{

OpLatency
summarizeHistogram(const QuantileHistogram &h)
{
    OpLatency l;
    l.count = h.count();
    l.meanMs = h.mean() / static_cast<double>(kMillisecond);
    l.p50Ms = h.p50() / static_cast<double>(kMillisecond);
    l.p95Ms = h.p95() / static_cast<double>(kMillisecond);
    l.p99Ms = h.p99() / static_cast<double>(kMillisecond);
    return l;
}

os::SchedStats
schedDelta(const os::SchedStats &end, const os::SchedStats &start)
{
    os::SchedStats d;
    d.wakeups = end.wakeups - start.wakeups;
    d.contextSwitches = end.contextSwitches - start.contextSwitches;
    d.preemptions = end.preemptions - start.preemptions;
    d.migrations = end.migrations - start.migrations;
    d.ccxMigrations = end.ccxMigrations - start.ccxMigrations;
    d.balancePulls = end.balancePulls - start.balancePulls;
    d.newIdlePulls = end.newIdlePulls - start.newIdlePulls;
    return d;
}

/** True when the script holds a gray fault (see GrayFailSummary). */
bool
hasGrayFault(const svc::FaultScript &script)
{
    for (const svc::FaultEvent &e : script.events) {
        switch (e.kind) {
        case svc::FaultEvent::Kind::ReplicaSlow:
        case svc::FaultEvent::Kind::PacketLoss:
        case svc::FaultEvent::Kind::PacketDup:
        case svc::FaultEvent::Kind::Partition:
        case svc::FaultEvent::Kind::PartitionHeal:
        case svc::FaultEvent::Kind::CorrelatedDown:
        case svc::FaultEvent::Kind::CorrelatedUp:
        case svc::FaultEvent::Kind::NodeDown:
        case svc::FaultEvent::Kind::NodeUp:
        case svc::FaultEvent::Kind::FabricLoss:
        case svc::FaultEvent::Kind::FabricPartition:
        case svc::FaultEvent::Kind::FabricHeal:
            return true;
        default:
            break;
        }
    }
    return false;
}

/**
 * Fill result.trace: critical-path attribution of sampled requests
 * rooted at `root` that completed inside [windowStart, windowEnd).
 * No-op when tracing was off.
 */
void
harvestTrace(const ExperimentConfig &config, const svc::Mesh &mesh,
             const char *root, Tick windowStart, Tick windowEnd,
             RunResult &result)
{
    TraceSummary &tr = result.trace;
    const std::shared_ptr<trace::TraceStore> &store = mesh.traceStore();
    tr.active = static_cast<bool>(store);
    if (!tr.active)
        return;
    tr.sampleRate = config.trace.sampleRate;
    tr.rootsSeen = store->rootsSeen();
    tr.tracesSampled = store->traces().size();
    tr.spanCount = store->spanCount();
    tr.attribution =
        trace::attributeTraces(*store, root, windowStart, windowEnd);
    tr.tracesAnalyzed = tr.attribution.traces;
    tr.meanE2eMs = tr.tracesAnalyzed
                       ? tr.attribution.e2eNs /
                             (static_cast<double>(tr.tracesAnalyzed) *
                              static_cast<double>(kMillisecond))
                       : 0.0;
    tr.store = store;
}

/**
 * Fill result.overload (TeaStore: the WebUI limiter and the brownout
 * dimmer) from a finished run.
 */
void
harvestOverload(const ExperimentConfig &config, teastore::App &app,
                const loadgen::Measurement &measurement,
                const svc::BrownoutController *brownout,
                RunResult &result)
{
    OverloadSummary &ov = result.overload;
    ov.active = config.overload.active();
    if (!ov.active)
        return;
    ov.admission = svc::admissionName(config.overload.admission.kind);
    ov.codel = config.overload.codel.enabled;
    ov.adaptiveLifo = config.overload.codel.lifoUnderOverload;
    ov.criticalityAware = config.overload.criticalityAware;
    ov.brownout = config.overload.brownout.enabled;
    using svc::Criticality;
    for (svc::Service *s : app.services()) {
        const svc::OverloadCounters &c = s->overloadCounters();
        ov.shedCritical +=
            c.admissionRejects[svc::criticalityIndex(Criticality::Critical)];
        ov.shedNormal +=
            c.admissionRejects[svc::criticalityIndex(Criticality::Normal)];
        ov.shedSheddable +=
            c.admissionRejects[svc::criticalityIndex(Criticality::Sheddable)];
        ov.codelDrops += c.codelDrops;
        ov.lifoDequeues += c.lifoDequeues;
    }
    ov.rejectedTotal = measurement.statusCount(svc::Status::Rejected);
    const svc::LimiterTrace trace = app.webui().limiterSummary();
    if (trace.valid) {
        ov.limitInitial = trace.initial;
        ov.limitMin = trace.minSeen;
        ov.limitMax = trace.maxSeen;
        ov.limitFinal = trace.last;
    }
    if (brownout) {
        const auto &t = brownout->telemetry();
        ov.brownoutDutyCycle = t.windowSeconds > 0.0
                                   ? t.dutyCycleSeconds / t.windowSeconds
                                   : 0.0;
        ov.dimmerMin = t.dimmerMin;
        ov.dimmerFinal = t.dimmerLast;
        ov.brownoutSkips = t.skips;
    }
}

PlacementPlan
initialPlan(const ExperimentConfig &config, const World &world,
            unsigned initialCores)
{
    if (config.planOverride)
        return config.planOverride(world.machine, world.budget);
    CpuMask initial = world.budget;
    if (initialCores != 0)
        initial = budgetMask(world.machine, initialCores, config.smt);
    if (!initial.subsetOf(world.budget))
        fatal("initialCores exceeds the CPU budget");
    return buildPlacement(config.placement, world.machine, initial,
                          config.demand, config.sizing);
}

teastore::AppParams
sizedParams(teastore::AppParams params, const PlacementPlan &plan)
{
    sizeAppFromPlan(params, plan);
    return params;
}

const char *
teastoreOpName(unsigned op)
{
    return teastore::opName(static_cast<teastore::OpType>(op));
}

} // namespace

World::World(const ExperimentConfig &config,
             const svc::ResilienceConfig &resilience)
    : machine(config.machine),
      engine(sim, machine),
      kernel(sim, machine, engine, config.sched, config.seed),
      network(sim, config.net, config.seed),
      mesh(kernel, network, config.rpc, config.seed),
      budget(budgetMask(machine, config.cores, config.smt)),
      config_(config)
{
    mesh.setResilience(resilience);
    mesh.setOverload(config.overload);
    mesh.setTrace(config.trace);
}

World::~World()
{
    kernel.stop();
}

void
World::armFaults()
{
    if (config_.faults.empty())
        return;
    injector_ = std::make_unique<svc::FaultInjector>(mesh, config_.faults);
    injector_->arm();
}

void
World::runWindows(std::vector<svc::Service *> services)
{
    services_ = std::move(services);
    sim.runUntil(config_.warmup);
    engine.bankAll();
    for (svc::Service *s : services_)
        counters_at_warmup_.push_back(s->aggregateCounters());
    sched_at_warmup_ = kernel.stats();
    busy_at_warmup_ = engine.cpuBusySnapshot();
    // Per-op histograms restart at the window so breakdowns are clean.
    for (svc::Service *s : services_)
        s->resetStats();

    sim.runUntil(config_.warmup + config_.measure);
    engine.bankAll();
}

RunResult
World::harvest(const loadgen::Measurement &measurement, OpNameFn opName,
               const char *traceRoot, bool degradedFallbacks) const
{
    RunResult result;
    result.budgetCpus = budget.count();
    result.eventsProcessed = sim.eventsProcessed();

    result.throughputRps = measurement.throughputRps();
    result.latency = summarizeHistogram(measurement.latencyNs());
    for (unsigned op = 0; op < measurement.numOps(); ++op) {
        result.perOp[opName(op)] =
            summarizeHistogram(measurement.latencyNsFor(op));
    }

    cpu::PerfCounters total;
    for (std::size_t i = 0; i < services_.size(); ++i) {
        const svc::Service *s = services_[i];
        const cpu::PerfCounters delta =
            s->aggregateCounters().delta(counters_at_warmup_[i]);
        result.servicePerf[s->name()] =
            perf::makeRow(s->name(), delta, config_.measure);
        total.merge(delta);
    }
    result.total = perf::makeRow("total", total, config_.measure);
    result.sched = schedDelta(kernel.stats(), sched_at_warmup_);
    result.avgFreqGhz = total.ghz();

    constexpr double kMs = static_cast<double>(kMillisecond);
    for (const svc::Service *s : services_) {
        for (const auto &[op, stats] : s->opStats()) {
            OpBreakdown b;
            b.count = stats.requests;
            b.serviceTimeMeanMs = stats.serviceTimeNs.mean() / kMs;
            b.queueWaitMeanMs = stats.queueWaitNs.mean() / kMs;
            b.computeMeanMs = stats.computeNs.mean() / kMs;
            b.stallMeanMs = stats.stallNs.mean() / kMs;
            b.serviceTimeP99Ms = stats.serviceTimeNs.p99() / kMs;
            b.okCount = stats.statusCounts[svc::statusIndex(svc::Status::Ok)];
            b.timeoutCount =
                stats.statusCounts[svc::statusIndex(svc::Status::Timeout)];
            b.overloadCount =
                stats.statusCounts[svc::statusIndex(svc::Status::Overload)];
            b.unavailableCount = stats.statusCounts[svc::statusIndex(
                svc::Status::Unavailable)];
            result.breakdown[s->name()][op] = b;
        }
    }

    {
        ResilienceSummary &rs = result.resilience;
        rs.active = mesh.resilience().active() || !config_.faults.empty() ||
                    degradedFallbacks || config_.overload.active();
        rs.goodputRps = measurement.goodputRps();
        const std::uint64_t completed = measurement.completed();
        rs.okCount = measurement.statusCount(svc::Status::Ok);
        rs.timeoutCount = measurement.statusCount(svc::Status::Timeout);
        rs.overloadCount = measurement.statusCount(svc::Status::Overload);
        rs.unavailableCount =
            measurement.statusCount(svc::Status::Unavailable);
        rs.rejectedCount = measurement.statusCount(svc::Status::Rejected);
        rs.degradedCount = measurement.degradedCount();
        rs.errorRate =
            completed > 0 ? static_cast<double>(measurement.errorCount()) /
                                static_cast<double>(completed)
                          : 0.0;
        rs.degradedShare =
            rs.okCount > 0 ? static_cast<double>(rs.degradedCount) /
                                 static_cast<double>(rs.okCount)
                           : 0.0;
        rs.retries = mesh.retryStats().retries;
        rs.retriesDenied = mesh.retryStats().budgetDenied;
        rs.clientTimeouts = mesh.retryStats().clientTimeouts;
        for (const svc::Service *s : services_) {
            const svc::ResilienceCounters &c = s->resilienceCounters();
            rs.shed += c.shed;
            rs.deadlineDrops += c.deadlineDrops;
            rs.breakerOpens += c.breakerOpens;
        }
    }

    harvestTrace(config_, mesh, traceRoot, config_.warmup,
                 config_.warmup + config_.measure, result);

    {
        GrayFailSummary &gf = result.grayfail;
        gf.ejectionEnabled = mesh.resilience().outlier.enabled;
        gf.active = gf.ejectionEnabled || hasGrayFault(config_.faults);
        if (gf.active) {
            for (const svc::Service *s : services_) {
                const svc::ResilienceCounters &c = s->resilienceCounters();
                gf.ejections += c.outlierEjections;
                gf.unejections += c.outlierUnejections;
                gf.ejectionsDenied += c.outlierEjectionsDenied;
                gf.ejectedAtEnd += s->ejectedReplicaCount();
            }
            gf.packetsDropped = network.stats().dropped;
            gf.packetsDuplicated = network.stats().duplicated;
            gf.packetsBlackholed = network.stats().blackholed;
            if (injector_) {
                gf.faultsApplied = injector_->applied();
                gf.faultsSkipped = injector_->skipped();
            }
        }
    }

    const std::vector<double> busy_at_end = engine.cpuBusySnapshot();
    double busy = 0.0;
    for (CpuId c : budget)
        busy += busy_at_end[c] - busy_at_warmup_[c];
    result.cpuUtilization =
        busy / (static_cast<double>(budget.count()) *
                static_cast<double>(config_.measure));
    return result;
}

TeaStoreRun::TeaStoreRun(const ExperimentConfig &config,
                         unsigned initialCores)
    : world(config, config.resilience),
      plan(initialPlan(config, world, initialCores)),
      app(world.mesh, sizedParams(config.app, plan), config.seed),
      config_(config)
{
    applyPlacement(app, plan);

    if (config.overload.brownout.enabled) {
        brownout_ = std::make_unique<svc::BrownoutController>(
            app.webui(), config.overload.brownout);
        brownout_->setAccountingWindow(config.warmup,
                                       config.warmup + config.measure);
        app.setBrownout(brownout_.get());
    }

    // Cluster construction (shard/cache services, node router, node
    // scaler) happens before the fault injector arms so cluster fault
    // scripts validate against the full service registry.
    if (config.postBuild)
        config.postBuild(world.sim, world.mesh, app);
    world.armFaults();

    if (config.openLoopRps > 0.0) {
        loadgen::OpenLoopParams p;
        p.arrivalRps = config.openLoopRps;
        p.schedule = config.loadSchedule;
        p.ledger = config.ledger;
        open_ = std::make_unique<loadgen::OpenLoopDriver>(
            app, config.mix, p, config.seed);
        measurement_ = &open_->measurement();
    } else {
        loadgen::ClosedLoopParams lp = config.load;
        lp.ledger = config.ledger;
        closed_ = std::make_unique<loadgen::ClosedLoopDriver>(
            app, config.mix, lp, config.seed);
        measurement_ = &closed_->measurement();
    }
    measurement_->setWindow(config.warmup, config.warmup + config.measure);
}

TeaStoreRun::~TeaStoreRun()
{
    // Stop sources before the world is destroyed.
    if (closed_)
        closed_->stopIssuing();
    if (open_)
        open_->stopIssuing();
    if (brownout_) {
        app.setBrownout(nullptr);
        brownout_->stop();
    }
    app.stop();
}

void
TeaStoreRun::start()
{
    world.kernel.start();
    app.start();
    if (brownout_)
        brownout_->start();
}

void
TeaStoreRun::startLoad()
{
    if (closed_)
        closed_->start();
    else
        open_->start();
}

RunResult &
TeaStoreRun::measure()
{
    world.runWindows(app.services());
    result_ = world.harvest(*measurement_, teastoreOpName,
                            teastore::names::kWebui,
                            app.params().degradedFallbacks);
    result_.plan = plan;
    harvestOverload(config_, app, *measurement_, brownout_.get(), result_);
    if (config_.harvestExtra)
        config_.harvestExtra(world.sim, world.mesh, app, result_);
    return result_;
}

RunResult
TeaStoreRun::finish()
{
    // Optional quiesce: stop the drivers and let in-flight work finish
    // (complete or time out). Every periodic timer in the system is a
    // background event, so run() terminates once the last foreground
    // request settles. Harvesting already happened - results are
    // unaffected; this exists for end-of-run invariant checks.
    if (config_.drainAtEnd) {
        if (closed_)
            closed_->stopIssuing();
        if (open_)
            open_->stopIssuing();
        world.sim.run();
        if (config_.postDrain)
            config_.postDrain(world.sim, world.mesh, app);
    }
    return std::move(result_);
}

} // namespace microscale::core

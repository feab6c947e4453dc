/**
 * @file
 * A synthetic RunResult with every gated block of the result document
 * active, shared by the writer golden (Golden.EveryBlockWriter) and the
 * checkResultJson tests.
 *
 * It reaches what no simulated golden does: grayfail and replication
 * blocks, fabric_ms in a traced cluster run, a NaN, a uint64 above
 * 2^53 and both values of every flag kind. Every other value satisfies
 * the document's bounds and relations, so with its one NaN made finite
 * the result is a valid document.
 */

#ifndef MICROSCALE_TESTS_CORE_EVERY_BLOCK_HH
#define MICROSCALE_TESTS_CORE_EVERY_BLOCK_HH

#include <cmath>
#include <cstdint>

#include "core/experiment.hh"

namespace microscale::core
{

inline perf::PerfRow
everyBlockPerfRow(double cpus, double ipc)
{
    perf::PerfRow row;
    row.utilizationCpus = cpus;
    row.ipc = ipc;
    row.ghz = 2.9;
    row.l3Mpki = 4.25;
    row.l3MissRatio = 0.375;
    row.branchMpki = 6.5;
    row.icacheMpki = 12.125;
    row.kernelShare = 0.18;
    row.smtShare = 0.0;
    row.csPerSec = 15000.0;
    row.migrationsPerSec = 320.0;
    row.ccxMigrationsPerSec = 40.0;
    row.mips = 2100.0;
    return row;
}

inline OpBreakdown
everyBlockOp(std::uint64_t count, double serviceMs)
{
    OpBreakdown b;
    b.count = count;
    b.serviceTimeMeanMs = serviceMs;
    b.queueWaitMeanMs = serviceMs * 0.25;
    b.computeMeanMs = serviceMs * 0.5;
    b.stallMeanMs = serviceMs * 0.25;
    b.serviceTimeP99Ms = serviceMs * 3.0;
    b.okCount = count - 3;
    b.timeoutCount = 1;
    b.overloadCount = 1;
    b.unavailableCount = 1;
    return b;
}

inline trace::ServiceAttribution
everyBlockAttribution(double scaleNs)
{
    trace::ServiceAttribution a;
    a.queueNs = 1.0 * scaleNs;
    a.computeNs = 2.0 * scaleNs;
    a.stallNs = 0.5 * scaleNs;
    a.fanoutNs = 1.0 * scaleNs;
    a.backoffNs = 0.25 * scaleNs;
    a.shedNs = 0.125 * scaleNs;
    a.networkNs = 0.75 * scaleNs;
    a.fabricNs = 0.5 * scaleNs;
    return a;
}

/** The result; `total.mips` is its one NaN (written as null). */
inline RunResult
everyBlockResult()
{
    RunResult r;
    r.plan.kind = PlacementKind::CcxAware;
    r.throughputRps = 1234.567891; // all 10 printed digits
    r.budgetCpus = 16;
    r.cpuUtilization = 0.8125;
    r.avgFreqGhz = 3.141592653589793; // printed as 3.141592654
    r.eventsProcessed = (std::uint64_t{1} << 53) + 1; // no double has it
    r.latency = {200, 12.5, 10.0, 30.0, 45.0};
    r.perOp["home"] = {120, 8.0, 7.0, 15.0, 20.0};
    r.perOp["login"] = {80, 19.0, 16.0, 40.0, 60.0};
    r.servicePerf["auth"] = everyBlockPerfRow(1.5, 0.45);
    r.servicePerf["webui"] = everyBlockPerfRow(4.25, 0.375);
    r.total = everyBlockPerfRow(5.75, 0.4);
    r.total.mips = std::nan("");
    r.sched = {1000, 900, 50, 40, 10, 5, 7};
    r.breakdown["auth"]["login"] = everyBlockOp(80, 2.0);
    r.breakdown["auth"]["verify"] = everyBlockOp(40, 1.0);
    r.breakdown["webui"]["home"] = everyBlockOp(120, 6.0);
    r.breakdown["webui"]["login"] = everyBlockOp(80, 9.0);

    ResilienceSummary &rs = r.resilience;
    rs.active = true;
    rs.goodputRps = 1100.25;
    rs.errorRate = 0.0625;
    rs.degradedShare = 0.03125;
    rs.okCount = 1850;
    rs.timeoutCount = 40;
    rs.overloadCount = 30;
    rs.unavailableCount = 20;
    rs.rejectedCount = 35;
    rs.degradedCount = 58;
    rs.retries = 90;
    rs.retriesDenied = 12;
    rs.clientTimeouts = 41;
    rs.shed = 25;
    rs.deadlineDrops = 7;
    rs.breakerOpens = 2;

    OverloadSummary &ov = r.overload;
    ov.active = true;
    ov.admission = "gradient";
    ov.codel = true;
    ov.adaptiveLifo = false;
    ov.criticalityAware = true;
    ov.brownout = false;
    ov.shedCritical = 3;
    ov.shedNormal = 14;
    ov.shedSheddable = 18;
    ov.codelDrops = 9;
    ov.lifoDequeues = 11;
    ov.rejectedTotal = 35;
    ov.limitInitial = 20.0;
    ov.limitMin = 8.5;
    ov.limitMax = 31.0;
    ov.limitFinal = 17.75;
    ov.brownoutDutyCycle = 0.25;
    ov.dimmerMin = 0.5;
    ov.dimmerFinal = 1.0;
    ov.brownoutSkips = 6;

    ElasticSummary &es = r.elastic;
    es.active = true;
    es.schedule = "spike";
    es.policy = "threshold";
    es.placer = "topology-aware";
    es.offeredMeanRps = 640.0;
    es.offeredPeakRps = 1200.0;
    es.sloP99Ms = 50.0;
    es.sloViolationSeconds = 0.4;
    es.coreSecondsGranted = 14.5;
    es.steadyStateCpus = 8.0;
    es.scaleOutLagMeanMs = 212.5;
    es.scaleOuts = 4;
    es.scaleIns = 1;
    es.peakReplicas["auth"] = 2;
    es.peakReplicas["webui"] = 3;

    TraceSummary &tr = r.trace;
    tr.active = true;
    tr.sampleRate = 0.5;
    tr.rootsSeen = 400;
    tr.tracesSampled = 200;
    tr.tracesAnalyzed = 4;
    tr.spanCount = 3200;
    tr.attribution.traces = 4;
    tr.attribution.unattributedNs = 0.1e6;
    tr.attribution.services["auth"] = everyBlockAttribution(0.5e6);
    tr.attribution.services["webui"] = everyBlockAttribution(1e6);
    tr.attribution.e2eNs = tr.attribution.attributedNs();

    GrayFailSummary &gf = r.grayfail;
    gf.active = true;
    gf.ejectionEnabled = true;
    gf.ejections = 5;
    gf.unejections = 3;
    gf.ejectionsDenied = 1;
    gf.ejectedAtEnd = 2;
    gf.packetsDropped = 17;
    gf.packetsDuplicated = 4;
    gf.packetsBlackholed = 9;
    gf.faultsApplied = 4;
    gf.faultsSkipped = 0;

    ScaleoutSummary &so = r.scaleout;
    so.active = true;
    so.nodes = 4;
    so.activeNodesEnd = 3;
    so.shards = 8;
    so.cacheNodes = 2;
    so.fabricMessages = 5200;
    so.fabricBytes = 9876543210;
    so.fabricShare = 0.3;
    so.cacheHits = 800;
    so.cacheMisses = 200;
    so.cacheInvalidations = 12;
    so.cacheEvictions = 30;
    so.cacheHitRate = 0.8;
    so.shardRequests = 260;
    so.shardLoadCv = 0.12;
    so.nodesProvisioned = 3;
    so.warmProvisions = 2;
    so.coldProvisions = 1;
    so.provisionLagMeanMs = 150.0;

    ReplicationSummary &rp = r.replication;
    rp.active = true;
    rp.factor = 3;
    rp.writeQuorum = 2;
    rp.readQuorum = 2;
    rp.quorumWrites = 500;
    rp.writeFailures = 3;
    rp.writeAckP50Ms = 1.25;
    rp.writeAckP99Ms = 6.5;
    rp.quorumReads = 1500;
    rp.readFailures = 2;
    rp.readRepairs = 14;
    rp.readRefetches = 5;
    rp.readP50Ms = 0.75;
    rp.readP99Ms = 4.0;
    rp.hintsQueued = 10;
    rp.hintsReplayed = 8;
    rp.hintsDropped = 1;
    rp.hintDepthPeak = 6;
    rp.rebalancesStarted = 2;
    rp.rebalancesCompleted = 1;
    rp.rebalanceBatches = 24;
    rp.rebalanceBytes = 1048576;
    rp.dualReads = 33;
    rp.rebalanceMsTotal = 420.0;
    rp.consistencyChecked = false;
    rp.ackedWrites = 497;
    rp.lostAckedWrites = 0;
    rp.staleQuorumReads = 0;

    FanoutSummary &fo = r.fanout;
    fo.active = true;
    fo.app = "socialnet";
    fo.depth = 5;
    fo.services = 21;
    fo.fanWidth = 4;
    fo.hedged = true;
    fo.hedgeDelayMs = 1.2;
    fo.hedgeQuantile = 0.95;
    fo.hedgeBudgetRatio = 0.5;
    fo.firstAttempts = 1000;
    fo.hedgesLaunched = 50;
    fo.hedgeWins = 20;
    fo.hedgesDenied = 5;
    fo.hedgesCancelled = 30;
    fo.hedgeShare = 0.05;
    fo.p50Ms = 10.0;
    fo.p99Ms = 40.0;
    fo.amplification = 4.0;
    return r;
}

} // namespace microscale::core

#endif // MICROSCALE_TESTS_CORE_EVERY_BLOCK_HH

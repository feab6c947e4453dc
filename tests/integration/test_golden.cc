/**
 * @file
 * Golden-output byte-equality tests for the engine hot path.
 *
 * Each scenario is a reduced FIG-01/05/12/13/14/15/19-style experiment;
 * its RunResult JSON (core::writeJson) must stay byte-identical to the
 * captured golden produced by the pre-refactor engine. FIG-13 pins the
 * elastic runner and FIG-19 the socialnet runner; TracedRetries pins
 * the mesh's retry ladder with spans recorded; OverloadShedding pins
 * FIG-14's config past capacity, where admission, CoDel and brownout
 * act. EveryBlockWriter pins the writer itself on a synthetic result
 * with every gated block active. These pin the
 * event-core refactor: any change to event ordering, RNG draw
 * sequences or histogram accumulation in the default (per-user) mode
 * shows up as a diff here.
 *
 * Regenerating (only when an intentional behavior change lands):
 *   MICROSCALE_REGEN_GOLDENS=1 ./test_integration \
 *       --gtest_filter='Golden.*'
 * then commit the updated files under tests/integration/golden/.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/socialnet/runner.hh"
#include "autoscale/elastic.hh"
#include "core/every_block.hh"
#include "core/experiment.hh"
#include "core/json.hh"
#include "integration/golden.hh"
#include "teastore/chaos.hh"
#include "teastore/criticality.hh"
#include "topo/machine.hh"

namespace microscale::core
{
namespace
{

using microscale::testing::checkGolden;

/** The reduced base scenario: small machine, short windows. */
ExperimentConfig
baseConfig()
{
    ExperimentConfig c;
    c.machine = topo::small8();
    c.app.store.categories = 4;
    c.app.store.productsPerCategory = 10;
    c.app.store.users = 20;
    c.sizing.webui = {1, 8};
    c.sizing.auth = {1, 4};
    c.sizing.persistence = {1, 8};
    c.sizing.recommender = {1, 2};
    c.sizing.image = {1, 8};
    c.sizing.registry = {1, 1};
    c.load.users = 60;
    c.load.meanThink = 50 * kMillisecond;
    c.warmup = 200 * kMillisecond;
    c.measure = 400 * kMillisecond;
    return c;
}

std::string
resultJson(const RunResult &r)
{
    std::ostringstream os;
    writeJson(os, r);
    os << "\n";
    return os.str();
}

TEST(Golden, Fig01ClosedLoop)
{
    const RunResult r = runExperiment(baseConfig());
    checkGolden("fig01_closed_loop.json", resultJson(r));
}

TEST(Golden, Fig05PlacementRefined)
{
    ExperimentConfig c = baseConfig();
    c.placement = PlacementKind::CcxAware;
    const RunResult r = runRefined(c, 1, nullptr);
    checkGolden("fig05_placement.json", resultJson(r));
}

TEST(Golden, Fig12ResilientChaos)
{
    ExperimentConfig c = baseConfig();
    c.faults = teastore::makeChaosScript(
        teastore::allChaosScenarios().front(), c.warmup, c.measure);
    c.resilience = teastore::resilientPolicy();
    c.app.degradedFallbacks = true;
    const RunResult r = runExperiment(c);
    checkGolden("fig12_resilience.json", resultJson(r));
}

TEST(Golden, TracedRetries)
{
    // Fig12's resilient chaos run with every request traced: retried
    // attempts record spans (attempt number, retryOf, backoff), which
    // no other golden combines. The healthy first scenario retries
    // nothing, so an image crash (rejected attempts retried after
    // their backoff) overlaps a recommender brownout (attempts settled
    // by their client timeout).
    ExperimentConfig c = baseConfig();
    c.faults = teastore::makeChaosScript(
        teastore::ChaosScenario::ReplicaCrash, c.warmup, c.measure);
    for (const svc::FaultEvent &e :
         teastore::makeChaosScript(teastore::ChaosScenario::Brownout,
                                   c.warmup, c.measure)
             .events)
        c.faults.events.push_back(e);
    c.resilience = teastore::resilientPolicy();
    c.app.degradedFallbacks = true;
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    const RunResult r = runExperiment(c);
    EXPECT_GT(r.resilience.retries, 0u);
    EXPECT_GT(r.resilience.clientTimeouts, 0u);
    checkGolden("traced_retries.json", resultJson(r));
}

TEST(Golden, Fig14OverloadOpenLoop)
{
    ExperimentConfig c = baseConfig();
    c.openLoopRps = 400.0;
    c.resilience = teastore::resilientPolicy();
    c.app.degradedFallbacks = true;
    c.overload = teastore::overloadAwarePolicy();
    const RunResult r = runExperiment(c);
    checkGolden("fig14_overload.json", resultJson(r));
}

TEST(Golden, OverloadShedding)
{
    // Fig14's config past what this slice serves (400 req/s sheds
    // nothing): admission rejects critical and normal requests, CoDel
    // drops and serves newest-first, and the brownout dimmer skips
    // optional legs. The sheddable tier is never shed, here as at
    // every fast-mode FIG-14 point.
    ExperimentConfig c = baseConfig();
    c.openLoopRps = 900.0;
    c.resilience = teastore::resilientPolicy();
    c.app.degradedFallbacks = true;
    c.overload = teastore::overloadAwarePolicy();
    const RunResult r = runExperiment(c);
    EXPECT_GT(r.overload.shedCritical, 0u);
    EXPECT_GT(r.overload.shedNormal, 0u);
    EXPECT_GT(r.overload.codelDrops, 0u);
    EXPECT_GT(r.overload.lifoDequeues, 0u);
    EXPECT_GT(r.overload.rejectedTotal, 0u);
    EXPECT_GT(r.overload.brownoutSkips, 0u);
    checkGolden("overload_shedding.json", resultJson(r));
}

TEST(Golden, Fig15TraceAttribution)
{
    ExperimentConfig c = baseConfig();
    c.placement = PlacementKind::CcxAware;
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    const RunResult r = runExperiment(c);
    checkGolden("fig15_trace.json", resultJson(r));
}

TEST(Golden, Fig13ElasticSpike)
{
    // The autoscale smoke scenario: a 200 -> 1200 req/s spike on a
    // 16-core budget whose initial deployment covers 8 cores.
    autoscale::ElasticConfig ec;
    ec.base.machine = topo::rome128();
    ec.base.cores = 16;
    ec.base.placement = PlacementKind::CcxAware;
    ec.base.warmup = 300 * kMillisecond;
    ec.base.measure = 1200 * kMillisecond;
    ec.schedule = autoscale::makeSchedule("spike", 200.0, 1200.0,
                                          ec.base.warmup, ec.base.measure);
    ec.initialCores = 8;
    ec.autoscaler.period = 100 * kMillisecond;
    ec.autoscaler.warmup.registrationDelay = 100 * kMillisecond;
    ec.autoscaler.warmup.coldWindow = 200 * kMillisecond;
    ec.autoscaler.scaleOutCooldown = 100 * kMillisecond;
    ec.autoscaler.scaleInCooldown = 200 * kMillisecond;
    ec.autoscaler.maxReplicas = 3;
    const RunResult r = autoscale::runElastic(ec);
    checkGolden("fig13_elastic.json", resultJson(r));
}

TEST(Golden, Fig19SocialnetHedged)
{
    ExperimentConfig c;
    c.machine = topo::small8();
    c.openLoopRps = 150.0;
    c.warmup = 100 * kMillisecond;
    c.measure = 300 * kMillisecond;
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    socialnet::RunOptions opts;
    opts.app.depth = 5;
    opts.stragglerFactor = 8.0;
    opts.hedge = true;
    opts.hedgeDelay = 1200 * kMicrosecond;
    opts.hedgeBudget = 0.5;
    const RunResult r = socialnet::runSocialnet(c, opts);
    checkGolden("fig19_socialnet.json", resultJson(r));
}

TEST(Golden, EveryBlockWriter)
{
    // No simulated golden writes grayfail, replication, fabric_ms, a
    // null or an integer past 2^53; this one writes them all.
    checkGolden("every_block.json", resultJson(everyBlockResult()));
}

} // namespace
} // namespace microscale::core
